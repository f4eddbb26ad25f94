import tracemalloc

import numpy as np
import pytest

import ablatereg.nn as nn_module
from ablatereg.augment import AugmentSpec
from ablatereg.dataset import Dataset, standardize, synth_correlated
from ablatereg.linear import fit_ols
from ablatereg.nn import (
    TrainConfig,
    TrainingDivergedError,
    _adam_update,
    evaluate,
    forward,
    init,
    input_gradients,
    linear_as_mlp,
    loss,
    param_gradients,
    predict,
    train,
)


def net_with_biases(dims, seed):
    """A He-initialized net whose biases are random too, so bias additions
    show in every bit-for-bit comparison."""
    m = init(dims, seed=seed)
    rng = np.random.default_rng(seed + 1000)
    for b in m.biases:
        b[:] = rng.normal(scale=0.5, size=b.shape)
    return m


def regression_dataset(X, y):
    X = np.asarray(X, dtype=np.float64)
    return Dataset(
        features=X,
        response=np.asarray(y, dtype=np.float64),
        column_names=tuple(f"c{j}" for j in range(X.shape[1])),
        column_kinds=("numeric",) * X.shape[1],
        task="regression",
    )


class TestInit:
    def test_deterministic(self):
        a = init([4, 10, 1], seed=1)
        b = init([4, 10, 1], seed=1)
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa, wb)

    def test_depth0_param_count(self):
        m = init([7, 1], seed=2)
        assert m.n_params() == 8  # k + 1

    def test_depth3_param_count(self):
        m = init([24, 100, 100, 100, 1], seed=3)
        expected = 24 * 100 + 100 + 2 * (100 * 100 + 100) + 100 + 1
        assert m.n_params() == expected

    def test_biases_zero(self):
        m = init([3, 5, 1], seed=4)
        assert all(not b.any() for b in m.biases)


class TestForward:
    def test_depth0_affine(self):
        m = init([3, 1], seed=5)
        X = np.random.default_rng(6).normal(size=(8, 3))
        out, _ = forward(m, X)
        np.testing.assert_allclose(out, X @ m.weights[0] + m.biases[0])

    def test_dead_layer_outputs_zero(self):
        m = init([2, 4, 1], seed=7)
        m.weights[0][:] = -1.0
        m.biases[0][:] = 0.0
        X = np.abs(np.random.default_rng(8).normal(size=(5, 2)))  # positive inputs
        out, _ = forward(m, X)
        np.testing.assert_allclose(out, np.broadcast_to(m.biases[1], out.shape))

    def test_row_duplication(self):
        m = init([3, 6, 1], seed=9)
        X = np.random.default_rng(10).normal(size=(4, 3))
        out_single, _ = forward(m, X)
        out_double, _ = forward(m, np.vstack([X, X]))
        np.testing.assert_array_equal(out_double[:4], out_single)
        np.testing.assert_array_equal(out_double[4:], out_single)

    def test_dimension_check(self):
        m = init([3, 1], seed=11)
        with pytest.raises(ValueError):
            forward(m, np.zeros((2, 4)))
        with pytest.raises(ValueError):
            predict(m, np.zeros((2, 4)))

    @pytest.mark.parametrize("dims", [[4, 3], [4, 9, 3], [4, 9, 7, 5, 3]])
    def test_predict_is_forward_outputs_bit_for_bit(self, dims):
        m = net_with_biases(dims, seed=12)
        X = np.random.default_rng(13).normal(size=(50, 4))
        assert np.array_equal(predict(m, X), forward(m, X)[0])
        assert np.array_equal(predict(m, X[0]), forward(m, X[0])[0])


class TestLoss:
    def test_zero_residual(self):
        assert loss(np.array([[1.0], [2.0]]), np.array([1.0, 2.0]), "regression") == 0.0

    def test_uniform_logits(self):
        logits = np.zeros((6, 4))
        targets = np.array([0, 1, 2, 3, 0, 1])
        assert abs(loss(logits, targets, "classification") - np.log(4)) < 1e-12

    def test_margin_monotone(self):
        targets = np.array([0])
        values = []
        for margin in (0.5, 1.0, 2.0):
            logits = np.array([[margin, 0.0]])
            values.append(loss(logits, targets, "classification"))
        assert values[0] > values[1] > values[2]

    def test_invalid_class_index(self):
        with pytest.raises(ValueError):
            loss(np.zeros((2, 3)), np.array([0, 3]), "classification")


class TestParamGradients:
    def test_finite_difference_oracle(self):
        rng = np.random.default_rng(12)
        m = init([5, 10, 10, 1], seed=13)
        X = rng.normal(size=(12, 5))
        y = rng.normal(size=12)
        grads_w, grads_b = param_gradients(m, X, y, "regression")
        h = 1e-4
        checked = 0
        for layer in range(3):
            for _ in range(7):
                i = int(rng.integers(m.weights[layer].shape[0]))
                j = int(rng.integers(m.weights[layer].shape[1]))
                orig = m.weights[layer][i, j]
                m.weights[layer][i, j] = orig + h
                up = loss(forward(m, X)[0], y, "regression")
                m.weights[layer][i, j] = orig - h
                down = loss(forward(m, X)[0], y, "regression")
                m.weights[layer][i, j] = orig
                fd = (up - down) / (2 * h)
                scale = max(abs(fd), abs(grads_w[layer][i, j]), 1e-8)
                assert abs(fd - grads_w[layer][i, j]) / scale < 1e-4
                checked += 1
        assert checked >= 20

    def test_classification_finite_difference(self):
        rng = np.random.default_rng(14)
        m = init([4, 8, 3], seed=15)
        X = rng.normal(size=(9, 4))
        y = rng.integers(0, 3, size=9)
        grads_w, _ = param_gradients(m, X, y, "classification")
        h = 1e-5
        for _ in range(10):
            i = int(rng.integers(4))
            j = int(rng.integers(8))
            orig = m.weights[0][i, j]
            m.weights[0][i, j] = orig + h
            up = loss(forward(m, X)[0], y, "classification")
            m.weights[0][i, j] = orig - h
            down = loss(forward(m, X)[0], y, "classification")
            m.weights[0][i, j] = orig
            fd = (up - down) / (2 * h)
            scale = max(abs(fd), abs(grads_w[0][i, j]), 1e-8)
            assert abs(fd - grads_w[0][i, j]) / scale < 1e-3

    def test_zero_residual_zero_gradients(self):
        m = linear_as_mlp(np.array([1.0, 2.0]), 0.5)
        X = np.random.default_rng(16).normal(size=(6, 2))
        y = forward(m, X)[0].ravel()
        grads_w, grads_b = param_gradients(m, X, y, "regression")
        assert np.abs(grads_w[0]).max() < 1e-12
        assert np.abs(grads_b[0]).max() < 1e-12

    def test_duplicated_batch_same_gradient(self):
        rng = np.random.default_rng(17)
        m = init([3, 6, 1], seed=18)
        X = rng.normal(size=(5, 3))
        y = rng.normal(size=5)
        g1, _ = param_gradients(m, X, y, "regression")
        g2, _ = param_gradients(m, np.vstack([X, X]), np.concatenate([y, y]), "regression")
        for a, b in zip(g1, g2):
            np.testing.assert_allclose(a, b, atol=1e-12)


def full_backprop_input_gradients(m, X, output_index):
    """The input gradient as the full backprop over :func:`forward`'s cache
    computed it: every layer's weight and bias gradients, then the input
    gradient from the float pre-activations."""
    outputs, cache = forward(m, X)
    g = np.zeros_like(outputs)
    g[:, output_index] = 1.0
    for layer in range(len(m.weights) - 1, -1, -1):
        cache["inputs"][layer].T @ g
        g.sum(axis=0)
        if layer > 0:
            g = (g @ m.weights[layer].T) * (cache["preacts"][layer - 1] > 0)
        else:
            g = g @ m.weights[0].T
    return g


def reference_input_gradients(m, X, output_index):
    """The input gradient with every layer's arrays kept: the forward
    activations stay alive, and each hidden layer's gradient is the
    out-of-place ``(g @ W.T) * mask``."""
    act = X
    masks = []
    for w, b in zip(m.weights[:-1], m.biases[:-1]):
        z = act @ w + b
        masks.append(z > 0)
        act = np.maximum(z, 0.0)
    g = np.zeros((X.shape[0], m.weights[-1].shape[1]))
    g[:, output_index] = 1.0
    for layer in range(len(m.weights) - 1, 0, -1):
        g = (g @ m.weights[layer].T) * masks[layer - 1]
    return g @ m.weights[0].T


def net_with_signed_zeros(dims, seed):
    """A net with random biases whose weights hold +0.0 and -0.0 in places,
    so the sign of every zero product and sum shows in a bit comparison."""
    m = net_with_biases(dims, seed)
    rng = np.random.default_rng(seed + 2000)
    for w in m.weights:
        where = rng.random(w.shape)
        w[where < 0.1] = 0.0
        w[where > 0.9] = -0.0
    return m


class TestInputGradients:
    @pytest.mark.parametrize("depth", [0, 1, 2, 3])
    @pytest.mark.parametrize("n_out", [1, 3])
    @pytest.mark.parametrize("rows", [1, 300])
    def test_equals_reference_form_bit_for_bit(self, depth, n_out, rows):
        m = net_with_signed_zeros([6] + [20] * depth + [n_out], seed=40 + depth)
        X = np.random.default_rng(41 + rows).normal(size=(rows, 6))
        X[:, 0] = -0.0
        for output_index in range(n_out):
            got = input_gradients(m, X, output_index)
            want = reference_input_gradients(m, X, output_index)
            assert got.view(np.int64).tobytes() == want.view(np.int64).tobytes()

    @pytest.mark.parametrize("depth", [1, 3])
    def test_peak_memory_is_at_most_two_hidden_arrays_and_the_masks(self, depth):
        n, k, width = 20000, 8, 100
        m = init([k] + [width] * depth + [1], seed=42)
        X = np.random.default_rng(43).normal(size=(n, k))
        hidden = n * width * 8  # one n-by-width float64 array
        # one such array at depth 1 and two from depth 2 on (a layer's input
        # and output, forward or backward), the bool masks, the n-by-k result
        # and its last product, and 1 MiB for the small objects on the way
        bound = min(depth, 2) * hidden + depth * n * width + 2 * n * k * 8 + 2**20
        tracemalloc.start()
        try:
            input_gradients(m, X, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound, f"peak {peak / 2**20:.1f} MiB above {bound / 2**20:.1f} MiB"

    @pytest.mark.parametrize("dims", [[5, 3], [5, 12, 3], [5, 12, 10, 8, 3]])
    def test_equals_full_backprop_bit_for_bit(self, dims):
        m = net_with_biases(dims, seed=31)
        X = np.random.default_rng(32).normal(size=(40, 5))
        for output_index in range(3):
            assert np.array_equal(input_gradients(m, X, output_index),
                                  full_backprop_input_gradients(m, X, output_index))

    def test_output_index_checked(self):
        m = init([3, 4, 2], seed=33)
        for bad in (-1, 2):
            with pytest.raises(ValueError):
                input_gradients(m, np.zeros((2, 3)), bad)

    def test_depth0_rows_equal_weights(self):
        m = init([4, 1], seed=19)
        X = np.random.default_rng(20).normal(size=(6, 4))
        g = input_gradients(m, X, 0)
        np.testing.assert_allclose(g, np.broadcast_to(m.weights[0][:, 0], g.shape))

    def test_finite_difference_with_kink_filter(self):
        rng = np.random.default_rng(21)
        m = init([4, 10, 10, 1], seed=22)
        X = rng.normal(size=(30, 4))
        _, cache = forward(m, X)
        margins = np.minimum.reduce([np.abs(z).min(axis=1) for z in cache["preacts"]])
        safe = np.flatnonzero(margins > 1e-3)
        assert safe.size >= 5
        g = input_gradients(m, X, 0)
        h = 1e-4
        for r in safe[:8]:
            for c in range(4):
                up = X.copy(); up[r, c] += h
                down = X.copy(); down[r, c] -= h
                fd = (forward(m, up)[0][r, 0] - forward(m, down)[0][r, 0]) / (2 * h)
                scale = max(abs(fd), abs(g[r, c]), 1e-8)
                assert abs(fd - g[r, c]) / scale < 1e-4

    def test_last_layer_scaling(self):
        m = init([3, 8, 1], seed=23)
        X = np.random.default_rng(24).normal(size=(5, 3))
        g1 = input_gradients(m, X, 0)
        m.weights[-1] *= 2.5
        m.biases[-1] *= 2.5
        g2 = input_gradients(m, X, 0)
        np.testing.assert_allclose(g2, 2.5 * g1, atol=1e-12)


class TestTrain:
    def _splits(self, seed=25, n=120, noise=0.3):
        d = synth_correlated(n, 3, 0.3, (1.0, -1.0, 0.5), noise, seed=seed)
        ds, _ = standardize(d)
        return ds, ds

    def test_lambda_zero_identical_to_unaugmented(self, monkeypatch):
        # a lam=0 spec ablates nothing, so in either mode training neither
        # draws masks nor ablates the validation set, and matches
        # augment=None bit for bit
        calls = []

        def counted(name):
            original = getattr(nn_module, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)
            return wrapper

        for name in ("batch_masks", "ablated_copy"):
            monkeypatch.setattr(nn_module, name, counted(name))
        tr, va = self._splits()
        cfg_plain = TrainConfig(epochs=5, batch_size=32, seed=3)
        m_plain, log_plain = train(net_with_biases([3, 8, 8, 1], seed=4), tr, va, cfg_plain)
        for mode in ("mean", "iid"):
            cfg_aug = TrainConfig(epochs=5, batch_size=32, seed=3,
                                  augment=AugmentSpec(mode, 0.0, 1, seed=3))
            m_aug, log_aug = train(net_with_biases([3, 8, 8, 1], seed=4), tr, va, cfg_aug)
            for a, b in zip(m_plain.weights + m_plain.biases, m_aug.weights + m_aug.biases):
                np.testing.assert_array_equal(a, b)
            assert log_plain == log_aug
        assert calls == []
        cfg = TrainConfig(epochs=1, batch_size=32, seed=3, augment=AugmentSpec("iid", 0.3, 1, seed=3))
        train(init([3, 8, 1], seed=4), tr, va, cfg)
        assert calls == ["ablated_copy"] + ["batch_masks"] * 4

    @pytest.mark.parametrize("augment", [None, AugmentSpec("iid", 0.3, 1, seed=2)])
    def test_skipping_train_loss_changes_nothing_else(self, augment):
        tr, va = self._splits(seed=34, noise=1.0)
        cfg = TrainConfig(epochs=6, batch_size=16, seed=8, augment=augment)
        m_full, log_full = train(init([3, 8, 8, 1], seed=9), tr, va, cfg)
        m_skip, log_skip = train(init([3, 8, 8, 1], seed=9), tr, va, cfg, log_train_loss=False)
        for a, b in zip(m_full.weights + m_full.biases, m_skip.weights + m_skip.biases):
            assert np.array_equal(a, b)
        assert [e["val_loss"] for e in log_skip.epochs] == [e["val_loss"] for e in log_full.epochs]
        assert all(set(e) == {"epoch", "val_loss"} for e in log_skip.epochs)
        assert all(set(e) == {"epoch", "train_loss", "val_loss"} for e in log_full.epochs)
        assert (log_skip.best_epoch, log_skip.stopped_early) == (log_full.best_epoch,
                                                                 log_full.stopped_early)

    def test_depth0_regression_reaches_ols(self):
        d = synth_correlated(200, 3, 0.3, (1.0, -2.0, 3.0), 0.1, seed=26)
        ds, _ = standardize(d)
        target = fit_ols(ds)
        cfg = TrainConfig(learning_rate=0.01, epochs=400, batch_size=32,
                          early_stop_patience=400, seed=0)
        model, _ = train(init([3, 1], seed=0), ds, ds, cfg)
        np.testing.assert_allclose(model.weights[0].ravel(), target.beta, atol=1e-2)
        np.testing.assert_allclose(model.biases[0][0], target.intercept, atol=1e-2)

    def test_best_checkpoint_contract(self):
        tr, va = self._splits(seed=27, noise=1.0)
        cfg = TrainConfig(epochs=30, batch_size=16, seed=5)
        model, log = train(init([3, 16, 1], seed=6), tr, va, cfg)
        best_val = loss(forward(model, va.features)[0], va.response, "regression")
        assert best_val <= log.epochs[-1]["val_loss"] + 1e-12
        assert log.best_val_loss == min(e["val_loss"] for e in log.epochs)

    def test_early_stopping_triggers(self):
        from ablatereg.dataset import SplitSpec, split

        d = synth_correlated(160, 3, 0.3, (1.0, -1.0, 0.5), 2.0, seed=28)
        tr, va, _ = split(d, SplitSpec(0.2, 0.3, seed=1))
        tr, stats = standardize(tr)
        va, _ = standardize(va, stats)
        cfg = TrainConfig(epochs=200, batch_size=16, early_stop_patience=3, seed=7)
        _, log = train(init([3, 16, 1], seed=8), tr, va, cfg)
        assert log.stopped_early
        assert len(log.epochs) < 200

    def test_divergence_detected(self):
        tr, va = self._splits()
        bad = init([3, 8, 1], seed=9)
        bad.weights[0][:] = 1e200
        cfg = TrainConfig(epochs=2, batch_size=16, seed=10)
        with pytest.raises(TrainingDivergedError):
            train(bad, tr, va, cfg)


    def test_hidden_overflow_zeroed_by_the_relu_is_an_error(self):
        # every row's first hidden pre-activation overflows to -inf, which the
        # ReLU would turn into a finite loss
        tr, va = self._splits()
        positive = regression_dataset(np.abs(tr.features) + 1.0, tr.response)
        m = init([3, 8, 1], seed=9)
        m.weights[0][:, 0] = -1e308
        cfg = TrainConfig(epochs=2, batch_size=16, seed=10)
        with pytest.raises(TrainingDivergedError) as err:
            train(m, positive, positive, cfg)
        assert str(err.value) == "diverged at epoch 0, step 0: overflow encountered in matmul"

    def test_non_finite_validation_loss_detected_without_train_loss(self):
        tr, va = self._splits()
        va = regression_dataset(va.features * 1e300, va.response)
        cfg = TrainConfig(epochs=2, batch_size=16, seed=10)
        with pytest.raises(TrainingDivergedError) as err:
            train(init([3, 8, 1], seed=9), tr, va, cfg, log_train_loss=False)
        assert str(err.value) == "diverged at epoch 0, step 8: overflow encountered in square"


class TestDivergenceRule:
    """Every way training overflows reads one way:
    ``diverged at epoch E, step S: <numpy's message>``."""

    @staticmethod
    def _data(scale=1.0):
        d, _ = standardize(synth_correlated(120, 3, 0.3, (1.0, -1.0, 0.5), 0.3, seed=25))
        return regression_dataset(d.features * scale, d.response)

    @staticmethod
    def _train_error(model, d_train, d_val, **cfg):
        with pytest.raises(TrainingDivergedError) as err:
            train(model, d_train, d_val, TrainConfig(epochs=2, batch_size=16, seed=10, **cfg),
                  log_train_loss=False)
        return str(err.value)

    def _loss_overflow_at_depth_0(self):
        d = self._data()
        return self._train_error(init([3, 1], seed=9), d, d, learning_rate=1e200)

    def _hidden_matmul(self):
        # the first hidden pre-activation overflows to -inf, which the ReLU
        # would turn into a finite loss
        d = self._data()
        positive = regression_dataset(np.abs(d.features) + 1.0, d.response)
        m = init([3, 8, 1], seed=9)
        m.weights[0][:, 0] = -1e308
        return self._train_error(m, positive, positive)

    def _adam_update(self):
        # the gradient is finite, but its square in Adam's second moment is
        # not: unchecked, the moment turns inf and the weights stop moving
        d = self._data(scale=1e100)
        return self._train_error(init([3, 1], seed=9), d, d)

    def _epoch_pass(self):
        d = self._data()
        return self._train_error(init([3, 8, 1], seed=9), d, self._data(scale=1e300))

    def _sweep_cell(self):
        from ablatereg.harness import lambda_sweep

        d = synth_correlated(120, 3, 0.3, (1.0, -1.0, 0.5), 0.3, seed=25)
        cfg = TrainConfig(learning_rate=1e300, epochs=2, batch_size=16)
        sweep = lambda_sweep(d, [1], "mean", (0.0, 0.5), seeds=(0,), cfg=cfg,
                             hidden_width=8, attribution_steps=5)
        (error,) = {cell.error for cell in sweep.cells}
        return error

    CASES = {
        "loss_overflow_at_depth_0": "diverged at epoch 0, step 1: overflow encountered in square",
        "hidden_matmul": "diverged at epoch 0, step 0: overflow encountered in matmul",
        "adam_update": "diverged at epoch 0, step 0: overflow encountered in square",
        "epoch_pass": "diverged at epoch 0, step 8: overflow encountered in square",
        "sweep_cell": "diverged at epoch 0, step 1: overflow encountered in matmul",
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_one_message_form(self, case):
        assert getattr(self, f"_{case}")() == self.CASES[case]


def out_of_place_adam(param, m, v, grad, lr, b1, b2, eps, corr1, corr2):
    """The Adam update as written with temporaries; returns new arrays."""
    m = b1 * m + (1 - b1) * grad
    v = b2 * v + (1 - b2) * grad ** 2
    return param - lr * (m / corr1) / (np.sqrt(v / corr2) + eps), m, v


def test_in_place_adam_equals_out_of_place_bit_for_bit():
    rng = np.random.default_rng(35)
    lr, b1, b2, eps = 1e-3, 0.9, 0.999, 1e-8
    # parameters on the scale of one step, so every bit of the step shows
    start = rng.normal(scale=lr, size=(6, 4))
    param, m, v = start.copy(), np.zeros_like(start), np.zeros_like(start)
    t, s = np.empty_like(start), np.empty_like(start)
    ref = (start.copy(), np.zeros_like(start), np.zeros_like(start))
    for step in range(1, 6):
        grad = rng.normal(scale=10.0 ** rng.integers(-6, 3), size=start.shape)
        corr1, corr2 = 1.0 - b1**step, 1.0 - b2**step
        _adam_update(param, m, v, t, s, grad, lr, b1, b2, eps, corr1, corr2)
        ref = out_of_place_adam(*ref, grad, lr, b1, b2, eps, corr1, corr2)
        for got, want in zip((param, m, v), ref):
            assert np.array_equal(got, want)


class TestEvaluate:
    def test_perfect_regression(self):
        m = linear_as_mlp(np.array([2.0]), 1.0)
        X = np.linspace(0, 1, 10)[:, None]
        d = regression_dataset(X, 2.0 * X.ravel() + 1.0)
        assert evaluate(m, d) == {"mse": 0.0}

    def test_majority_classifier(self):
        weights = [np.zeros((2, 2))]
        biases = [np.array([1.0, 0.0])]  # always predicts class 0
        from ablatereg.nn import MlpModel
        m = MlpModel(weights=weights, biases=biases, task="classification")
        d = Dataset(features=np.zeros((10, 2)), response=np.array([0.0] * 7 + [1.0] * 3),
                    column_names=("a", "b"), column_kinds=("numeric", "numeric"),
                    task="classification")
        assert evaluate(m, d) == {"accuracy": 0.7}

    def test_deterministic(self):
        m = init([2, 4, 1], seed=11)
        d = regression_dataset(np.random.default_rng(29).normal(size=(8, 2)),
                               np.random.default_rng(30).normal(size=8))
        assert evaluate(m, d) == evaluate(m, d)
