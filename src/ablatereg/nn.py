"""Feed-forward ReLU networks in plain numpy: one affine -> ReLU pass that
serves prediction and exact backprop for parameters and inputs, Adam,
MSE/softmax cross-entropy, early stopping, and minibatch training with
optional fresh-mask ablation per step.

A run's one seed (:class:`TrainConfig`) drives its shuffle and its batch and
validation masks, and the optimizer state is single-threaded, so a fixed
seed reproduces training bit-for-bit on one platform.  Training diverges by
one rule: an overflow or invalid value raises where it is made.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field

import numpy as np

from . import _streams
from .augment import AugmentSpec, ablated_copy, batch_masks, check_lambda, check_mode
from .dataset import CLASSIFICATION, REGRESSION, Dataset, DatasetError


# Adam's moment decay rates and denominator guard (Kingma & Ba, 2015).
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class TrainingDivergedError(RuntimeError):
    """Training overflowed, or :func:`param_gradients` met a non-finite loss."""


@dataclass
class MlpModel:
    """An affine -> ReLU stack with a final affine layer (logits or raw
    regression output).  Depth 0 means a single affine map."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    task: str

    def __post_init__(self):
        if len(self.weights) != len(self.biases):
            raise ValueError("need one bias vector per weight matrix")
        if not self.weights:
            raise ValueError("model needs at least one layer")
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.ndim != 2 or b.ndim != 1 or w.shape[1] != b.shape[0]:
                raise ValueError(f"layer {i}: weight/bias shapes are inconsistent")
            if i > 0 and self.weights[i - 1].shape[1] != w.shape[0]:
                raise ValueError(f"layer {i}: input dim does not match previous layer")
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise ValueError(f"layer {i}: non-finite parameters")
        if self.task not in (REGRESSION, CLASSIFICATION):
            raise ValueError(f"unknown task {self.task!r}")

    @property
    def layer_dims(self) -> tuple[int, ...]:
        return (self.weights[0].shape[0],) + tuple(w.shape[1] for w in self.weights)

    @property
    def depth(self) -> int:
        """Number of hidden layers."""
        return len(self.weights) - 1


@dataclass(frozen=True)
class TrainConfig:
    """One training run: ``mode`` (None or one of augment's MODES) ablates each
    batch at rate ``lam``, lam = 0 training without ablation, and ``seed`` is
    the run's one seed.  An unknown mode, even at lam = 0, a lam outside
    [0, 1) and a lam > 0 without a mode raise AugmentSpec's AugmentError."""

    learning_rate: float = 1e-3
    epochs: int = 200
    batch_size: int = 256
    early_stop_patience: int = 3
    mode: str | None = None
    lam: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be positive")
        if self.early_stop_patience < 1:
            raise ValueError("early_stop_patience must be >= 1")
        if self.mode is not None or self.lam > 0:
            check_mode(self.mode)
        check_lambda(self.lam)


@dataclass
class TrainLog:
    """Per-epoch loss records, the one record of the best epoch and its
    validation loss, and whether patience ran out."""

    epochs: list[dict] = field(default_factory=list)
    best_epoch: int = -1
    best_val_loss: float = float("inf")
    stopped_early: bool = False


def init(layer_dims, seed: int, task: str = REGRESSION) -> MlpModel:
    """He-scaled random weights (suited to ReLU stacks) and zero biases."""
    dims = [int(v) for v in layer_dims]
    if len(dims) < 2 or any(v < 1 for v in dims):
        raise ValueError(f"layer_dims needs >= 2 positive entries, got {layer_dims}")
    rng = _streams.stream(seed, _streams.INIT)
    weights = []
    biases = []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        weights.append(rng.standard_normal((fan_in, fan_out)) * np.sqrt(2.0 / fan_in))
        biases.append(np.zeros(fan_out))
    return MlpModel(weights=weights, biases=biases, task=task)


def as_rows(m: MlpModel, X) -> np.ndarray:
    """``X`` as a float64 matrix of rows, checked against the input width."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 1:
        X = X[None, :]
    if X.shape[1] != m.weights[0].shape[0]:
        raise ValueError(f"X has {X.shape[1]} columns, model expects {m.weights[0].shape[0]}")
    return X


def _hidden(m: MlpModel, act: np.ndarray, masks: list | None = None,
            inputs: list | None = None) -> np.ndarray:
    """The last hidden layer's activations for the rows ``act``: the one
    affine -> ReLU pass.  Each layer's activations overwrite its
    pre-activations, so no float pre-activation outlives its layer.  When
    lists are given, each hidden layer's ReLU mask (pre-activation > 0) is
    appended to ``masks`` and its input to ``inputs``."""
    for w, b in zip(m.weights[:-1], m.biases[:-1]):
        if inputs is not None:
            inputs.append(act)
        z = act @ w
        z += b
        if masks is not None:
            masks.append(z > 0)
        act = np.maximum(z, 0.0, out=z)
    return act


def predict(m: MlpModel, X) -> np.ndarray:
    """The network's outputs for the rows ``X`` (one row may be a vector)."""
    outputs = _hidden(m, as_rows(m, X)) @ m.weights[-1]
    outputs += m.biases[-1]
    return outputs


def loss(outputs, targets, task: str) -> float:
    """Mean squared error for regression; mean softmax cross-entropy over
    logits for classification (targets are integer class indices)."""
    outputs = np.asarray(outputs, dtype=np.float64)
    if task == REGRESSION:
        resid = outputs.ravel() - np.asarray(targets, dtype=np.float64).ravel()
        return float(np.mean(resid**2))
    if task == CLASSIFICATION:
        t = np.asarray(targets)
        t_int = t.astype(np.int64)
        if np.any(t_int != t) or t_int.min() < 0 or t_int.max() >= outputs.shape[1]:
            raise ValueError("classification targets must be valid class indices")
        shift = outputs - outputs.max(axis=1, keepdims=True)
        lse = np.log(np.exp(shift).sum(axis=1)) + outputs.max(axis=1)
        return float(np.mean(lse - outputs[np.arange(outputs.shape[0]), t_int]))
    raise ValueError(f"unknown task {task!r}")


def _loss_output_grad(outputs: np.ndarray, targets, task: str) -> np.ndarray:
    n = outputs.shape[0]
    if task == REGRESSION:
        y = np.asarray(targets, dtype=np.float64).reshape(outputs.shape)
        return 2.0 * (outputs - y) / n
    t = np.asarray(targets).astype(np.int64)
    shift = np.exp(outputs - outputs.max(axis=1, keepdims=True))
    probs = shift / shift.sum(axis=1, keepdims=True)
    probs[np.arange(n), t] -= 1.0
    return probs / n


def param_gradients(m: MlpModel, X, targets, task: str):
    """Exact gradients of the mean loss w.r.t. every weight and bias.

    The forward pass keeps each layer's input and each hidden layer's ReLU
    mask; the backward pass masks ``g = g @ W.T`` in place, which gives the
    bits of ``(g @ W.T) * mask``."""
    inputs, masks = [], []
    inputs.append(_hidden(m, as_rows(m, X), masks, inputs))  # the output layer's input
    outputs = inputs[-1] @ m.weights[-1]
    outputs += m.biases[-1]
    value = loss(outputs, targets, task)
    if not np.isfinite(value):
        raise TrainingDivergedError(f"non-finite loss {value}")
    grads_w = [None] * len(m.weights)
    grads_b = [None] * len(m.biases)
    g = _loss_output_grad(outputs, targets, task)
    for layer in range(len(m.weights) - 1, -1, -1):
        grads_w[layer] = inputs.pop().T @ g
        grads_b[layer] = g.sum(axis=0)
        if layer > 0:
            g = g @ m.weights[layer].T
            g *= masks.pop()
    return grads_w, grads_b


def input_gradients(m: MlpModel, X, output_index: int = 0) -> np.ndarray:
    """Row-wise gradient of the selected output component w.r.t. the input.

    The forward pass keeps only the hidden layers' ReLU masks, and the
    backward pass carries the gradient alone.  It starts from the output's
    weight row: the bits of a one-hot seed times ``W.T``, whose sum starts
    at +0.0 and so turns a -0.0 weight into +0.0, as ``+ 0.0`` does.  Each
    hidden layer's ``g = g @ W.T`` is masked in place, which gives the bits
    of ``(g @ W.T) * mask`` with at most two n-by-width float arrays and the
    masks alive at once.  At depth 0 every row is the output's weight row.
    """
    X = as_rows(m, X)
    if not 0 <= output_index < m.weights[-1].shape[1]:
        raise ValueError(f"output_index {output_index} out of range")
    masks = []
    _hidden(m, X, masks)
    row = m.weights[-1][:, output_index] + 0.0
    if not masks:
        return np.tile(row, (X.shape[0], 1))
    g = masks.pop() * row
    for w in m.weights[-2:0:-1]:
        g = g @ w.T
        g *= masks.pop()
    return g @ m.weights[0].T


def _adam_update(param, m, v, t, s, grad, lr, b1, b2, eps, corr1, corr2) -> None:
    """One Adam step on ``param`` in place; ``t`` and ``s`` are scratch of
    its shape.  The operations and their order are those of
    ``m = b1*m + (1-b1)*g; v = b2*v + (1-b2)*g**2;
    param -= lr*(m/corr1) / (sqrt(v/corr2) + eps)``, so the results are
    bit-identical to that form."""
    m *= b1
    np.multiply(grad, 1 - b1, out=t)
    m += t
    v *= b2
    np.square(grad, out=t)
    t *= 1 - b2
    v += t
    np.divide(m, corr1, out=t)
    t *= lr
    np.divide(v, corr2, out=s)
    np.sqrt(s, out=s)
    s += eps
    t /= s
    param -= t


@contextlib.contextmanager
def float_errors_as(make_error):
    """Run the block with floating-point overflow and invalid values raising,
    and re-raise such an error as ``make_error(numpy's message)``."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except FloatingPointError as err:
        raise make_error(str(err)) from None


def _diverged_at(epoch: int, step: int):
    """Training's divergence rule around a step (gradients and Adam's update)
    or an epoch's loss passes: every number is checked as it is made, so a
    hidden layer's overflow counts even where the ReLU would zero it."""
    return float_errors_as(
        lambda message: TrainingDivergedError(f"diverged at epoch {epoch}, step {step}: {message}"))


def train(model: MlpModel, d_train: Dataset, d_val: Dataset, cfg: TrainConfig, *,
          log_train_loss: bool = True):
    """Minibatch Adam with seeded shuffling, optional per-step ablation of
    each batch, and early stopping on validation loss (patience in epochs,
    strict-decrease improvement).  Returns (the model at the best epoch, log).

    Each epoch record holds the validation loss and, unless
    ``log_train_loss`` is false, the loss on the whole training split, which
    costs one more pass over it.  The best epoch (in the log) depends on the
    validation loss alone; its parameters are kept as array copies.  Any
    overflow raises ``TrainingDivergedError("diverged at epoch E, step S:
    <numpy's message>")``, S counting the steps before the failing one.

    With ``cfg.lam`` > 0 the one spec ``AugmentSpec(cfg.mode, cfg.lam, 1,
    cfg.seed)`` ablates each batch with masks from its MASK stream keyed by
    the global step, and a replicated validation set once with masks from its
    VALMASK stream (:func:`ablated_copy`), so best-epoch selection tracks the
    augmented risk that training minimizes.  lam = 0 draws no mask.
    """
    if d_train.n == 0 or d_val.n == 0:
        raise DatasetError(f"train and validation splits must be non-empty, got "
                           f"{d_train.n} and {d_val.n} rows")
    X_tr, y_tr = d_train.features, d_train.response
    task = model.task
    train_means = X_tr.mean(axis=0)  # frozen for mean ablation
    augment = AugmentSpec(cfg.mode, cfg.lam, 1, cfg.seed) if cfg.lam > 0 else None
    if augment is not None:
        d_val = ablated_copy(d_val, augment, means=train_means)
    X_val, y_val = d_val.features, d_val.response

    weights = [w.copy() for w in model.weights]
    biases = [b.copy() for b in model.biases]
    params = weights + biases
    work = MlpModel(weights=weights, biases=biases, task=task)
    # per parameter: first and second moments, then two scratch buffers
    adam = [(p, np.zeros_like(p), np.zeros_like(p), np.empty_like(p), np.empty_like(p))
            for p in params]

    rng = _streams.stream(cfg.seed, _streams.SHUFFLE)
    log = TrainLog()
    best_params = None  # copies of the parameters at log.best_epoch
    since_best = 0
    step = 0

    for epoch in range(cfg.epochs):
        perm = rng.permutation(d_train.n)
        for start in range(0, d_train.n, cfg.batch_size):
            idx = perm[start : start + cfg.batch_size]
            xb = X_tr[idx]
            if augment is not None:
                xb = batch_masks(xb, augment, step=step, means=train_means)
            with _diverged_at(epoch, step):
                grads_w, grads_b = param_gradients(work, xb, y_tr[idx], task)
                corr1 = 1.0 - ADAM_BETA1 ** (step + 1)
                corr2 = 1.0 - ADAM_BETA2 ** (step + 1)
                for slot, grad in zip(adam, grads_w + grads_b):
                    _adam_update(*slot, grad, cfg.learning_rate, ADAM_BETA1, ADAM_BETA2,
                                 ADAM_EPS, corr1, corr2)
            step += 1

        with _diverged_at(epoch, step):
            losses = {"val_loss": loss(predict(work, X_val), y_val, task)}
            if log_train_loss:
                losses["train_loss"] = loss(predict(work, X_tr), y_tr, task)
        log.epochs.append({"epoch": epoch, **losses})

        if losses["val_loss"] < log.best_val_loss:
            log.best_epoch, log.best_val_loss = epoch, losses["val_loss"]
            best_params = [p.copy() for p in params]
            since_best = 0
        else:
            since_best += 1
            if since_best >= cfg.early_stop_patience:
                log.stopped_early = True
                break

    n = len(weights)
    return MlpModel(weights=best_params[:n], biases=best_params[n:], task=task), log


def evaluate(m: MlpModel, d_test: Dataset) -> dict:
    """Held-out metrics: MSE for regression, accuracy for classification."""
    outputs = predict(m, d_test.features)
    if m.task == REGRESSION:
        return {"mse": loss(outputs, d_test.response, REGRESSION)}
    predicted = outputs.argmax(axis=1)
    return {"accuracy": float(np.mean(predicted == d_test.response.astype(np.int64)))}


def linear_as_mlp(beta, intercept: float, task: str = REGRESSION) -> MlpModel:
    """Wrap a linear model as a depth-0 network so the attribution and
    penalty machinery can treat both uniformly."""
    beta = np.asarray(beta, dtype=np.float64).ravel()
    return MlpModel(weights=[beta[:, None].copy()], biases=[np.array([float(intercept)])], task=task)
