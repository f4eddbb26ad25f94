import json
import math
import os
import struct
import threading
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ablatereg import _streams, augment, harness
from ablatereg.augment import BLOCK_ROWS, AugmentError, AugmentSpec, augmented_chunks, build_augmented
from ablatereg.attribution import AttributionConfig, as_contributions, integrated_gradients
from ablatereg.dataset import SplitSpec, split, standardize, synth_correlated
from ablatereg.harness import (
    ReportError,
    SweepCell,
    SweepResult,
    check_moment_limits,
    converge_theorem1,
    converge_theorem2,
    cross_trend_check,
    emit_report,
    lambda_sweep,
    penalty_trend,
    render_report,
    sweep_from_payload,
    write_text,
    _csv_lines,
    _spearman,
    _matrix_lines,
    _moment_limits,
    _streamed_moments,
)
from ablatereg.linear import _solve_system, fit_ccp, fit_ols
from ablatereg.nn import TrainConfig, init, train
from ablatereg.penalty import ccp_pairwise, ccp_variance_form, contributions_linear


@pytest.fixture(scope="module")
def small_data():
    return synth_correlated(120, 3, 0.6, (1.0, -2.0, 1.5), 1.0, seed=50)


class TestConvergence:
    def test_lambda_zero_target_is_ols(self, small_data):
        run = converge_theorem1(small_data, 0.0, (500, 2000), seeds=(0, 1))
        np.testing.assert_allclose(run.target_beta, fit_ols(small_data).beta, atol=1e-12)

    def test_distances_shrink_with_n(self, small_data):
        run = converge_theorem1(small_data, 0.4, (1000, 100_000), seeds=(0, 1, 2))
        med = run.median_l2()
        assert med[1] < med[0]

    def test_theorem2_distances_shrink(self, small_data):
        run = converge_theorem2(small_data, 0.4, (1000, 100_000), seeds=(0, 1, 2))
        med = run.median_l2()
        assert med[1] < med[0]

    def test_deterministic(self, small_data):
        a = converge_theorem1(small_data, 0.3, (500, 5000), seeds=(0, 1))
        b = converge_theorem1(small_data, 0.3, (500, 5000), seeds=(0, 1))
        np.testing.assert_array_equal(a.dist_l2, b.dist_l2)
        np.testing.assert_array_equal(a.gram_resid, b.gram_resid)

    def test_schedule_must_increase(self, small_data):
        with pytest.raises(ValueError):
            converge_theorem1(small_data, 0.3, (1000, 1000), seeds=(0,))

    def test_check_flags_large_distance(self, small_data):
        run = converge_theorem1(small_data, 0.5, (200, 500), seeds=(0, 1))
        ok, problems = run.check(linf_tolerance=1e-9)
        assert not ok and problems


class TestMomentLimits:
    @pytest.mark.parametrize("mode", ["mean", "iid"])
    def test_within_three_sigma(self, small_data, mode):
        check = check_moment_limits(small_data, mode, 0.3, 200_000, seed=4)
        assert check.ok, f"worst sigma {check.worst_sigma:.2f}"

    def test_detects_wrong_limit(self, small_data):
        # sanity: the sigma scale is meaningful, a corrupted lambda fails
        from ablatereg import harness as h

        spec = AugmentSpec("mean", 0.5, 200_000, seed=5)
        gram_limit, _ = h._moment_limits(small_data, "mean", 0.1)  # wrong lambda
        _, moments = h._streamed_moments(small_data, spec)
        emp_gram = moments[:-1, :-1]
        assert np.abs(emp_gram - gram_limit).max() > 0.01

    @pytest.mark.parametrize("mode", ["mean", "iid"])
    def test_sigmas_match_elementwise_reference(self, small_data, mode):
        # reference: the per-entry loop over the materialized synthetic set
        check = check_moment_limits(small_data, mode, 0.3, 150_000, seed=6)
        aug = build_augmented(small_data, AugmentSpec(mode, 0.3, 150_000, seed=6))
        gram_limit, cross_limit = _moment_limits(small_data, mode, 0.3)
        Xc = aug.features - aug.features.mean(axis=0)
        yc = aug.response - aug.response.mean()
        k = aug.k

        def sigma(products, limit):
            return abs(products.mean() - limit) / (products.std() / np.sqrt(aug.n))

        gram_ref = np.array([[sigma(Xc[:, a] * Xc[:, b], gram_limit[a, b]) for b in range(k)]
                             for a in range(k)])
        cross_ref = np.array([sigma(Xc[:, a] * yc, cross_limit[a]) for a in range(k)])
        np.testing.assert_allclose(check.gram_sigmas, gram_ref, rtol=1e-9, atol=1e-9)
        np.testing.assert_allclose(check.cross_sigmas, cross_ref, rtol=1e-9, atol=1e-9)


class TestStreamedMoments:
    N = 3 * BLOCK_ROWS + 17

    @pytest.mark.parametrize("mode", ["mean", "iid"])
    def test_streamed_beta_matches_materialized_ols(self, small_data, mode):
        spec = AugmentSpec(mode, 0.4, self.N, seed=7)
        _, moments = _streamed_moments(small_data, spec)
        beta = _solve_system(moments[:-1, :-1], moments[:-1, -1], small_data.column_names, "t")
        reference = fit_ols(build_augmented(small_data, spec)).beta
        np.testing.assert_allclose(beta, reference, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("mode", ["mean", "iid"])
    def test_stable_under_large_feature_means(self, small_data, mode):
        shifted = replace(small_data, features=small_data.features + 1e6)
        spec = AugmentSpec(mode, 0.4, self.N, seed=8)
        _, moments = _streamed_moments(shifted, spec)
        aug = build_augmented(shifted, spec)
        Xc = aug.features - aug.features.mean(axis=0)  # two-pass reference
        reference = Xc.T @ Xc / aug.n
        gram = moments[:-1, :-1]
        assert np.abs(gram - reference).max() <= 1e-9 * np.abs(reference).max()


def serial_block(features, response):
    z = np.empty((response.shape[0], features.shape[1] + 1), order="F")
    z[:, :-1] = features
    z[:, -1] = response
    return z


def serial_moments(d, spec):
    """Reference for the block pipeline: one thread walks augmented_chunks and
    merges each block's centered moments with the Chan update."""
    n = 0
    for features, response in augmented_chunks(d, spec):
        z = serial_block(features, response)
        rows = z.shape[0]
        block_mean = z.mean(axis=0)
        zc = z - block_mean
        block_cross = zc.T @ zc
        if n == 0:
            mean, cross = block_mean, block_cross
        else:
            delta = block_mean - mean
            total = n + rows
            mean = mean + delta * (rows / total)
            cross += block_cross + np.outer(delta, delta) * (n * rows / total)
        n += rows
    return mean, cross / n


def serial_moment_sigmas(d, mode, lam, n_synthetic, seed):
    """Reference for check_moment_limits: both passes serial, the second with
    the whole-block product array."""
    spec = AugmentSpec(mode, lam, n_synthetic, seed)
    gram_limit, cross_limit = _moment_limits(d, mode, lam)
    k = d.k
    mean, moments = serial_moments(d, spec)
    rows, cols = (idx[:-1] for idx in np.triu_indices(k + 1))
    observed = moments[rows, cols]
    sq_dev = np.zeros(rows.size)
    for features, response in augmented_chunks(d, spec):
        zc = serial_block(features, response) - mean
        sq_dev += ((zc[:, rows] * zc[:, cols] - observed) ** 2).sum(axis=0)
    se = np.sqrt(sq_dev / n_synthetic) / math.sqrt(n_synthetic)
    limits = np.zeros((k + 1, k + 1))
    limits[:k, :k] = gram_limit
    limits[:k, k] = cross_limit
    err = np.abs(observed - limits[rows, cols])
    sigmas = np.zeros((k + 1, k + 1))
    sigmas[rows, cols] = sigmas[cols, rows] = np.divide(
        err, se, out=np.zeros_like(err), where=se > 0)
    return sigmas[:k, :k], sigmas[:k, k]


class TestBlockPipelineBytes:
    """The threaded draw/reduce/merge pipeline gives the serial loop's bytes."""

    @pytest.mark.parametrize("shift", [0.0, 1e6])
    @pytest.mark.parametrize("n_synthetic", [1000, BLOCK_ROWS, 3 * BLOCK_ROWS + 17])
    @pytest.mark.parametrize("mode", ["mean", "iid"])
    def test_moments(self, small_data, mode, n_synthetic, shift):
        d = replace(small_data, features=small_data.features + shift)
        spec = AugmentSpec(mode, 0.4, n_synthetic, seed=9)
        mean, cross = _streamed_moments(d, spec)
        ref_mean, ref_cross = serial_moments(d, spec)
        assert np.array_equal(mean, ref_mean) and np.array_equal(cross, ref_cross)

    @pytest.mark.parametrize("shift", [0.0, 1e6])
    @pytest.mark.parametrize("mode", ["mean", "iid"])
    def test_moment_check_sigmas(self, small_data, mode, shift):
        d = replace(small_data, features=small_data.features + shift)
        check = check_moment_limits(d, mode, 0.3, 3 * BLOCK_ROWS + 17, seed=6)
        gram, cross = serial_moment_sigmas(d, mode, 0.3, 3 * BLOCK_ROWS + 17, seed=6)
        assert np.array_equal(check.gram_sigmas, gram)
        assert np.array_equal(check.cross_sigmas, cross)

    @pytest.mark.parametrize("theorem", [1, 2])
    def test_converge_reports(self, small_data, theorem, monkeypatch):
        converge = converge_theorem1 if theorem == 1 else converge_theorem2
        schedule = (1000, BLOCK_ROWS, 3 * BLOCK_ROWS + 17)
        run = converge(small_data, 0.5, schedule, seeds=(0, 1))
        monkeypatch.setattr(harness, "_streamed_moments", serial_moments)
        reference = converge(small_data, 0.5, schedule, seeds=(0, 1))
        for fmt in ("csv", "json"):
            assert render_report(run, fmt) == render_report(reference, fmt)


class RecordingGenerator:
    """A generator whose every method call records the calling thread."""

    def __init__(self, generator, threads):
        self._generator = generator
        self._threads = threads

    def __getattr__(self, name):
        method = getattr(self._generator, name)

        def call(*args, **kwargs):
            self._threads.append(threading.get_ident())
            return method(*args, **kwargs)

        return call


class TestBlockPipelineThreads:
    def test_draws_happen_on_the_calling_thread(self, small_data, monkeypatch):
        threads = []
        stream = _streams.stream

        def recording_stream(*key):
            threads.append(threading.get_ident())
            return RecordingGenerator(stream(*key), threads)

        monkeypatch.setattr(_streams, "stream", recording_stream)
        before = threading.active_count()
        converge_theorem1(small_data, 0.5, (1000, 3 * BLOCK_ROWS + 17), seeds=(0,))
        check_moment_limits(small_data, "iid", 0.5, 3 * BLOCK_ROWS + 17, seed=1)
        assert threading.active_count() == before
        # 3 generators per check, 2 per converge cell, and one call per block and stream
        assert len(threads) > 2 * 2 + 3 + 2 * 4 * 3
        assert set(threads) == {threading.get_ident()}

    def test_error_in_a_block_surfaces_with_its_type(self, small_data, monkeypatch):
        ablate = augment.ablate

        def ablate_with_bad_means(X, mask, spec, means=None, out=None):
            return ablate(X, mask, spec, means[:-1], out=out)

        monkeypatch.setattr(augment, "ablate", ablate_with_bad_means)
        before = threading.active_count()
        with pytest.raises(AugmentError, match="one entry per feature"):
            converge_theorem1(small_data, 0.5, (1000, 3 * BLOCK_ROWS + 17), seeds=(0,))
        assert threading.active_count() == before

    def test_error_in_a_later_block_surfaces_after_the_earlier_results(self, small_data):
        def reduce(z, scratch):
            if z.shape[0] == 5:
                raise FloatingPointError("last block")
            return z.shape[0]

        before = threading.active_count()
        spec = AugmentSpec("mean", 0.5, 2 * BLOCK_ROWS + 5, seed=0)
        results = []
        with pytest.raises(FloatingPointError, match="last block"):
            for rows in augment.reduced_blocks(small_data, spec, reduce):
                results.append(rows)
        assert results == [BLOCK_ROWS, BLOCK_ROWS]
        assert threading.active_count() == before


class TestLambdaSweep:
    def test_depth0_closed_form_trend(self, small_data):
        grid = (0.0, 0.4, 0.8)
        sweep = lambda_sweep(small_data, [0], "mean", grid, seeds=(0, 1),
                             dataset_id="unit")
        assert len(sweep.cells) == len(grid) * 2
        assert all(c.error is None for c in sweep.cells)

    def test_depth0_sgd_matches_closed_form_ccp(self):
        # the spec's 5%-relative oracle example, on a reduced instance: the
        # sweep's closed-form depth-0 cell against the same cell trained by
        # mean-ablation SGD (split, seeds and scoring as in lambda_sweep)
        d = synth_correlated(600, 3, 0.7, (1.0, 1.2, 0.8), 0.5, seed=51)
        lam = 0.3
        cfg = TrainConfig(learning_rate=0.01, epochs=200, batch_size=64,
                          early_stop_patience=200)
        d_train, d_val, d_test = split(d, SplitSpec(seed=0))
        d_train, stats = standardize(d_train)
        d_val, _ = standardize(d_val, stats)
        d_test, _ = standardize(d_test, stats)
        cell_seed = _streams.child_seed(0, 0, 0)
        run_cfg = replace(cfg, seed=cell_seed, augment=AugmentSpec("mean", lam, 1, cell_seed))
        sgd, _ = train(init([d.k, 1], seed=cell_seed), d_train, d_val, run_cfg)
        attr = integrated_gradients(sgd, d_test.features, AttributionConfig(steps=50))
        a = ccp_variance_form(as_contributions(attr))
        closed = lambda_sweep(d, [0], "mean", [lam], seeds=(0,),
                              attribution_steps=50)
        b = closed.mean_over_seeds("ccp", 0, lam)
        assert abs(a - b) <= 0.05 * abs(b)

    def test_classification_emits_per_class_rows(self):
        rng = np.random.default_rng(52)
        from ablatereg.dataset import Dataset

        X = rng.normal(size=(80, 3))
        y = (X[:, 0] + 0.5 * X[:, 1] > 0).astype(np.float64)
        d = Dataset(features=X, response=y, column_names=("a", "b", "c"),
                    column_kinds=("numeric",) * 3, task="classification")
        cfg = TrainConfig(epochs=3, batch_size=32)
        sweep = lambda_sweep(d, [0], "iid", [0.0, 0.3], seeds=(0,), cfg=cfg,
                             hidden_width=8, attribution_steps=10)
        assert sweep.output_indices() == (0, 1)
        assert len(sweep.cells) == 2 * 2  # 2 lambdas x 2 classes

    def test_rejects_bad_grid(self, small_data):
        with pytest.raises(ValueError):
            lambda_sweep(small_data, [0], "mean", [0.0, 1.0], seeds=(0,))

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_diverging_cell_is_recorded(self, small_data):
        # Adam moves each weight by about the learning rate on the first step,
        # so the second step's forward pass overflows.  The sweep skips the
        # train-loss pass; the per-batch loss check still catches it.
        cfg = TrainConfig(learning_rate=1e300, epochs=2, batch_size=16)
        sweep = lambda_sweep(small_data, [1], "mean", (0.0, 0.5), seeds=(0,), cfg=cfg,
                             hidden_width=8, attribution_steps=5)
        assert len(sweep.cells) == 2
        for cell in sweep.cells:
            assert cell.error.startswith("diverged at epoch 0, step 1: non-finite loss")
            assert math.isnan(cell.metric) and math.isnan(cell.ccp) and math.isnan(cell.ml2p)


class TestTrends:
    def _toy_sweep(self, mode, ccp_values, ml2p_values):
        grid = tuple(np.linspace(0, 0.9, len(ccp_values)))
        sweep = SweepResult(dataset_id="toy", task="regression", mode=mode,
                            depths=(0,), lambda_grid=grid, seeds=(0,), hidden_width=4)
        for lam, c, m in zip(grid, ccp_values, ml2p_values):
            sweep.cells.append(SweepCell(depth=0, lam=lam, seed=0, output_index=0,
                                         metric=1.0, ccp=c, ml2p=m))
        return sweep

    def test_monotone_descending_gives_minus_one(self):
        sweep = self._toy_sweep("mean", [5.0, 4.0, 2.0, -1.0], [1, 2, 3, 4])
        trend = penalty_trend(sweep, "ccp")
        assert trend["per_depth"][0].spearman == -1.0

    def test_cross_check_directions(self):
        mada = self._toy_sweep("mean", [5, 3, 1, -2], [1, 2, 3, 4])
        iid = self._toy_sweep("iid", [-8, -4, -2, -1], [4, 3, 2, 1])
        report = cross_trend_check(mada, iid)
        assert report.ml2p_rises()
        assert report.ccp_contracts()
        assert not report.zero_contrast

    def test_zero_contrast_flagged(self):
        sweep = self._toy_sweep("mean", [5, 3, 1, -2], [1, 2, 3, 4])
        report = cross_trend_check(sweep, sweep)
        assert report.zero_contrast

    def test_sweep_check_uses_the_mode_s_own_penalty(self):
        # CCP falls and ML2P rises: a pass under mean ablation, a failure
        # under dropout, whose own penalty is ML2P
        ok, problems = self._toy_sweep("mean", [5, 3, 1, -2], [1, 2, 3, 4]).check(-0.8)
        assert ok and problems == []
        ok, problems = self._toy_sweep("iid", [5, 3, 1, -2], [1, 2, 3, 4]).check(-0.8)
        assert not ok
        assert problems == ["Spearman(lambda, ml2p) = 1.000 at depth 0 (threshold -0.8)"]

    def test_sweep_check_nan_spearman_fails(self):
        nan = float("nan")
        ok, problems = self._toy_sweep("mean", [nan] * 4, [1, 2, 3, 4]).check(-0.8)
        assert not ok
        assert problems == ["Spearman(lambda, ccp) = nan at depth 0 (threshold -0.8)"]

    def test_cross_check_gate(self):
        mada = self._toy_sweep("mean", [5, 3, 1, -2], [1, 2, 3, 4])
        iid = self._toy_sweep("iid", [-8, -4, -2, -1], [4, 3, 2, 1])
        assert cross_trend_check(mada, iid).check() == (True, [])
        ml2p_falls = self._toy_sweep("mean", [5, 3, 1, -2], [4, 3, 2, 1])
        ccp_grows = self._toy_sweep("iid", [-1, -2, -4, -8], [4, 3, 2, 1])
        ok, problems = cross_trend_check(ml2p_falls, ccp_grows).check()
        assert not ok
        assert problems == ["ML2P does not rise with lambda under mean ablation",
                            "|CCP| does not contract under inverted dropout"]

    def test_zero_contrast_pair_fails_the_gate(self):
        sweep = self._toy_sweep("mean", [5, 3, 1, -2], [1, 2, 3, 4])
        ok, problems = cross_trend_check(sweep, sweep).check()
        assert not ok
        assert problems[0] == "zero contrast: the two sweeps are identical"

    def test_mismatched_shapes_rejected(self):
        a = self._toy_sweep("mean", [1, 2, 3], [1, 2, 3])
        b = self._toy_sweep("iid", [1, 2, 3, 4], [1, 2, 3, 4])
        with pytest.raises(ValueError):
            cross_trend_check(a, b)


# a small pool makes ties, constants and NaN common; any float covers the rest
_RANK_VALUES = st.one_of(
    st.sampled_from([-np.inf, -2.5, -0.0, 0.0, 1.0, 3.0, np.inf, np.nan]),
    st.floats(width=64),
)
_RANK_PAIRS = st.integers(0, 12).flatmap(lambda n: st.tuples(
    st.lists(_RANK_VALUES, min_size=n, max_size=n),
    st.lists(_RANK_VALUES, min_size=n, max_size=n),
))


@pytest.fixture(scope="module")
def scipy_spearmanr():
    return pytest.importorskip("scipy.stats").spearmanr


class TestSpearman:
    """The numpy Spearman against scipy.stats.spearmanr, used as an oracle only."""

    @given(_RANK_PAIRS)
    @example(([], []))
    @example(([1.0], [2.0]))
    @example(([1.0, 2.0, 3.0], [4.0, 4.0, 4.0]))
    @example(([0.0, 0.3, 0.6, 0.9], [np.nan, 1.0, 2.0, 3.0]))
    @example(([1.0, 1.0, 2.0, 2.0, 3.0], [5.0, 4.0, 4.0, -np.inf, np.inf]))
    @settings(max_examples=500, deadline=None)
    def test_bit_identical_to_scipy(self, scipy_spearmanr, pair):
        x, y = pair
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # scipy warns on a constant input
            expected = float(scipy_spearmanr(x, y).statistic)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _spearman(x, y)
        if math.isnan(expected):
            assert math.isnan(got)
        else:
            assert struct.pack("<d", got) == struct.pack("<d", expected)


class TestEmitReport:
    def test_empty_grid_header_only_csv(self):
        sweep = SweepResult(dataset_id="empty", task="regression", mode="mean",
                            depths=(), lambda_grid=(), seeds=(), hidden_width=4)
        text = render_report(sweep, "csv")
        assert text.count("\n") == 1
        assert text.startswith("kind,dataset,task,mode,depth,lambda,seed")

    def test_detail_plus_aggregate_row_counts(self):
        sweep = SweepResult(dataset_id="t", task="regression", mode="mean",
                            depths=(0,), lambda_grid=(0.0, 0.5), seeds=(0, 1),
                            hidden_width=4)
        for lam in (0.0, 0.5):
            for seed in (0, 1):
                sweep.cells.append(SweepCell(depth=0, lam=lam, seed=seed,
                                             output_index=0, metric=1.0,
                                             ccp=lam, ml2p=seed))
        lines = render_report(sweep, "csv").strip().split("\n")
        cells = [l for l in lines if l.startswith("cell,")]
        aggregates = [l for l in lines if l.startswith("aggregate,")]
        assert len(cells) == 4
        assert len(aggregates) == 2

    def test_reemission_byte_identical(self, tmp_path, small_data):
        run = converge_theorem1(small_data, 0.2, (500, 2000), seeds=(0, 1))
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        emit_report(run, "csv", p1)
        emit_report(run, "csv", p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_json_roundtrip_restores_sweep(self, small_data):
        sweep = lambda_sweep(small_data, [0], "mean", (0.0, 0.4), seeds=(0,),
                             dataset_id="round")
        payload = json.loads(render_report(sweep, "json"))
        restored = sweep_from_payload(payload)
        assert restored.lambda_grid == sweep.lambda_grid
        assert len(restored.cells) == len(sweep.cells)
        for a, b in zip(restored.cells, sweep.cells):
            assert a.depth == b.depth and a.lam == b.lam
            np.testing.assert_allclose(a.ccp, b.ccp)

    @pytest.fixture(scope="class")
    def sweep_payload(self, small_data):
        sweep = lambda_sweep(small_data, [0], "mean", (0.0, 0.4), seeds=(0,), dataset_id="p")
        return json.loads(render_report(sweep, "json"))

    @pytest.mark.parametrize("payload", [{}, {"meta": {}}, {"meta": {"type": "convergence"}},
                                         None, []])
    def test_payload_without_sweep_meta_is_a_report_error(self, payload):
        with pytest.raises(ReportError, match="not a sweep report"):
            sweep_from_payload(payload)

    @pytest.mark.parametrize("drop", ["columns", "rows"])
    def test_payload_without_columns_or_rows_is_a_report_error(self, sweep_payload, drop):
        payload = {key: value for key, value in sweep_payload.items() if key != drop}
        with pytest.raises(ReportError, match="'columns' list and a 'rows' list"):
            sweep_from_payload(payload)

    def test_payload_missing_a_column_is_a_report_error(self, sweep_payload):
        at = sweep_payload["columns"].index("ccp")
        payload = dict(sweep_payload,
                       columns=[c for i, c in enumerate(sweep_payload["columns"]) if i != at],
                       rows=[[v for i, v in enumerate(row) if i != at]
                             for row in sweep_payload["rows"]])
        with pytest.raises(ReportError, match="column 'ccp'"):
            sweep_from_payload(payload)

    def test_payload_missing_a_meta_key_is_a_report_error(self, sweep_payload):
        meta = {k: v for k, v in sweep_payload["meta"].items() if k != "seeds"}
        with pytest.raises(ReportError, match="meta 'seeds'"):
            sweep_from_payload(dict(sweep_payload, meta=meta))

    def test_payload_with_a_short_row_is_a_report_error(self, sweep_payload):
        rows = [row[:3] if row[0] == "cell" else row for row in sweep_payload["rows"]]
        with pytest.raises(ReportError, match="malformed sweep report"):
            sweep_from_payload(dict(sweep_payload, rows=rows))

    def test_unknown_format_rejected(self, small_data):
        run = converge_theorem1(small_data, 0.2, (500, 1000), seeds=(0,))
        with pytest.raises(ValueError):
            render_report(run, "yaml")


class TestMatrixLines:
    def reference(self, matrix):
        header = [f"c{j}" for j in range(matrix.shape[1])]
        return _csv_lines(header, matrix.tolist()), ",".join(header) + "\n"

    @pytest.mark.parametrize("matrix", [
        np.array([[0.0, -0.0, 5e-324, 1e16], [1e-5, 1 / 3, -0.0, 0.0],
                  [1 / 3, 1e16, 5e-324, -1e-5], [0.0, 0.0, 0.0, 0.0]]),
        np.array([[1.5, -2.25, 1e300, -5e-324, 0.1]]),
        np.array([[np.nan, np.inf, -np.inf], [-np.nan, 2.0, -0.0]]),
        np.random.default_rng(3).standard_normal((40, 3))[
            np.random.default_rng(4).integers(0, 40, 500)],
        np.random.default_rng(5).standard_normal((7, 6)).T,  # not C-contiguous
        np.empty((0, 3)),
    ], ids=["special-values-shared-text", "one-row-cell-by-cell", "nonfinite-cell-by-cell",
            "bootstrap-shared-text", "transposed-cell-by-cell", "empty"])
    def test_bytes_equal_csv_lines(self, matrix):
        expected, header = self.reference(matrix)
        assert header + _matrix_lines(matrix) == expected

    def test_signed_zeros_stay_apart(self):
        assert _matrix_lines(np.array([[0.0, -0.0], [-0.0, 0.0]])) == "0.0,-0.0\n-0.0,0.0\n"


class TestWriteText:
    def test_string_and_chunks_write_the_same_bytes(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        write_text(a, "x,y\n1,2\r\n")
        write_text(b, iter(["x,y\n", "1,", "2\r\n"]))
        assert a.read_bytes() == b.read_bytes() == b"x,y\n1,2\r\n"

    def test_replaces_an_existing_file(self, tmp_path):
        path = tmp_path / "out.csv"
        path.write_text("old contents that are longer\n")
        write_text(path, "new\n")
        assert path.read_text() == "new\n"

    def test_failure_leaves_the_old_file_and_no_partial_file(self, tmp_path):
        path = tmp_path / "out.csv"
        path.write_text("old\n")

        def chunks():
            yield "partial\n"
            raise RuntimeError("formatter failed")

        with pytest.raises(RuntimeError, match="formatter failed"):
            write_text(path, chunks())
        assert path.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]

    def test_a_replaced_file_keeps_its_permission_bits(self, tmp_path):
        path = tmp_path / "out.csv"
        path.write_text("old\n")
        path.chmod(0o640)
        write_text(path, "new\n")
        assert path.read_text() == "new\n"
        assert path.stat().st_mode & 0o777 == 0o640

    def test_a_symlink_is_kept_and_its_target_replaced(self, tmp_path):
        target = tmp_path / "target.csv"
        target.write_text("old\n")
        link = tmp_path / "link.csv"
        link.symlink_to(target)
        write_text(link, "new\n")
        assert link.is_symlink() and target.read_text() == "new\n"

    def test_a_pipe_is_written_in_place(self, tmp_path):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()),
                                  daemon=True)
        reader.start()
        write_text(fifo, iter(["a,b\n", "1,2\n"]))
        reader.join(timeout=10)
        assert not reader.is_alive()
        assert received == [b"a,b\n1,2\n"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["pipe"]

    def test_failure_on_a_new_path_creates_nothing(self, tmp_path):
        def chunks():
            raise RuntimeError("no data")
            yield ""

        with pytest.raises(RuntimeError):
            write_text(tmp_path / "new.csv", chunks())
        assert list(tmp_path.iterdir()) == []


class TestConvergenceOracleAtLambdaZero:
    def test_pure_bootstrap_noise_decays(self, small_data):
        # at lambda=0 the synthetic set is a plain bootstrap resample; the
        # distance to OLS is bootstrap noise and must fall toward zero
        run = converge_theorem1(small_data, 0.0, (1000, 100_000), seeds=(0, 1, 2))
        med = run.median_l2()
        assert med[-1] < 0.05
        assert med[-1] < med[0]


def test_ccp_trend_depth0_matches_matrix_form(small_data):
    # the sweep's closed-form depth-0 cells reproduce the quadratic form
    sweep = lambda_sweep(small_data, [0], "mean", (0.3,), seeds=(0,),
                         attribution_steps=30)
    cell = sweep.cells[0]
    from ablatereg.dataset import SplitSpec, split, standardize

    train, _, test = split(small_data, SplitSpec(seed=0))
    train_s, stats = standardize(train)
    test_s, _ = standardize(test, stats)
    fit = fit_ccp(train_s, 0.3)
    direct = ccp_pairwise(contributions_linear(fit.model, test_s.features))
    assert abs(cell.ccp - direct) <= 1e-3 * max(1.0, abs(direct))
