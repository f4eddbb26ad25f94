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

from ablatereg import _streams, augment, files, harness
from ablatereg.augment import BLOCK_ROWS, AugmentError, AugmentSpec, augmented_chunks, build_augmented
from ablatereg.attribution import AttributionConfig, integrated_gradients
from ablatereg.dataset import DatasetError, SplitSpec, split, standardize, synth_correlated
from ablatereg.files import (
    CHUNK_ROWS,
    ReportError,
    _TextTable,
    _distinct_bits,
    augmented_lines,
    csv_text,
    matrix_lines,
    write_text,
)
from ablatereg.harness import (
    SweepCell,
    SweepResult,
    check_moment_limits,
    converge_theorem1,
    converge_theorem2,
    cross_trend_check,
    lambda_sweep,
    penalty_trend,
    render_report,
    sweep_from_payload,
    _spearman,
    _moment_limits,
    _moments,
    _streamed_moments,
)
from ablatereg.linear import fit_ccp, fit_ml2p, fit_ols, solve_system
from ablatereg.nn import TrainConfig, init, linear_as_mlp, train
from ablatereg.penalty import ccp_pairwise, ccp_variance_form, contributions_linear


@pytest.fixture(scope="module")
def small_data():
    """A counted design: 120 rows x 2^3 patterns fit in one block."""
    return synth_correlated(120, 3, 0.6, (1.0, -2.0, 1.5), 1.0, seed=50)


@pytest.fixture(scope="module")
def wide_data():
    """A rows-path design: 120 rows x 2^10 patterns = 122,880 > BLOCK_ROWS."""
    return synth_correlated(120, 10, 0.6, np.linspace(-2.0, 2.0, 10), 1.0, seed=53)


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

    def test_seeds_must_differ(self, small_data):
        # a repeated seed is the same replicate again, not an independent one
        with pytest.raises(ValueError, match="seeds must be distinct"):
            converge_theorem2(small_data, 0.3, (1000, 2000), seeds=(4, 4, 4))

    def test_check_flags_large_distance(self, small_data):
        run = converge_theorem1(small_data, 0.5, (200, 500), seeds=(0, 1))
        ok, problems = run.check(linf_tolerance=1e-9)
        assert not ok and problems

    @pytest.mark.parametrize("converge", [converge_theorem1, converge_theorem2])
    def test_singular_cells_are_recorded_and_the_run_goes_on(self, converge):
        # two synthetic rows cannot span three columns: each seed's N = 2 fit
        # is singular, and its N = 1000 fit is not
        d = synth_correlated(200, 3, 0.8, (1.0, -2.0, 3.0), 1.0, seed=0)
        run = converge(d, 0.3, (2, 1000), seeds=(0, 1))
        assert [(f["seed"], f["N"]) for f in run.failures] == [(0, 2), (1, 2)]
        assert all(f["error"].startswith("OLS on the synthetic set") for f in run.failures)
        assert np.isnan(run.dist_l2[:, 0]).all() and np.isnan(run.dist_linf[:, 0]).all()
        assert np.isfinite(run.dist_l2[:, 1]).all()
        assert json.loads(render_report(run, "json"))["meta"]["failures"] == run.failures
        cells = [line.split(",") for line in render_report(run, "csv").splitlines()[1:]
                 if line.startswith("cell,") and line.split(",")[4] == "2"]
        assert len(cells) == 2 and all(c[6] == c[7] == "nan" for c in cells)
        ok, problems = converge(d, 0.3, (2, 3), seeds=(0, 1)).check()
        assert not ok and "some final-N fits failed" in problems

    @staticmethod
    def _toy_run(median_l2, final_linf=None):
        """A two-seed run over N = 1e3..1e6 with the given median L2
        distances; both seeds' distances equal the medians, and their Linf
        distances are half of them unless ``final_linf`` is given at 1e6."""
        n_schedule = (10**3, 10**4, 10**5, 10**6)
        dist_l2 = np.tile(np.asarray(median_l2, dtype=np.float64), (2, 1))
        dist_linf = dist_l2 / 2
        if final_linf is not None:
            dist_linf[:, -1] = final_linf
        return harness.ConvergenceRun(
            theorem=1, mode="mean", lam=0.5, n_schedule=n_schedule, seeds=(0, 1),
            target_beta=np.zeros(3), dist_l2=dist_l2, dist_linf=dist_linf,
            gram_resid=np.zeros_like(dist_l2), cross_resid=np.zeros_like(dist_l2))

    @pytest.mark.parametrize("slope, ok", [
        (-0.5, True), (-0.69, True), (-0.31, True),
        (-0.71, False), (-0.29, False),
    ])
    def test_check_slope_band(self, slope, ok):
        run = self._toy_run([n ** slope for n in (10**3, 10**4, 10**5, 10**6)])
        assert run.loglog_slope() == pytest.approx(slope, abs=1e-12)
        passed, problems = run.check()
        assert passed == ok
        if not ok:
            assert problems == [f"log-log slope {slope:.3f} of median L2 against N is "
                                f"outside [-0.7, -0.3]"]

    def test_check_fails_a_plateau(self):
        # the distance stops falling: final accuracy and monotone decay hold,
        # but the slope is 0, not the Monte-Carlo rate
        run = self._toy_run([0.005] * 4)
        assert abs(run.loglog_slope()) < 1e-12
        ok, problems = run.check()
        assert not ok
        assert len(problems) == 1 and problems[0].startswith("log-log slope ")

    def test_check_fails_an_undefined_slope(self):
        nan = float("nan")
        run = self._toy_run([nan, nan, nan, 0.001])
        assert math.isnan(run.loglog_slope())
        ok, problems = run.check()
        assert not ok
        assert problems == ["log-log slope is undefined: fewer than two finite, positive "
                            "median L2 distances"]

    @pytest.mark.parametrize("final_linf, ok", [(0.0199, True), (0.0201, False)])
    def test_check_linf_tolerance(self, final_linf, ok):
        run = self._toy_run([25.0 * n ** -0.5 for n in (10**3, 10**4, 10**5, 10**6)],
                            final_linf=final_linf)
        assert run.check()[0] == ok
        assert not run.check(float("nan"))[0]


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
    def test_sigmas_match_elementwise_reference(self, wide_data, mode):
        # reference: the per-entry loop over the materialized synthetic set,
        # on a rows-path design, whose streamed rows are that set's
        check = check_moment_limits(wide_data, mode, 0.3, 150_000, seed=6)
        aug = build_augmented(wide_data, AugmentSpec(mode, 0.3, 150_000, seed=6))
        gram_limit, cross_limit = _moment_limits(wide_data, mode, 0.3)
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
    """Streaming against materialization, on a rows-path design: the
    streamed rows are those of build_augmented."""

    N = 3 * BLOCK_ROWS + 17

    @pytest.mark.parametrize("mode", ["mean", "iid"])
    def test_streamed_beta_matches_materialized_ols(self, wide_data, mode):
        spec = AugmentSpec(mode, 0.4, self.N, seed=7)
        _, moments = _streamed_moments(wide_data, spec)
        beta = solve_system(moments[:-1, :-1], moments[:-1, -1], wide_data.column_names, "t")
        reference = fit_ols(build_augmented(wide_data, spec)).beta
        np.testing.assert_allclose(beta, reference, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("mode", ["mean", "iid"])
    def test_stable_under_large_feature_means(self, wide_data, mode):
        shifted = replace(wide_data, features=wide_data.features + 1e6)
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


def synthetic_blocks(d, spec):
    """The synthetic set as [X | y] blocks of at most BLOCK_ROWS rows, one
    row per synthetic row: on a counted design the expanded counted set,
    each drawn code's distinct row repeated as often as it was drawn; on any
    other the blocks of augmented_chunks."""
    if not augment.counted(d):
        for features, response in augmented_chunks(d, spec):
            yield serial_block(features, response)
        return
    counts = augment.pattern_counts(d, spec)
    codes = np.flatnonzero(counts)
    z = np.repeat(augment.distinct_rows(d, spec, codes), counts[codes], axis=0)
    for start in range(0, len(z), BLOCK_ROWS):
        yield z[start:start + BLOCK_ROWS]


def serial_moments(d, spec):
    """Reference for the block pipeline: walk the synthetic blocks, shift
    each by the source column means and add up the blocks' sums and
    cross-products."""
    shift = np.append(d.features.mean(axis=0), d.response.mean())
    total = cross = 0.0
    for z in synthetic_blocks(d, spec):
        z -= shift
        total = total + z.sum(axis=0)
        cross = cross + z.T @ z
    offset = total / spec.n_synthetic
    return shift + offset, cross / spec.n_synthetic - np.outer(offset, offset)


def two_pass_moments(d, spec):
    """Reference on the materialized set: its mean, corrected by the mean of
    its rows centered on it, then the cross-products of the rows centered on
    that."""
    z = np.concatenate(list(synthetic_blocks(d, spec)))
    mean = z.mean(axis=0)
    mean += (z - mean).mean(axis=0)
    zc = z - mean
    return mean, zc.T @ zc / len(z)


def serial_moment_sigmas(d, mode, lam, n_synthetic, seed, moments_of=serial_moments):
    """Reference for check_moment_limits: both passes serial, the first by
    ``moments_of``, the second with the whole-block product array."""
    spec = AugmentSpec(mode, lam, n_synthetic, seed)
    gram_limit, cross_limit = _moment_limits(d, mode, lam)
    k = d.k
    mean, moments = moments_of(d, spec)
    rows, cols = (idx[:-1] for idx in np.triu_indices(k + 1))
    observed = moments[rows, cols]
    sq_dev = np.zeros(rows.size)
    for z in synthetic_blocks(d, spec):
        zc = z - mean
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


class TestLargeFeatureMeans:
    """On a rows-path design whose features sit near 1e8 the moments and the
    moment check keep the precision of a two-pass reduction of the
    materialized set."""

    N = 3 * BLOCK_ROWS + 17

    @pytest.mark.parametrize("lam", [0.4, 0.9])
    def test_moments(self, wide_data, lam):
        d = replace(wide_data, features=wide_data.features + 1e8)
        spec = AugmentSpec("mean", lam, self.N, seed=11)
        _, cross = _streamed_moments(d, spec)
        assert_close_to_scale(cross, two_pass_moments(d, spec)[1], rtol=2e-14)

    @pytest.mark.parametrize("lam", [0.4, 0.9])
    def test_moment_check_sigmas(self, wide_data, lam):
        d = replace(wide_data, features=wide_data.features + 1e8)
        check = check_moment_limits(d, "mean", lam, self.N, seed=11)
        gram, cross = serial_moment_sigmas(d, "mean", lam, self.N, seed=11,
                                           moments_of=two_pass_moments)
        assert_close_to_scale(np.append(check.gram_sigmas, check.cross_sigmas),
                              np.append(gram, cross))


class TestBlockPipelineBytes:
    """On a rows-path design the threaded draw/reduce/merge pipeline gives
    the serial loop's bytes."""

    @pytest.mark.parametrize("shift", [0.0, 1e6])
    @pytest.mark.parametrize("n_synthetic", [1000, BLOCK_ROWS, 3 * BLOCK_ROWS + 17])
    @pytest.mark.parametrize("mode", ["mean", "iid"])
    def test_moments(self, wide_data, mode, n_synthetic, shift):
        d = replace(wide_data, features=wide_data.features + shift)
        spec = AugmentSpec(mode, 0.4, n_synthetic, seed=9)
        mean, cross = _streamed_moments(d, spec)
        ref_mean, ref_cross = serial_moments(d, spec)
        assert np.array_equal(mean, ref_mean) and np.array_equal(cross, ref_cross)

    @pytest.mark.parametrize("shift", [0.0, 1e6])
    @pytest.mark.parametrize("mode", ["mean", "iid"])
    def test_moment_check_sigmas(self, wide_data, mode, shift):
        d = replace(wide_data, features=wide_data.features + shift)
        check = check_moment_limits(d, mode, 0.3, 3 * BLOCK_ROWS + 17, seed=6)
        gram, cross = serial_moment_sigmas(d, mode, 0.3, 3 * BLOCK_ROWS + 17, seed=6)
        assert np.array_equal(check.gram_sigmas, gram)
        assert np.array_equal(check.cross_sigmas, cross)

    @pytest.mark.parametrize("theorem", [1, 2])
    def test_converge_reports(self, wide_data, theorem, monkeypatch):
        converge = converge_theorem1 if theorem == 1 else converge_theorem2
        schedule = (1000, BLOCK_ROWS, 3 * BLOCK_ROWS + 17)
        run = converge(wide_data, 0.5, schedule, seeds=(0, 1))
        monkeypatch.setattr(harness, "_streamed_moments", serial_moments)
        reference = converge(wide_data, 0.5, schedule, seeds=(0, 1))
        for fmt in ("csv", "json"):
            assert render_report(run, fmt) == render_report(reference, fmt)


def assert_close_to_scale(got, reference, scale=None, rtol=1e-12):
    """Each entry within ``rtol`` of ``scale``, by default the reference's
    largest magnitude: the count path sums in another order, so it matches
    to rounding, not bytes."""
    got, reference = np.asarray(got, dtype=np.float64), np.asarray(reference, dtype=np.float64)
    assert got.shape == reference.shape
    if scale is None:
        scale = np.abs(reference).max()
    assert np.abs(got - reference).max() <= rtol * scale


def report_columns(text, fmt):
    """A converge report's cells as (text columns, numeric columns)."""
    if fmt == "json":
        payload = json.loads(text)
        header, rows = payload["columns"], payload["rows"]
        meta = payload["meta"]
    else:
        lines = text.splitlines()
        header, rows, meta = lines[0].split(","), [line.split(",") for line in lines[1:]], None
    numeric = ["dist_l2", "dist_linf", "gram_resid", "cross_resid", "dist_l2_median",
               "dist_linf_median", "dist_l2_stderr", "dist_linf_stderr"]
    keys = [[row[i] for i, name in enumerate(header) if name not in numeric] for row in rows]
    values = {name: np.array([float("nan") if row[header.index(name)] in ("", None)
                              else float(row[header.index(name)]) for row in rows])
              for name in numeric}
    return (header, keys, meta), values


class TestCountPath:
    """On a counted design the moments, the moment-check sigmas and the
    converge reports match references over the expanded counted set (each
    drawn code's distinct row repeated as often as it was drawn) within
    1e-12 of each quantity's scale.  The counted set is one block of
    distinct rows weighted by their counts, so its sums are added in another
    order than the serial loop's, and match to rounding, not bytes.  Both
    references hold at a feature shift of 1e6 too: the serial loop shifts
    each block by the source means, and the two-pass reference centres the
    materialized set."""

    @pytest.mark.parametrize("reference", [serial_moments, two_pass_moments])
    @pytest.mark.parametrize("shift", [0.0, 1e6])
    @pytest.mark.parametrize("n_synthetic", [1000, BLOCK_ROWS, 3 * BLOCK_ROWS + 17])
    @pytest.mark.parametrize("mode", ["mean", "iid"])
    def test_moments(self, small_data, mode, n_synthetic, shift, reference):
        d = replace(small_data, features=small_data.features + shift)
        spec = AugmentSpec(mode, 0.4, n_synthetic, seed=9)
        mean, cross = _streamed_moments(d, spec)
        ref_mean, ref_cross = reference(d, spec)
        assert_close_to_scale(mean, ref_mean)
        assert_close_to_scale(cross, ref_cross)

    @pytest.mark.parametrize("lam", [0.0, 0.3])
    @pytest.mark.parametrize("shift", [0.0, 1e6])
    @pytest.mark.parametrize("mode", ["mean", "iid"])
    def test_moment_check_sigmas(self, small_data, mode, shift, lam):
        d = replace(small_data, features=small_data.features + shift)
        n = 3 * BLOCK_ROWS + 17
        check = check_moment_limits(d, mode, lam, n, seed=6)
        for moments in (two_pass_moments, serial_moments):
            gram, cross = serial_moment_sigmas(d, mode, lam, n, seed=6, moments_of=moments)
            assert_close_to_scale(np.append(check.gram_sigmas, check.cross_sigmas),
                                  np.append(gram, cross))

    @pytest.mark.parametrize("shift", [0.0, 1e6])
    @pytest.mark.parametrize("theorem", [1, 2])
    def test_converge_reports(self, small_data, theorem, shift, monkeypatch):
        d = replace(small_data, features=small_data.features + shift)
        converge = converge_theorem1 if theorem == 1 else converge_theorem2
        schedule = (1000, BLOCK_ROWS, 3 * BLOCK_ROWS + 17)
        run = converge(d, 0.5, schedule, seeds=(0, 1))
        for moments in (two_pass_moments, serial_moments):
            monkeypatch.setattr(harness, "_streamed_moments", moments)
            self.assert_reports_close(run, converge(d, 0.5, schedule, seeds=(0, 1)))

    @staticmethod
    def assert_reports_close(run, reference):
        for fmt in ("csv", "json"):
            got_keys, got = report_columns(render_report(run, fmt), fmt)
            ref_keys, ref = report_columns(render_report(reference, fmt), fmt)
            assert got_keys == ref_keys
            for name in ref:
                # a mean, median or standard error over seeds has the scale
                # of its cells
                cells = ref[name.removesuffix("_median").removesuffix("_stderr")]
                assert np.array_equal(np.isnan(got[name]), np.isnan(ref[name]))
                assert_close_to_scale(np.nan_to_num(got[name]), np.nan_to_num(ref[name]),
                                      scale=np.nanmax(np.abs(cells)))

    @pytest.mark.parametrize("lam", [0.0, -0.0])
    def test_lambda_zero_is_the_bootstrap(self, small_data, lam):
        spec = AugmentSpec("iid", lam, 3 * BLOCK_ROWS + 17, seed=10)
        assert_close_to_scale(_streamed_moments(small_data, spec)[1],
                              serial_moments(small_data, spec)[1])
        assert check_moment_limits(small_data, "mean", lam, 10_000, seed=10).ok

    def test_the_path_rule_picks_the_step(self, monkeypatch):
        # a counted set is counted once per reduction; any other is streamed
        calls = []
        pattern_counts = augment.pattern_counts

        def recording(d, spec):
            calls.append(spec)
            return pattern_counts(d, spec)

        monkeypatch.setattr(augment, "pattern_counts", recording)
        for n, counted in ((BLOCK_ROWS >> 3, True), ((BLOCK_ROWS >> 3) + 1, False)):
            d = synth_correlated(n, 3, 0.6, (1.0, -2.0, 1.5), 1.0, seed=54)
            calls.clear()
            _streamed_moments(d, AugmentSpec("mean", 0.5, 1000, seed=0))
            assert len(calls) == counted
            calls.clear()
            check_moment_limits(d, "iid", 0.5, 1000, seed=0)
            assert len(calls) == counted


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
    @staticmethod
    def check_draw_threads(data, bootstrap_draws, purposes, monkeypatch):
        """A converge run and a moment check on ``data`` make every generator
        and bootstrap draw on the calling thread, start no thread, make
        ``bootstrap_draws`` BOOTSTRAP draws and make generators for exactly
        ``purposes``."""
        stream_threads, bootstrap_threads, made, started = [], [], [], []
        stream = _streams.stream

        def recording_stream(seed, purpose, *step):
            stream_threads.append(threading.get_ident())
            made.append(purpose)
            generator = stream(seed, purpose, *step)
            if purpose == _streams.BOOTSTRAP:
                return RecordingGenerator(generator, bootstrap_threads)
            return generator

        start = threading.Thread.start

        def recording_start(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(_streams, "stream", recording_stream)
        monkeypatch.setattr(threading.Thread, "start", recording_start)
        converge_theorem1(data, 0.5, (1000, 3 * BLOCK_ROWS + 17), seeds=(0,))
        check_moment_limits(data, "iid", 0.5, 3 * BLOCK_ROWS + 17, seed=1)
        assert started == []
        assert sorted(made) == sorted(purposes)
        assert len(bootstrap_threads) == bootstrap_draws
        assert set(stream_threads + bootstrap_threads) == {threading.get_ident()}

    def test_streams_and_bootstrap_draws_happen_on_the_calling_thread(self, wide_data,
                                                                      monkeypatch):
        # four streamed sets (two converge cells, two passes of the check),
        # one bootstrap draw per block: 1 + 4 + 4 + 4; each set has a
        # BOOTSTRAP and a MASK generator
        streams = [_streams.BOOTSTRAP, _streams.MASK] * 4
        self.check_draw_threads(wide_data, 13, streams, monkeypatch)

    def test_a_counted_moment_check_reads_its_stream_once(self, small_data, monkeypatch):
        # three counted sets (two converge cells, one pass of the check),
        # each one multinomial draw from its own BOOTSTRAP generator, and no
        # MASK generator
        self.check_draw_threads(small_data, 3, [_streams.BOOTSTRAP] * 3, monkeypatch)

    def test_a_streamed_set_starts_no_thread(self, wide_data, monkeypatch):
        started = []
        start = threading.Thread.start

        def recording_start(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", recording_start)
        n = 3 * BLOCK_ROWS + 17
        _streamed_moments(wide_data, AugmentSpec("mean", 0.5, n, seed=4))
        check_moment_limits(wide_data, "iid", 0.5, n, seed=5)
        assert started == []

    def test_error_in_a_block_surfaces_with_its_type(self, wide_data, monkeypatch):
        ablate = augment.ablate

        def ablate_with_bad_means(X, mask, spec, means=None, out=None):
            return ablate(X, mask, spec, means[:-1], out=out)

        monkeypatch.setattr(augment, "ablate", ablate_with_bad_means)
        before = threading.active_count()
        with pytest.raises(AugmentError, match="one entry per feature"):
            converge_theorem1(wide_data, 0.5, (1000, 3 * BLOCK_ROWS + 17), seeds=(0,))
        assert threading.active_count() == before


ORACLE_DESIGNS = {
    "seed12": synth_correlated(200, 3, 0.6, (1.0, -2.0, 1.5), 1.0, seed=12),
    "seed60": synth_correlated(80, 3, 0.5, (1.0, 0.8, 2.0), 0.5, seed=60),
}
ORACLE_DESIGNS["seed60+50"] = replace(ORACLE_DESIGNS["seed60"],
                                      features=ORACLE_DESIGNS["seed60"].features + 50.0)


def exact_law(d, mode, lam):
    """The N -> infinity limit of a counted design's synthetic set, without
    sampling: its mean and centered moments, and the OLS solution on them.
    The one block holds every (row, pattern) code's distinct row, weighted
    by that code's probability, so the moments of a set of one row are the
    expectations."""
    spec = AugmentSpec(mode, lam, 1, seed=0)
    rows = augment.distinct_rows(d, spec, np.arange(d.n << d.k))
    p = augment.pattern_probabilities(d, spec)
    _, moments = _moments(d, spec, lambda: iter([(rows.copy(order="F"), p)]))
    k = d.k
    return moments, solve_system(moments[:k, :k], moments[:k, k], d.column_names, "exact")


def relative_gap(got, reference):
    return np.abs(got - reference).max() / np.abs(reference).max()


class TestExactOracle:
    """Theorems 1 and 2 at rounding level: OLS on the exact law of the
    synthetic set is the closed-form CCP (mean ablation) and ML2P (inverted
    dropout) solution, within 1e-12 of max|beta|, and the plain
    variance-scaled L2, the penalty ML2P is distinguished from, is not."""

    BOUND = 1e-12

    @pytest.mark.parametrize("lam", [0.1, 0.5, 0.9])
    @pytest.mark.parametrize("design", sorted(ORACLE_DESIGNS))
    @pytest.mark.parametrize("mode, fit", [("mean", fit_ccp), ("iid", fit_ml2p)])
    def test_exact_solution_is_the_closed_form(self, mode, fit, design, lam):
        d = ORACLE_DESIGNS[design]
        _, beta = exact_law(d, mode, lam)
        assert relative_gap(beta, fit(d, lam).model.beta) <= self.BOUND

    @pytest.mark.parametrize("lam", [0.1, 0.5, 0.9])
    @pytest.mark.parametrize("design", sorted(ORACLE_DESIGNS))
    @pytest.mark.parametrize("mode", ["mean", "iid"])
    def test_exact_moments_are_the_limits(self, mode, design, lam):
        d = ORACLE_DESIGNS[design]
        moments, _ = exact_law(d, mode, lam)
        gram_limit, cross_limit = _moment_limits(d, mode, lam)
        k = d.k
        assert relative_gap(moments[:k, :k], gram_limit) <= self.BOUND
        assert relative_gap(moments[:k, k], cross_limit) <= self.BOUND

    @pytest.mark.parametrize("lam", [0.1, 0.5, 0.9])
    @pytest.mark.parametrize("design", sorted(ORACLE_DESIGNS))
    def test_plain_l2_is_rejected(self, design, lam):
        # D = diag(v) in place of ML2P's diag(v + mu^2)
        d = ORACLE_DESIGNS[design]
        _, beta = exact_law(d, "iid", lam)
        Xc = d.features - d.features.mean(axis=0)
        yc = d.response - d.response.mean()
        gram = Xc.T @ Xc
        plain = np.linalg.solve(gram + lam / (1 - lam) * np.diag(np.diag(gram)), Xc.T @ yc)
        assert relative_gap(beta, plain) > self.BOUND


class TestLambdaSweep:
    def test_depth0_closed_form_trend(self, small_data):
        grid = (0.0, 0.4, 0.8)
        sweep = lambda_sweep(small_data, [0], "mean", grid, seeds=(0, 1),
                             dataset_id="unit")
        assert len(sweep.cells) == len(grid) * 2
        assert all(c.error is None for c in sweep.cells)

    @pytest.mark.parametrize("mode", ["mean", "iid"])
    def test_depth0_lambda_zero_cell_is_ols(self, small_data, mode, monkeypatch):
        # the cell calls its mode's solver at every lambda; at lambda = 0 its
        # system is the Gram matrix itself
        fit_cell, cells = harness._fit_cell, []

        def recording(d_train, d_val, depth, cfg, *args):
            model = fit_cell(d_train, d_val, depth, cfg, *args)
            cells.append((d_train, cfg.lam, model))
            return model

        monkeypatch.setattr(harness, "_fit_cell", recording)
        lambda_sweep(small_data, [0], mode, (0.0, 0.5), seeds=(0,), attribution_steps=10)
        d_train, lam, model = cells[0]
        ols = fit_ols(d_train)
        expected = linear_as_mlp(ols.beta, ols.intercept)
        assert lam == 0.0
        for got, want in zip(model.weights + model.biases, expected.weights + expected.biases):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("grid, seeds, message", [
        # the trend gates read the first and the last lambda as the least
        # and the greatest
        ((0.8, 0.0), (0, 1), "lambda grid must be strictly increasing"),
        ((0.0, 0.4, 0.4), (0, 1), "lambda grid must be strictly increasing"),
        ((0.0, 0.4), (1, 1), "seeds must be distinct"),
    ])
    def test_unordered_grids_and_repeated_seeds_are_rejected(self, small_data, grid, seeds,
                                                            message):
        with pytest.raises(ValueError, match=message):
            lambda_sweep(small_data, [0], "mean", grid, seeds=seeds)

    @pytest.mark.parametrize("given, named", [
        ({"mode": "iid", "lam": 0.3}, "mode='iid', lam=0.3"),
        ({"seed": 7}, "seed=7"),
    ])
    def test_a_cfg_setting_what_the_sweep_sets_is_rejected(self, small_data, given, named):
        with pytest.raises(ValueError, match=f"but cfg sets {named}$"):
            lambda_sweep(small_data, [0], "mean", (0.0, 0.5), seeds=(0,),
                         cfg=TrainConfig(**given))

    def test_unknown_mode_is_rejected(self, small_data):
        # a depth-0 regression cell solves a closed form and draws no masks,
        # yet its mode must still name one
        with pytest.raises(AugmentError, match="mode must be one of"):
            lambda_sweep(small_data, [0], "cutout", (0.0, 0.5), seeds=(0,))

    @pytest.mark.parametrize("n_rows", [5, 7])
    def test_one_test_row_is_rejected_before_any_cell(self, small_data, n_rows, monkeypatch):
        # the default split leaves 5 to 7 rows one test row, too few for CCP
        def no_fit(*args):
            raise AssertionError("a cell was fitted")

        monkeypatch.setattr(harness, "_fit_cell", no_fit)
        few = replace(small_data, features=small_data.features[:n_rows],
                      response=small_data.response[:n_rows])
        with pytest.raises(DatasetError,
                           match=f"the test split holds 1 of the {n_rows} rows; CCP needs"):
            lambda_sweep(few, [0, 1], "mean", (0.0, 0.5), seeds=(0, 1))

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
        run_cfg = replace(cfg, seed=cell_seed, mode="mean", lam=lam)
        sgd, _ = train(init([d.k, 1], seed=cell_seed), d_train, d_val, run_cfg)
        attr = integrated_gradients(sgd, d_test.features, AttributionConfig(steps=50))
        a = ccp_variance_form(attr.attributions)
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

    def test_diverging_cell_is_recorded(self, small_data):
        # Adam moves each weight by about the learning rate on the first step,
        # so the second step's forward pass overflows.  The sweep skips the
        # train-loss pass; the training step's forward pass raises on the
        # overflow itself.
        cfg = TrainConfig(learning_rate=1e300, epochs=2, batch_size=16)
        sweep = lambda_sweep(small_data, [1], "mean", (0.0, 0.5), seeds=(0,), cfg=cfg,
                             hidden_width=8, attribution_steps=5)
        assert len(sweep.cells) == 2
        for cell in sweep.cells:
            assert cell.error == "diverged at epoch 0, step 1: overflow encountered in matmul"
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
        assert not report.zero_contrast

    def test_zero_contrast_flagged(self):
        sweep = self._toy_sweep("mean", [5, 3, 1, -2], [1, 2, 3, 4])
        report = cross_trend_check(sweep, replace(sweep, mode="iid"))
        assert report.zero_contrast

    @pytest.mark.parametrize("modes", [("iid", "mean"), ("mean", "mean"), ("iid", "iid")])
    def test_sweeps_in_the_wrong_slots_are_rejected(self, modes):
        mada, iid = (self._toy_sweep(mode, [5, 3, 1, -2], [1, 2, 3, 4]) for mode in modes)
        with pytest.raises(ReportError) as err:
            cross_trend_check(mada, iid)
        assert str(err.value) == (
            f"cross-check needs a 'mean' (mean-ablation) sweep and an 'iid' (inverted-dropout) "
            f"sweep, in that order; got {modes[0]!r} and {modes[1]!r}")

    def test_sweep_check_uses_the_mode_s_own_penalty(self):
        # CCP falls and ML2P rises: a pass under mean ablation, a failure
        # under dropout, whose own penalty is ML2P
        ok, problems = self._toy_sweep("mean", [5, 3, 1, -2], [1, 2, 3, 4]).check(-0.8)
        assert ok and problems == []
        ok, problems = self._toy_sweep("iid", [5, 3, 1, -2], [1, 2, 3, 4]).check(-0.8)
        assert not ok
        assert problems == ["Spearman(lambda, ml2p) = 1.000 at depth 0, output 0 (threshold -0.8)"]

    def test_sweep_check_fails_on_a_failed_cell(self):
        # seed 0 alone gives a clean trend; seed 1's cell at the second
        # lambda failed, which the seed means skip
        sweep = self._toy_sweep("mean", [5, 3, 1, -2], [1, 2, 3, 4])
        sweep.seeds = (0, 1)
        nan = float("nan")
        sweep.cells.append(SweepCell(depth=0, lam=sweep.lambda_grid[1], seed=1, output_index=0,
                                     metric=nan, ccp=nan, ml2p=nan, error="diverged"))
        assert penalty_trend(sweep, "ccp")["per_depth"][0].spearman == -1.0
        ok, problems = sweep.check()
        assert not ok
        assert problems == [f"1 of 5 cells failed, the first at depth 0, lambda "
                            f"{sweep.lambda_grid[1]}, seed 1: diverged"]

    def test_sweep_check_nan_spearman_fails(self):
        nan = float("nan")
        ok, problems = self._toy_sweep("mean", [nan] * 4, [1, 2, 3, 4]).check(-0.8)
        assert not ok
        assert problems == ["Spearman(lambda, ccp) = nan at depth 0, output 0 (threshold -0.8)"]

    def test_sweep_check_names_the_failing_output(self):
        # CCP falls with lambda for output 0 and rises for output 1
        sweep = self._toy_sweep("mean", [5, 3, 1, -2], [1, 2, 3, 4])
        sweep.cells += [replace(c, output_index=1, ccp=-c.ccp) for c in sweep.cells]
        ok, problems = sweep.check(-0.8)
        assert not ok
        assert problems == ["Spearman(lambda, ccp) = 1.000 at depth 0, output 1 (threshold -0.8)"]

    def test_cross_check_gate(self):
        mada = self._toy_sweep("mean", [5, 3, 1, -2], [1, 2, 3, 4])
        iid = self._toy_sweep("iid", [-8, -4, -2, -1], [4, 3, 2, 1])
        assert cross_trend_check(mada, iid).check() == (True, [])
        ml2p_falls = self._toy_sweep("mean", [5, 3, 1, -2], [4, 3, 2, 1])
        ccp_grows = self._toy_sweep("iid", [-1, -2, -4, -8], [4, 3, 2, 1])
        ok, problems = cross_trend_check(ml2p_falls, ccp_grows).check()
        assert not ok
        assert problems == [
            "Spearman(lambda, ml2p) under mean ablation = -1.000 at depth 0, output 0 "
            "(must be at least 0.5)",
            "|CCP| under inverted dropout grows from 1 to 8 at depth 0, output 0",
        ]

    @pytest.mark.parametrize("spearman, ok", [(0.5, True), (0.49, False), (float("nan"), False)])
    def test_cross_check_ml2p_rise_bound(self, spearman, ok):
        report = harness.CrossTrendReport(
            ml2p_under_mean_ablation=[harness.TrendEntry(0, 0, spearman, 1.0, 2.0)],
            ccp_under_dropout=[harness.TrendEntry(0, 0, 1.0, -4.0, -1.0)],
            zero_contrast=False,
        )
        assert report.check()[0] == ok

    def test_zero_contrast_survives_a_report_round_trip_with_a_failed_cell(self):
        # each NaN read back is a new float object; the sweeps still match
        sweep = self._toy_sweep("mean", [5, 3, 1, -2], [1, 2, 3, 4])
        nan = float("nan")
        sweep.cells[1] = replace(sweep.cells[1], metric=nan, ccp=nan, ml2p=nan,
                                 error="fit_ccp: singular")

        def read_back(mode="mean"):
            return sweep_from_payload(json.loads(render_report(replace(sweep, mode=mode), "json")))

        assert cross_trend_check(read_back(), read_back("iid")).zero_contrast
        other = read_back("iid")
        other.cells[1] = replace(other.cells[1], error="fit_ccp: another message")
        assert not cross_trend_check(read_back(), other).zero_contrast

    def test_zero_contrast_pair_fails_the_gate(self):
        sweep = self._toy_sweep("mean", [5, 3, 1, -2], [1, 2, 3, 4])
        ok, problems = cross_trend_check(sweep, replace(sweep, mode="iid")).check()
        assert not ok
        assert problems[0] == "zero contrast: the two sweeps are identical"

    def test_mismatched_shapes_rejected(self):
        a = self._toy_sweep("mean", [1, 2, 3], [1, 2, 3])
        b = self._toy_sweep("iid", [1, 2, 3, 4], [1, 2, 3, 4])
        with pytest.raises(ValueError):
            cross_trend_check(a, b)

    def test_mismatched_outputs_rejected(self):
        mada = self._toy_sweep("mean", [5, 3, 1, -2], [1, 2, 3, 4])
        iid = self._toy_sweep("iid", [-8, -4, -2, -1], [4, 3, 2, 1])
        iid.cells += [replace(c, output_index=1) for c in iid.cells]
        with pytest.raises(ReportError, match=r"sweeps must share output indices: the "
                           r"mean-ablation sweep has \[0\], the dropout sweep \[0, 1\]"):
            cross_trend_check(mada, iid)


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
    def test_stderr_is_undefined_without_a_finite_value(self):
        # NaN with no finite value; one finite value keeps 0.0
        assert math.isnan(harness._stderr(np.array([np.nan, np.inf])))
        assert harness._stderr(np.array([np.nan, 2.0])) == 0.0
        assert harness._stderr(np.array([1.0, np.nan, 3.0])) == 1.0

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
        write_text(p1, render_report(run, "csv"))
        write_text(p2, render_report(run, "csv"))
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

    @pytest.mark.parametrize("key, value, message", [
        ("lambda_grid", [0.4, 0.0], "lambda grid must be strictly increasing"),
        ("lambda_grid", [0.0, 0.0], "lambda grid must be strictly increasing"),
        ("seeds", [0, 0], "seeds must be distinct"),
    ])
    def test_payload_with_an_unordered_grid_or_repeated_seeds_is_a_report_error(
            self, sweep_payload, key, value, message):
        meta = dict(sweep_payload["meta"], **{key: value})
        with pytest.raises(ReportError, match=message):
            sweep_from_payload(dict(sweep_payload, meta=meta))

    def test_payload_with_a_short_row_is_a_report_error(self, sweep_payload):
        rows = [row[:3] if row[0] == "cell" else row for row in sweep_payload["rows"]]
        with pytest.raises(ReportError, match="malformed sweep report"):
            sweep_from_payload(dict(sweep_payload, rows=rows))

    def test_unknown_format_rejected(self, small_data):
        run = converge_theorem1(small_data, 0.2, (500, 1000), seeds=(0,))
        with pytest.raises(ValueError):
            render_report(run, "yaml")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_unknown_result_rejected(self, fmt):
        with pytest.raises(TypeError, match="cannot render a report for dict"):
            render_report({"type": "sweep"}, fmt)


class TestMatrixLines:
    def reference(self, matrix):
        header = [f"c{j}" for j in range(matrix.shape[1])]
        return csv_text(header, matrix.tolist()), ",".join(header) + "\n"

    @pytest.mark.parametrize("matrix", [
        np.array([[0.0, -0.0, 5e-324, 1e16], [1e-5, 1 / 3, -0.0, 0.0],
                  [1 / 3, 1e16, 5e-324, -1e-5], [0.0, 0.0, 0.0, 0.0]]),
        np.array([[1.5, -2.25, 1e300, -5e-324, 0.1]]),
        np.array([[np.nan, np.inf, -np.inf], [-np.nan, 2.0, -0.0]]),
        np.random.default_rng(3).standard_normal((40, 3))[
            np.random.default_rng(4).integers(0, 40, 500)],
        np.random.default_rng(5).standard_normal((7, 6)).T,  # not C-contiguous
        np.empty((0, 3)),
    ], ids=["special-values", "one-row-cell-by-cell", "nonfinite-cell-by-cell",
            "bootstrap", "transposed-cell-by-cell", "empty"])
    def test_bytes_equal_csv_lines(self, matrix):
        expected, header = self.reference(matrix)
        assert header + matrix_lines(matrix) == expected

    def test_signed_zeros_stay_apart(self):
        assert matrix_lines(np.array([[0.0, -0.0], [-0.0, 0.0]])) == "0.0,-0.0\n-0.0,0.0\n"


class TestTextTable:
    def test_chunks_join_to_the_matrix_lines(self):
        rng = np.random.default_rng(6)
        matrix = rng.standard_normal((10, 4))[rng.integers(0, 10, 2 * CHUNK_ROWS + 5)]
        chunks = list(_TextTable(_distinct_bits(matrix)).chunks(matrix))
        assert [chunk.count("\n") for chunk in chunks] == [CHUNK_ROWS, CHUNK_ROWS, 5]
        assert "".join(chunks) == csv_text(["h"], matrix.tolist())[2:]

    def test_distinct_bits_equal_np_unique(self):
        matrix = np.array([[0.0, -0.0, np.nan, -np.nan], [1.0, 1.0, 5e-324, -0.0]])
        assert np.array_equal(_distinct_bits(matrix), np.unique(matrix.view(np.int64)))
        assert _distinct_bits(np.empty((0, 2))).size == 0

    @pytest.mark.parametrize("values, matrix", [
        ([1.0, 2.0], [[1.0, 3.0]]),
        ([0.0, 1.0], [[1.0, -0.0]]),
        ([np.inf], [[np.inf], [1e308]]),
        ([], [[0.0]]),
    ], ids=["absent", "other-signed-zero", "above-the-largest", "empty-table"])
    def test_a_value_missing_from_the_table_raises(self, values, matrix):
        table = _TextTable(_distinct_bits(values))
        with pytest.raises(ValueError, match="missing from its text table"):
            list(table.chunks(np.array(matrix)))


class TestAugmentedLines:
    """``augmented_lines`` against the CSV body of each block written cell by
    cell, one ``repr`` each."""

    def block_by_block(self, d, spec):
        return "".join(csv_text(["h"], np.column_stack(block).tolist())[2:]
                       for block in augmented_chunks(d, spec))

    @pytest.fixture
    def block_calls(self, monkeypatch):
        """The shapes of the blocks formatted one by one by ``matrix_lines``."""
        calls = []
        monkeypatch.setattr(files, "matrix_lines",
                            lambda m: calls.append(m.shape) or matrix_lines(m))
        return calls

    @pytest.mark.parametrize("mode", ["mean", "iid"])
    def test_bytes_equal_block_by_block(self, mode, block_calls):
        d = synth_correlated(50, 3, 0.4, (1, -1, 2), 1.0, seed=21)
        features, response = d.features.copy(), d.response.copy()
        features[:6, 0] = -0.0
        features[6:20, 1] = features[20:34, 1]  # repeated values
        response[:4] = -0.0
        d = replace(d, features=features, response=response)
        spec = AugmentSpec(mode, 0.35, 3 * BLOCK_ROWS + 211, seed=22)
        text = "".join(augmented_lines(d, spec))
        assert block_calls == []  # one table for the run
        assert text == self.block_by_block(d, spec)
        assert text.count("\n") == spec.n_synthetic

    @pytest.mark.parametrize("mode", ["mean", "iid"])
    def test_a_source_above_the_bound_is_formatted_block_by_block(self, mode, block_calls):
        # 500*3 + 500 source values, more than half of the 300*4 cells
        d = synth_correlated(500, 3, 0.4, (1, -1, 2), 1.0, seed=23)
        spec = AugmentSpec(mode, 0.35, 300, seed=24)
        text = "".join(augmented_lines(d, spec))
        assert block_calls == [(300, 4)]
        assert text == self.block_by_block(d, spec)


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
