import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ablatereg import _streams, augment
from ablatereg.augment import (
    BLOCK_ROWS,
    VALIDATION_REPLICAS,
    AugmentError,
    AugmentSpec,
    ablate,
    ablated_copy,
    augmented_chunks,
    batch_masks,
    build_augmented,
    counted,
    distinct_rows,
    pattern_counts,
    pattern_probabilities,
    synthetic_values,
    weighted_blocks,
)
from ablatereg.dataset import synth_correlated


def mask_draws(rows, k, seed):
    """The unstepped mask uniforms of a spec with this seed."""
    return _streams.stream(seed, _streams.MASK).random((rows, k))


def draw_mask(rows, k, lam, seed):
    """The unstepped mask draw of a spec with this seed: Bernoulli(lam) bits."""
    return mask_draws(rows, k, seed) < lam


MEAN = AugmentSpec("mean", 0.5, 1, seed=0)


def dropout(lam):
    return AugmentSpec("iid", lam, 1, seed=0)


class TestMakeMask:
    def test_zero_rate_all_false(self):
        mask = draw_mask(100, 5, 0.0, seed=1)
        assert not mask.any()

    def test_empirical_rate_three_sigma(self):
        # binomial 3 sigma band around 0.5 for 10^6 draws: +-0.0015
        mask = draw_mask(200_000, 5, 0.5, seed=2)
        assert 0.4985 <= mask.mean() <= 0.5015

    def test_deterministic(self):
        a = draw_mask(50, 4, 0.3, seed=3)
        b = draw_mask(50, 4, 0.3, seed=3)
        np.testing.assert_array_equal(a, b)

    def test_rejects_lambda_one(self):
        with pytest.raises(AugmentError):
            AugmentSpec("iid", 1.0, 10, seed=0)


# In the tests below an ablated entry has the draw 0.0, and a kept one a draw
# at or above lambda.

class TestApplyMeanAblation:
    def test_definition(self):
        out = ablate([3.0, 4.0], [0.0, 0.5], MEAN, means=[1.0, 2.0])
        np.testing.assert_allclose(out, [1.0, 4.0])

    def test_all_false_identity(self):
        x = np.array([3.0, 4.0, 5.0])
        out = ablate(x, [0.5, 0.75, 0.999], MEAN, means=[0.0, 0.0, 0.0])
        np.testing.assert_array_equal(out, x)

    def test_fixed_point_at_means(self):
        x = np.array([1.0, 2.0])
        out = ablate(x, [0.0, 0.0], MEAN, means=x)
        np.testing.assert_array_equal(out, x)

    def test_length_mismatch(self):
        with pytest.raises(AugmentError):
            ablate([1.0, 2.0], [0.0], MEAN, means=[0.0, 0.0])
        with pytest.raises(AugmentError):
            ablate([1.0, 2.0], [0.0, 0.5], MEAN, means=[0.0])


class TestApplyInvertedDropout:
    def test_definition(self):
        out = ablate([3.0, 4.0], [0.0, 0.5], dropout(0.5))
        np.testing.assert_allclose(out, [0.0, 8.0])

    def test_lambda_zero_identity(self):
        x = np.array([3.0, 4.0])
        draws = mask_draws(1, 2, seed=0)[0]
        np.testing.assert_array_equal(ablate(x, draws, dropout(0.0)), x)

    def test_expectation_preserved(self):
        # Monte-Carlo mean over many masks stays within 3 empirical SEs of x
        x = np.array([2.0, -3.0, 0.5, 7.0])
        lam = 0.35
        draws = mask_draws(100_000, 4, seed=11)
        outs = ablate(np.broadcast_to(x, draws.shape), draws, dropout(lam))
        se = outs.std(axis=0) / np.sqrt(outs.shape[0])
        assert np.all(np.abs(outs.mean(axis=0) - x) <= 3 * se)

    def test_rejects_lambda_one(self):
        with pytest.raises(AugmentError):
            ablate([1.0], [0.5], dropout(1.0))


class TestAblateOut:
    """The out= form (in place when out is X) equals the new-array form bit
    for bit, and both equal the np.where definitions."""

    @pytest.mark.parametrize("mode", ["mean", "iid"])
    def test_out_and_in_place_equal_the_new_array_form(self, mode):
        rng = np.random.default_rng(21)
        X = rng.standard_normal((500, 4)) * 1e3 + 1e6
        X[0, 0], X[1, 1] = -0.0, 0.0
        draws = mask_draws(500, 4, seed=22)
        mask = draws < 0.4
        spec = AugmentSpec(mode, 0.4, 1, seed=0)
        means = X.mean(axis=0) if mode == "mean" else None
        fresh = ablate(X, draws.copy(), spec, means)
        expected = (np.where(mask, means, X) if mode == "mean"
                    else np.where(mask, 0.0, X / (1.0 - 0.4)))
        out = np.full_like(X, np.nan)
        assert ablate(X, draws.copy(), spec, means, out=out) is out
        in_place = np.asfortranarray(X)
        assert ablate(in_place, draws.copy(), spec, means, out=in_place) is in_place
        for result in (fresh, out, in_place):
            assert result.tobytes(order="C") == expected.tobytes(order="C")

    def test_out_of_another_shape_is_rejected(self):
        with pytest.raises(AugmentError):
            ablate(np.ones((2, 2)), np.zeros((2, 2)), dropout(0.5), out=np.empty(2))


# Any float64 bit pattern, with the special values drawn often: +-0.0, +-inf,
# quiet and signalling NaNs with payloads and either sign, and subnormals.
FLOAT_BITS = st.one_of(
    st.integers(0, 2**64 - 1),
    st.sampled_from([0, 1 << 63, 0x7FF0 << 48, 0xFFF0 << 48, 0x7FF8 << 48 | 5,
                     0xFFF4 << 48 | 1, 0x7FF0 << 48 | 3, 1, 1 << 63 | 1,
                     0x000F_FFFF_FFFF_FFFF]),
)


def doubles(bits):
    return np.array(bits, dtype=np.uint64).view(np.float64)


@st.composite
def ablation_cases(draw):
    """(X, means, lam, draws) with X and means of arbitrary bits; the draws
    end with a row of exactly lam and a row of 0.0."""
    k = draw(st.integers(1, 4))
    rows = draw(st.integers(0, 6)) + 2
    lam = draw(st.floats(0.0, 1.0, exclude_max=True))
    X = doubles(draw(st.lists(FLOAT_BITS, min_size=rows * k, max_size=rows * k)))
    means = doubles(draw(st.lists(FLOAT_BITS, min_size=k, max_size=k)))
    uniforms = draw(st.lists(st.floats(0.0, 1.0, exclude_max=True),
                             min_size=(rows - 2) * k, max_size=(rows - 2) * k))
    draws = np.array(uniforms + [lam] * k + [0.0] * k)
    return X.reshape(rows, k), means, lam, draws.reshape(rows, k)


class TestAblateBits:
    """The bit select equals the np.where definitions byte for byte, for any
    bit patterns in X and means."""

    @settings(max_examples=300, deadline=None)
    @given(ablation_cases())
    def test_bytes_equal_the_where_forms(self, case):
        X, means, lam, draws = case
        with np.errstate(all="ignore"):
            expected = {"mean": np.where(draws < lam, means, X),
                        "iid": np.where(draws < lam, 0.0, X / (1 - lam))}
            for mode, want in expected.items():
                got = ablate(X, draws.copy(), AugmentSpec(mode, lam, 1, seed=0), means)
                assert got.tobytes() == want.tobytes()
                if lam == 0.0:
                    unablated = X if mode == "mean" else X / 1.0
                    assert got.tobytes() == unablated.tobytes()

    @pytest.mark.parametrize("lam", [0.0, -0.0])
    @pytest.mark.parametrize("mode", ["mean", "iid"])
    def test_lambda_zero_never_ablates(self, mode, lam):
        X = np.array([[1.5, -0.0, np.nan], [np.inf, 5e-324, -2.0]])
        draws = np.array([[0.0, 5e-324, 0.5], [0.0, 0.25, np.nextafter(1.0, 0.0)]])
        got = ablate(X, draws, AugmentSpec(mode, lam, 1, seed=0), np.zeros(3))
        assert got.tobytes() == X.tobytes()

    @pytest.mark.parametrize("bad", [-0.0, 1.0, np.nan, -np.nan, -1e-300, np.inf, 1.5])
    @pytest.mark.parametrize("mode", ["mean", "iid"])
    def test_draws_outside_the_unit_interval_are_rejected(self, mode, bad):
        draws = np.array([[0.25, 0.5], [bad, 0.0]])
        with pytest.raises(AugmentError, match=r"\[0, 1\)"):
            ablate(np.ones((2, 2)), draws, AugmentSpec(mode, 0.5, 1, seed=0), np.zeros(2))


def chunked_set(d, spec, block_rows):
    """The blocks of augmented_chunks, joined into one [X | y] array."""
    features, response = zip(*augmented_chunks(d, spec, block_rows=block_rows))
    return np.column_stack([np.concatenate(features), np.concatenate(response)])


class TestReducedBlocks:
    """The two ways a synthetic set is reduced: the rows path of
    weighted_blocks streams augmented_chunks, and pattern_counts draws a
    counted set's counts at once."""

    @pytest.mark.parametrize("mode", ["mean", "iid"])
    @pytest.mark.parametrize("block_rows", [1, 7, 64, 1000])
    def test_blocks_arrive_in_draw_order(self, mode, block_rows, monkeypatch):
        # 130 x 2^3 = 1040 possible rows: the rows path at every block size;
        # the reducer sees each block of augmented_chunks, column-major
        d = synth_correlated(130, 3, 0.4, (1, -1, 2), 1.0, seed=13)
        spec = AugmentSpec(mode, 0.4, 301, seed=14)
        monkeypatch.setattr(augment, "BLOCK_ROWS", block_rows)
        assert not counted(d)
        blocks = list(weighted_blocks(d, spec)())
        assert [z.shape[0] for z, _ in blocks] == [
            min(block_rows, 301 - start) for start in range(0, 301, block_rows)]
        assert all(z.flags.f_contiguous and weights is None for z, weights in blocks)
        z = np.concatenate([z for z, _ in blocks])
        assert z.tobytes() == chunked_set(d, spec, block_rows).tobytes()

    def test_empty_dataset_is_rejected(self):
        d = synth_correlated(5, 2, 0.0, (1, 1), 1.0, seed=1)
        empty = replace(d, features=d.features[:0], response=d.response[:0])
        with pytest.raises(AugmentError, match="empty"):
            pattern_counts(empty, AugmentSpec("iid", 0.5, 10, seed=0))


def serial_codes(d, spec):
    """Reference for the count step, on one thread: the codes ``row << k |
    pattern`` of the synthetic set, from its bootstrap indices and mask
    uniforms drawn at once; bit j of a pattern is set where ablate, given
    that row's draws, replaces a feature of ones by a mean of zero."""
    n, k = spec.n_synthetic, d.k
    idx = _streams.stream(spec.seed, _streams.BOOTSTRAP).integers(0, d.n, size=n)
    mean_mode = AugmentSpec("mean", spec.lam, 1, seed=0)
    ablated = ablate(np.ones((n, k)), mask_draws(n, k, spec.seed), mean_mode, np.zeros(k)) == 0.0
    return idx << k | (ablated @ (1 << np.arange(k)))


def pearson_chi2(counts, p):
    """Pearson's statistic of ``counts`` against their expectation N*p, and
    its degrees of freedom.  The codes expected least often are pooled into
    one cell until it is expected at least 5 times, so every cell is, and
    the statistic is close to its chi-square law."""
    n = counts.sum()
    order = np.argsort(n * p, kind="stable")
    expected, observed = n * p[order], counts[order]
    pooled = int(np.searchsorted(np.cumsum(expected), 5.0)) + 1
    expected = np.append(expected[:pooled].sum(), expected[pooled:])
    observed = np.append(observed[:pooled].sum(), observed[pooled:])
    return float(((observed - expected) ** 2 / expected).sum()), expected.size - 1


# A correct draw fails one check of assert_multinomial at most about once in
# FALSE_ALARM**-1 tries.
FALSE_ALARM = 1e-6


def assert_multinomial(counts, p):
    """Pearson's statistic within the bound that a chi-square variable with
    its degrees of freedom exceeds with probability at most FALSE_ALARM:
    P(X >= df + 2 sqrt(df t) + 2t) <= exp(-t) (Laurent & Massart 2000)."""
    statistic, df = pearson_chi2(counts, p)
    t = math.log(1 / FALSE_ALARM)
    assert statistic <= df + 2 * math.sqrt(df * t) + 2 * t, f"chi2 {statistic:.1f} on {df} df"


class TestPatternCounts:
    """The count path reduces a small design's synthetic set to how often each
    (row, mask pattern) was drawn: one Multinomial(N, p) draw, p the law of
    one row of augmented_chunks.  Its table of distinct rows holds the
    chunks' rows bit for bit."""

    @pytest.mark.parametrize("lam", [0.0, -0.0, 0.35])
    @pytest.mark.parametrize("n_synthetic", [1000, 3 * BLOCK_ROWS + 17])
    @pytest.mark.parametrize("mode", ["mean", "iid"])
    def test_counts_and_table_are_the_chunks(self, mode, n_synthetic, lam):
        # the counts and the chunks' codes are two samples of one law; every
        # drawn row of the chunks is its code's row of the table
        d = synth_correlated(60, 3, 0.4, (1, -1, 2), 1.0, seed=18)
        features = d.features.copy()
        features[:3, 0] = -0.0
        d = replace(d, features=features)
        spec = AugmentSpec(mode, lam, n_synthetic, seed=19)
        counts = pattern_counts(d, spec)
        codes = serial_codes(d, spec)
        assert counts.dtype == np.int64 and counts.sum() == n_synthetic
        p = pattern_probabilities(d, spec)
        for sample in (counts, np.bincount(codes, minlength=d.n << d.k)):
            assert_multinomial(sample, p)
        if lam == 0.0:
            assert not (codes & 7).any() and not counts.reshape(d.n, 8)[:, 1:].any()
        chunks = np.concatenate([np.column_stack(block) for block in augmented_chunks(d, spec)])
        assert distinct_rows(d, spec, codes).tobytes() == chunks.tobytes()

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(n=st.integers(1, 12), k=st.integers(1, 5),
           lam=st.one_of(st.sampled_from([0.0, -0.0]), st.floats(0.0, 0.99)),
           n_synthetic=st.integers(1, 200_000), seed=st.integers(0, 2**32),
           mode=st.sampled_from(["mean", "iid"]))
    def test_counts_are_one_multinomial_draw(self, n, k, lam, n_synthetic, seed, mode):
        d = synth_correlated(n, k, 0.0, (1.0,) * k, 1.0, seed=23)
        spec = AugmentSpec(mode, lam, n_synthetic, seed)
        counts = pattern_counts(d, spec)
        p = pattern_probabilities(d, spec)
        assert counts.dtype == np.int64 and counts.shape == (n << k,)
        assert counts.sum() == n_synthetic and counts.min() >= 0
        assert p.sum() == pytest.approx(1.0, abs=1e-12)
        if lam == 0.0:  # -0.0 too: every count on pattern 0
            assert not counts.reshape(n, 1 << k)[:, 1:].any()
        assert_multinomial(counts, p)
        assert np.array_equal(counts, pattern_counts(d, spec))

    @pytest.mark.parametrize("lam", [0.0, 0.3, 0.9])
    def test_probabilities_are_the_mask_law(self, lam):
        # p[row << k | pattern]: 1/n for the row times lam per ablated
        # feature (bit j set) and 1 - lam per kept one
        d = synth_correlated(3, 2, 0.0, (1.0, 1.0), 1.0, seed=24)
        p = pattern_probabilities(d, AugmentSpec("iid", lam, 1, seed=0))
        per_pattern = [(1 - lam) ** 2, lam * (1 - lam), (1 - lam) * lam, lam**2]
        np.testing.assert_allclose(p, np.tile(per_pattern, 3) / 3, rtol=1e-15, atol=0)

    @pytest.mark.parametrize("lam", [0.0, 0.5])
    @pytest.mark.parametrize("mode", ["mean", "iid"])
    def test_each_table_row_is_ablate_s_output(self, mode, lam):
        # every (row, pattern): the draw 0.0 under each set bit, any draw in
        # [lam, 1) elsewhere
        d = synth_correlated(5, 3, 0.4, (1, -1, 2), 1.0, seed=20)
        spec = AugmentSpec(mode, lam, 1, seed=0)
        codes = np.arange(d.n << d.k)
        table = distinct_rows(d, spec, codes)
        means = d.features.mean(axis=0)
        for code in codes:
            row, pattern = divmod(int(code), 1 << d.k)
            draws = np.array([0.0 if pattern >> j & 1 else np.nextafter(1.0, 0.0)
                              for j in range(d.k)])
            expected = ablate(d.features[row], draws, spec, means)
            assert table[code, :-1].tobytes() == expected.tobytes()
            assert table[code, -1] == d.response[row]

    def test_the_path_rule(self):
        # n * 2^k possible rows: at most one block's worth is counted
        assert counted(synth_correlated(BLOCK_ROWS >> 3, 3, 0.0, (1, 1, 1), 1.0, seed=0))
        assert not counted(synth_correlated((BLOCK_ROWS >> 3) + 1, 3, 0.0, (1, 1, 1), 1.0, seed=0))
        assert counted(synth_correlated(1, 16, 0.0, (1,) * 16, 1.0, seed=0))
        assert not counted(synth_correlated(1, 17, 0.0, (1,) * 17, 1.0, seed=0))


def sorted_rows(z):
    return z[np.lexsort(z.T[::-1])]


def counted_set(d, spec):
    """The counted synthetic set, one row per draw: the distinct row of each
    drawn code repeated as often as pattern_counts drew it."""
    counts = pattern_counts(d, spec)
    codes = np.flatnonzero(counts)
    return np.repeat(distinct_rows(d, spec, codes), counts[codes], axis=0)


class TestWeightedBlocks:
    """The one source of the Monte-Carlo reductions: each row weighted by how
    many synthetic rows it stands for, the counted set on a counted design
    and the set of augmented_chunks on any other."""

    @pytest.mark.parametrize("block_rows", [BLOCK_ROWS, 64])
    @pytest.mark.parametrize("mode", ["mean", "iid"])
    def test_the_weighted_rows_are_the_chunks(self, mode, block_rows, monkeypatch):
        # 23 x 2^3 = 184 possible rows: counted in one block of BLOCK_ROWS,
        # streamed in blocks of 64
        d = synth_correlated(23, 3, 0.4, (1, -1, 2), 1.0, seed=13)
        spec = AugmentSpec(mode, 0.4, 301, seed=14)
        monkeypatch.setattr(augment, "BLOCK_ROWS", block_rows)
        blocks = list(weighted_blocks(d, spec)())
        assert all(z.flags.f_contiguous for z, _ in blocks)
        if counted(d):
            [(z, weights)] = blocks
            assert weights.sum() == 301 and weights.min() >= 1
            z = np.repeat(z, weights.astype(np.int64), axis=0)
            assert sorted_rows(z).tobytes() == sorted_rows(counted_set(d, spec)).tobytes()
        else:
            assert [z.shape[0] for z, _ in blocks] == [64] * 4 + [45]
            assert all(weights is None for _, weights in blocks)
            z = np.concatenate([z for z, _ in blocks])
            assert z.tobytes() == chunked_set(d, spec, 64).tobytes()

    def test_a_counted_set_is_drawn_once_and_copied_for_each_reduction(self, monkeypatch):
        d = synth_correlated(23, 3, 0.4, (1, -1, 2), 1.0, seed=13)
        calls = []
        counts = augment.pattern_counts

        def recording(d, spec):
            calls.append(spec)
            return counts(d, spec)

        monkeypatch.setattr(augment, "pattern_counts", recording)
        spec = AugmentSpec("mean", 0.4, 301, seed=14)
        blocks = weighted_blocks(d, spec)

        def zeroed():
            [(z, weights)] = blocks()
            first = z.copy()
            z[:] = 0.0
            return first, weights

        (first, weights), (second, _) = zeroed(), zeroed()
        assert np.array_equal(first, second) and first.any() and weights.sum() == 301
        assert calls == [spec]


class TestBuildAugmented:
    def test_lambda_zero_is_bootstrap(self):
        d = synth_correlated(30, 3, 0.2, (1, 2, 3), 1.0, seed=1)
        aug = build_augmented(d, AugmentSpec("mean", 0.0, 100, seed=2))
        assert aug.n == 100
        source_rows = {tuple(row) for row in d.features}
        assert all(tuple(row) in source_rows for row in aug.features)

    def test_mean_mode_preserves_column_means(self):
        # conditioning: E x~_j = mean_j even at extreme ablation rates
        d = synth_correlated(200, 3, 0.5, (1, -1, 2), 1.0, seed=3)
        aug = build_augmented(d, AugmentSpec("mean", 0.999, 100_000, seed=4))
        se = aug.features.std(axis=0) / np.sqrt(aug.n)
        boot_se = d.features.std(axis=0) / np.sqrt(aug.n)
        tol = 3 * np.sqrt(se**2 + boot_se**2)
        assert np.all(np.abs(aug.features.mean(axis=0) - d.features.mean(axis=0)) <= tol)

    def test_iid_mode_preserves_column_means(self):
        d = synth_correlated(200, 3, 0.5, (1, -1, 2), 1.0, seed=5)
        aug = build_augmented(d, AugmentSpec("iid", 0.5, 1_000_000, seed=6))
        se = aug.features.std(axis=0) / np.sqrt(aug.n)
        assert np.all(np.abs(aug.features.mean(axis=0) - d.features.mean(axis=0)) <= 3 * se)

    def test_responses_are_sub_multiset(self):
        d = synth_correlated(25, 2, 0.0, (1, 1), 1.0, seed=7)
        aug = build_augmented(d, AugmentSpec("mean", 0.4, 500, seed=8))
        assert set(aug.response.tolist()) <= set(d.response.tolist())

    def test_deterministic(self):
        d = synth_correlated(25, 2, 0.0, (1, 1), 1.0, seed=7)
        spec = AugmentSpec("iid", 0.3, 200, seed=9)
        a = build_augmented(d, spec)
        b = build_augmented(d, spec)
        np.testing.assert_array_equal(a.features, b.features)

    def test_spec_validation(self):
        with pytest.raises(AugmentError):
            AugmentSpec("mean", 1.0, 10, seed=0)
        with pytest.raises(AugmentError):
            AugmentSpec("mean", 0.5, 0, seed=0)
        with pytest.raises(AugmentError):
            AugmentSpec("cutout", 0.5, 10, seed=0)


class TestAugmentedChunks:
    @pytest.mark.parametrize("mode", ["mean", "iid"])
    @pytest.mark.parametrize("n_synthetic", [1000, 3 * BLOCK_ROWS + 17])
    def test_blocks_concatenate_to_build_augmented(self, mode, n_synthetic):
        d = synth_correlated(40, 3, 0.4, (1, -1, 2), 1.0, seed=11)
        spec = AugmentSpec(mode, 0.35, n_synthetic, seed=12)
        blocks = list(augmented_chunks(d, spec))
        assert len(blocks) == -(-n_synthetic // BLOCK_ROWS)
        assert all(f.shape[0] == BLOCK_ROWS for f, _ in blocks[:-1])
        aug = build_augmented(d, spec)
        np.testing.assert_array_equal(np.concatenate([f for f, _ in blocks]), aug.features)
        np.testing.assert_array_equal(np.concatenate([r for _, r in blocks]), aug.response)

    @pytest.mark.parametrize("mode", ["mean", "iid"])
    @pytest.mark.parametrize("block_rows", [1, 7, 64, 1000])
    def test_block_size_does_not_change_the_draws(self, mode, block_rows):
        # reference: the whole sample drawn at once from the same two streams
        d = synth_correlated(23, 3, 0.4, (1, -1, 2), 1.0, seed=13)
        spec = AugmentSpec(mode, 0.4, 301, seed=14)
        idx = _streams.stream(14, _streams.BOOTSTRAP).integers(0, d.n, size=301)
        mask = draw_mask(301, d.k, 0.4, seed=14)
        if mode == "mean":
            expected = np.where(mask, d.features.mean(axis=0), d.features[idx])
        else:
            expected = np.where(mask, 0.0, d.features[idx] / 0.6)
        blocks = list(augmented_chunks(d, spec, block_rows=block_rows))
        np.testing.assert_array_equal(np.concatenate([f for f, _ in blocks]), expected)
        np.testing.assert_array_equal(np.concatenate([r for _, r in blocks]), d.response[idx])


class TestSyntheticValues:
    @pytest.mark.parametrize("mode", ["mean", "iid"])
    @pytest.mark.parametrize("lam", [0.0, 0.35])
    def test_every_cell_of_every_block_is_in_the_set(self, mode, lam):
        d = synth_correlated(60, 3, 0.4, (1, -1, 2), 1.0, seed=15)
        features = d.features.copy()
        features[:5, 0] = -0.0
        features[5:10, 1] = features[10:15, 1]
        d = replace(d, features=features)
        spec = AugmentSpec(mode, lam, 2 * BLOCK_ROWS + 9, seed=16)
        values = synthetic_values(d, spec).view(np.int64)
        for features, response in augmented_chunks(d, spec):
            assert np.isin(features.view(np.int64), values).all()
            assert np.isin(response.view(np.int64), values).all()

    def test_values_by_mode(self):
        d = synth_correlated(5, 2, 0.4, (1, -1), 1.0, seed=17)
        mean = synthetic_values(d, AugmentSpec("mean", 0.3, 1, seed=0))
        np.testing.assert_array_equal(
            mean, np.concatenate([d.features.ravel(), d.features.mean(axis=0), d.response]))
        iid = synthetic_values(d, AugmentSpec("iid", 0.3, 1, seed=0))
        np.testing.assert_array_equal(
            iid, np.concatenate([(d.features / 0.7).ravel(), [0.0], d.response]))


class TestBatchMasks:
    def test_lambda_zero_unchanged(self):
        batch = np.arange(12.0).reshape(4, 3)
        spec = AugmentSpec("mean", 0.0, 1, seed=1)
        out = batch_masks(batch, spec, step=0, means=np.zeros(3))
        np.testing.assert_array_equal(out, batch)

    def test_fresh_masks_per_step(self):
        batch = np.ones((50, 20))
        spec = AugmentSpec("iid", 0.5, 1, seed=2)
        a = batch_masks(batch, spec, step=0)
        b = batch_masks(batch, spec, step=1)
        assert not np.array_equal(a, b)

    def test_same_seed_step_identical(self):
        batch = np.ones((10, 5))
        spec = AugmentSpec("iid", 0.5, 1, seed=3)
        np.testing.assert_array_equal(
            batch_masks(batch, spec, step=4), batch_masks(batch, spec, step=4)
        )

    def test_mean_mode_requires_means(self):
        spec = AugmentSpec("mean", 0.5, 1, seed=4)
        with pytest.raises(AugmentError, match="means"):
            batch_masks(np.ones((2, 2)), spec, step=0)


class TestAblatedCopy:
    def test_replicates_rows(self):
        d = synth_correlated(10, 2, 0.0, (1, 1), 1.0, seed=1)
        out = ablated_copy(d, AugmentSpec("iid", 0.5, 1, seed=2))
        assert out.n == VALIDATION_REPLICAS * 10
        np.testing.assert_array_equal(out.response, np.tile(d.response, VALIDATION_REPLICAS))

    def test_stable_across_calls(self):
        d = synth_correlated(10, 2, 0.0, (1, 1), 1.0, seed=1)
        spec = AugmentSpec("mean", 0.5, 1, seed=3)
        means = d.features.mean(axis=0)
        a = ablated_copy(d, spec, means=means)
        b = ablated_copy(d, spec, means=means)
        np.testing.assert_array_equal(a.features, b.features)

    def test_mean_mode_requires_means(self):
        d = synth_correlated(10, 2, 0.0, (1, 1), 1.0, seed=1)
        with pytest.raises(AugmentError, match="means"):
            ablated_copy(d, AugmentSpec("mean", 0.5, 1, seed=3))
