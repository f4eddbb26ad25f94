import numpy as np
import pytest

from ablatereg.attribution import (
    AttributionConfig,
    completeness_report,
    integrated_gradients,
)
from ablatereg.nn import MlpModel, init, input_gradients, linear_as_mlp


def bumpy_net(dims, seed):
    """A ReLU net with random nonzero biases.

    Zero-bias nets are positively homogeneous, which makes integrated
    gradients from a zero baseline exact for any step count; random biases
    put genuine kinks on the interpolation path so quadrature error exists.
    """
    model = init(dims, seed=seed)
    rng = np.random.default_rng(seed + 10_000)
    for b in model.biases:
        b += rng.normal(scale=0.5, size=b.shape)
    return model


class TestIntegratedGradients:
    def test_exact_on_affine_for_any_steps_and_rule(self):
        rng = np.random.default_rng(1)
        beta = rng.normal(size=4)
        model = linear_as_mlp(beta, 0.8)
        X = rng.normal(size=(10, 4))
        baseline = rng.normal(size=4)
        for steps in (1, 3, 17):
            for rule in ("midpoint", "left", "right", "trapezoid"):
                cfg = AttributionConfig(baseline=baseline, steps=steps, quadrature=rule)
                res = integrated_gradients(model, X, cfg)
                np.testing.assert_allclose(res.attributions, (X - baseline) * beta,
                                           atol=1e-12)
                assert res.completeness_gap.max() < 1e-10

    def test_input_at_baseline_gives_zero(self):
        model = init([3, 8, 1], seed=2)
        baseline = np.array([0.5, -0.5, 1.0])
        res = integrated_gradients(model, baseline[None, :],
                                   AttributionConfig(baseline=baseline, steps=10))
        assert not res.attributions.any()
        assert res.completeness_gap[0] < 1e-12

    def test_completeness_on_standard_init_nets(self):
        # init() nets have zero biases, so the path from the zero baseline
        # crosses no kinks and midpoint integration is exact
        rng = np.random.default_rng(3)
        model = init([5, 20, 20, 20, 1], seed=4)
        X = rng.normal(size=(20, 5))
        res = integrated_gradients(model, X, AttributionConfig(steps=100))
        delta = np.abs(res.outputs - res.baseline_output)
        assert np.all(res.completeness_gap <= 1e-3 * delta + 1e-6)
        ref = integrated_gradients(model, X, AttributionConfig(steps=10_000))
        np.testing.assert_allclose(ref.attributions, res.attributions, atol=1e-10)

    def test_completeness_against_high_resolution_reference(self):
        # with kinks on the path (nonzero biases) the gap is honest
        # quadrature error: far smaller at m=10^4 than at m=100, and the
        # m=100 attributions agree with the reference at the O(1/m) scale
        rng = np.random.default_rng(3)
        model = bumpy_net([5, 20, 20, 20, 1], seed=4)
        X = rng.normal(size=(20, 5))
        res = integrated_gradients(model, X, AttributionConfig(steps=100))
        ref = integrated_gradients(model, X, AttributionConfig(steps=10_000))
        assert ref.completeness_gap.mean() <= 0.05 * res.completeness_gap.mean()
        np.testing.assert_allclose(ref.attributions, res.attributions, atol=0.05)

    def test_construction_identity_machine_precision(self):
        rng = np.random.default_rng(5)
        model = init([4, 12, 1], seed=6)
        X = rng.normal(size=(15, 4))
        res = integrated_gradients(model, X, AttributionConfig(steps=33))
        np.testing.assert_array_equal(res.attributions,
                                      (X - np.zeros(4)) * res.avg_gradients)

    def test_bad_baseline_length(self):
        model = init([3, 1], seed=7)
        with pytest.raises(ValueError):
            integrated_gradients(model, np.zeros((2, 3)),
                                 AttributionConfig(baseline=np.zeros(4)))


class TestAverageGradients:
    def test_linear_rows_equal_beta(self):
        beta = np.array([1.5, -2.0, 0.25])
        model = linear_as_mlp(beta, 0.0)
        X = np.random.default_rng(8).normal(size=(7, 3))
        res = integrated_gradients(model, X, AttributionConfig(steps=11))
        np.testing.assert_allclose(res.avg_gradients,
                                   np.broadcast_to(beta, (7, 3)), atol=1e-6)

    def test_depth0_equals_input_gradients(self):
        model = init([4, 1], seed=9)
        X = np.random.default_rng(10).normal(size=(6, 4))
        res = integrated_gradients(model, X, AttributionConfig(steps=2))
        np.testing.assert_allclose(res.avg_gradients, input_gradients(model, X, 0),
                                   atol=1e-12)

    def test_division_identity_away_from_baseline(self):
        rng = np.random.default_rng(11)
        model = init([3, 10, 1], seed=12)
        X = rng.normal(size=(20, 3))
        res = integrated_gradients(model, X, AttributionConfig(steps=40))
        mask = np.abs(X) > 1e-6
        np.testing.assert_allclose(res.attributions[mask] / X[mask],
                                   res.avg_gradients[mask], atol=1e-10)


class TestCompletenessReport:
    def test_linear_max_gap_tiny(self):
        beta = np.array([2.0, -1.0])
        model = linear_as_mlp(beta, 0.3)
        X = np.random.default_rng(13).normal(size=(9, 2))
        res = integrated_gradients(model, X, AttributionConfig(steps=4))
        report = completeness_report(res)
        assert report.max_gap <= 1e-10
        assert report.flagged_rows.size == 0

    def test_one_step_on_bumpy_net_flags_rows_at_tight_tolerance(self):
        model = bumpy_net([4, 12, 12, 1], seed=300)
        X = np.random.default_rng(18).normal(size=(25, 4))
        res = integrated_gradients(model, X, AttributionConfig(steps=1))
        tight = completeness_report(res, rel_tol=1e-6, abs_tol=1e-9)
        assert tight.flagged_rows.size > 0
        np.testing.assert_array_equal(tight.gaps, res.completeness_gap)
        delta = np.abs(res.outputs - res.baseline_output)
        flagged = np.zeros(25, dtype=bool)
        flagged[tight.flagged_rows] = True
        np.testing.assert_array_equal(flagged, res.completeness_gap > 1e-6 * delta + 1e-9)
        loose = completeness_report(res, rel_tol=1e6, abs_tol=1e6)
        assert loose.flagged_rows.size == 0
        assert loose.max_gap == tight.max_gap > 0

    def test_coarser_quadrature_has_larger_gap(self):
        rng = np.random.default_rng(14)
        worse = 0
        total = 10
        for trial in range(total):
            model = bumpy_net([4, 12, 12, 1], seed=100 + trial)
            X = rng.normal(size=(25, 4))
            gap1 = integrated_gradients(model, X, AttributionConfig(steps=1)
                                        ).completeness_gap.mean()
            gap100 = integrated_gradients(model, X, AttributionConfig(steps=100)
                                          ).completeness_gap.mean()
            if gap1 > gap100:
                worse += 1
        assert worse >= 9  # >= 90% of random nets

    def test_constant_model(self):
        model = MlpModel(weights=[np.zeros((3, 1))], biases=[np.array([2.5])],
                         task="regression")
        X = np.random.default_rng(15).normal(size=(5, 3))
        res = integrated_gradients(model, X, AttributionConfig(steps=3))
        assert not res.attributions.any()
        np.testing.assert_array_equal(res.completeness_gap, np.zeros(5))


class TestQuadratureConvergence:
    def test_gap_decreases_as_steps_double(self):
        rng = np.random.default_rng(16)
        for trial in range(3):
            model = bumpy_net([4, 15, 15, 1], seed=200 + trial)
            X = rng.normal(size=(20, 4))
            gaps = [integrated_gradients(model, X, AttributionConfig(steps=m)
                                         ).completeness_gap.mean()
                    for m in (5, 10, 20, 40, 80, 160, 320)]
            # allow small non-monotone noise from kink placement, but demand
            # an overall strong decrease
            for a, b in zip(gaps, gaps[1:]):
                assert b <= a * 1.5 + 1e-12
            assert gaps[-1] <= 0.2 * gaps[0] + 1e-12

    def test_affine_invariance_depth0(self):
        # shifting input and baseline together, with the compensating bias,
        # leaves attributions unchanged
        rng = np.random.default_rng(17)
        w = rng.normal(size=(3, 1))
        model = MlpModel(weights=[w.copy()], biases=[np.array([0.2])], task="regression")
        X = rng.normal(size=(8, 3))
        baseline = rng.normal(size=3)
        delta = rng.normal(size=3)
        shifted = MlpModel(weights=[w.copy()],
                           biases=[np.array([0.2 - float(delta @ w.ravel())])],
                           task="regression")
        a = integrated_gradients(model, X, AttributionConfig(baseline=baseline, steps=7))
        b = integrated_gradients(shifted, X + delta,
                                 AttributionConfig(baseline=baseline + delta, steps=7))
        np.testing.assert_allclose(a.attributions, b.attributions, atol=1e-10)

