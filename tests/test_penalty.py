import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ablatereg.attribution import AttributionConfig, integrated_gradients
from ablatereg.dataset import DatasetError, FeatureStats
from ablatereg.linear import LinearModel
from ablatereg.nn import init, linear_as_mlp
from ablatereg.penalty import (
    ccp_pairwise,
    ccp_variance_form,
    contributions_linear,
    ml2p,
    ml2p_from_avg_gradients,
)


class TestContributionsLinear:
    def test_definition(self):
        m = LinearModel(beta=np.array([2.0, -1.0]), intercept=0.0)
        c = contributions_linear(m, [3.0, 4.0])
        np.testing.assert_allclose(c, [[6.0, -4.0]])

    def test_zero_model(self):
        m = LinearModel(beta=np.zeros(3), intercept=1.0)
        c = contributions_linear(m, np.random.default_rng(0).normal(size=(5, 3)))
        assert not c.any()

    def test_rows_plus_intercept_equal_predictions(self):
        rng = np.random.default_rng(1)
        m = LinearModel(beta=rng.normal(size=4), intercept=0.7)
        X = rng.normal(size=(20, 4))
        c = contributions_linear(m, X)
        np.testing.assert_allclose(
            c.sum(axis=1) + m.intercept, X @ m.beta + m.intercept, atol=1e-10
        )


class TestCcpPairwise:
    def test_single_feature_is_zero(self):
        assert ccp_pairwise(np.array([[1.0], [2.0], [5.0]])) == 0.0

    def test_hand_oracle(self):
        # cov(c1, c2) = -1 over 2 rows; 2 ordered pairs; times n=2 -> 4
        assert ccp_pairwise(np.array([[1.0, -1.0], [-1.0, 1.0]])) == 4.0

    def test_independent_columns_near_zero(self):
        rng = np.random.default_rng(2)
        n, k = 100_000, 3
        values = rng.standard_normal((n, k))
        # var of the ordered-pair cov sum is ~12/n for unit-variance columns
        assert abs(ccp_pairwise(values)) / n <= 3 * np.sqrt(12 / n)

    def test_needs_two_rows(self):
        with pytest.raises(DatasetError, match="at least 2 rows"):
            ccp_pairwise(np.array([[1.0, 2.0]]))


class TestCcpVarianceForm:
    def test_needs_two_rows(self):
        with pytest.raises(DatasetError, match="at least 2 rows"):
            ccp_variance_form(np.array([[1.0, 2.0]]))

    @pytest.mark.parametrize("ccp", [ccp_pairwise, ccp_variance_form])
    def test_needs_a_matrix(self, ccp):
        with pytest.raises(ValueError, match="2-D"):
            ccp(np.array([1.0, 2.0, 3.0]))

    def test_matches_pairwise_hand_oracle(self):
        assert ccp_variance_form(np.array([[1.0, -1.0], [-1.0, 1.0]])) == 4.0

    def test_reinforcing_contributions_are_rewarded(self):
        # equal contributions with unit variance: n(2v - 4v) = -2nv = -4
        assert ccp_variance_form(np.array([[1.0, 1.0], [-1.0, -1.0]])) == -4.0

    def test_constant_contributions_zero(self):
        assert ccp_variance_form(np.full((4, 3), 2.5)) == 0.0

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_equals_pairwise_property(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 40))
        k = int(rng.integers(1, 6))
        values = rng.normal(size=(n, k)) * rng.uniform(0.1, 5)
        a, b = ccp_pairwise(values), ccp_variance_form(values)
        assert abs(a - b) <= 1e-8 * max(1.0, abs(a))


class TestMatrixFormIdentity:
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_ccp_equals_quadratic_form(self, seed):
        # ccp of linear contributions == beta' (nV - Xc'Xc) beta
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 50))
        k = int(rng.integers(1, 6))
        X = rng.normal(size=(n, k)) * rng.uniform(0.5, 3)
        beta = rng.normal(size=k)
        m = LinearModel(beta=beta, intercept=float(rng.normal()))
        c = contributions_linear(m, X)
        Xc = X - X.mean(axis=0)
        gram = Xc.T @ Xc
        quad = beta @ (np.diag(np.diag(gram)) - gram) @ beta
        assert abs(ccp_pairwise(c) - quad) <= 1e-8 * max(1.0, abs(quad))

    def test_covariance_matrix_symmetric_and_consistent(self):
        rng = np.random.default_rng(4)
        values = rng.normal(size=(30, 4))
        cov = np.cov(values, rowvar=False, bias=True)  # population covariances
        recomputed = values.shape[0] * (np.trace(cov) - cov.sum())
        assert abs(recomputed - ccp_pairwise(values)) < 1e-10


class TestMl2p:
    def test_zero_model(self):
        stats = FeatureStats(means=np.zeros(3), variances=np.ones(3))
        assert ml2p(np.zeros(3), stats) == 0.0

    def test_standardized_is_classic_l2(self):
        stats = FeatureStats(means=np.zeros(2), variances=np.ones(2))
        assert ml2p(np.array([1.0, 2.0]), stats) == 5.0

    def test_hand_oracle(self):
        stats = FeatureStats(means=np.array([3.0]), variances=np.array([2.0]))
        assert ml2p(np.array([2.0]), stats) == 44.0

    def test_permutation_invariant(self):
        rng = np.random.default_rng(5)
        beta = rng.normal(size=5)
        means = rng.normal(size=5)
        variances = rng.uniform(0.1, 2, size=5)
        perm = rng.permutation(5)
        a = ml2p(beta, FeatureStats(means=means, variances=variances))
        b = ml2p(beta[perm], FeatureStats(means=means[perm], variances=variances[perm]))
        assert abs(a - b) < 1e-12

    def test_length_mismatch(self):
        stats = FeatureStats(means=np.zeros(2), variances=np.ones(2))
        with pytest.raises(ValueError):
            ml2p(np.zeros(3), stats)


class TestCcpFromAttributions:
    def test_linear_model_zero_baseline_matches_contributions(self):
        rng = np.random.default_rng(6)
        beta = rng.normal(size=4)
        m = LinearModel(beta=beta, intercept=0.4)
        X = rng.normal(size=(60, 4))
        direct = ccp_pairwise(contributions_linear(m, X))
        attr = integrated_gradients(linear_as_mlp(beta, 0.4), X,
                                    AttributionConfig(steps=25))
        via_attr = ccp_variance_form(attr.attributions)
        assert abs(direct - via_attr) <= 1e-3 * max(1.0, abs(direct))

    def test_depth_zero_network_consistent(self):
        rng = np.random.default_rng(7)
        net = init([3, 1], seed=8)
        X = rng.normal(size=(40, 3))
        attr = integrated_gradients(net, X, AttributionConfig(steps=10))
        cm = attr.attributions
        assert abs(ccp_variance_form(cm) - ccp_pairwise(cm)) <= 1e-6

    def test_deep_net_variance_form_identity(self):
        rng = np.random.default_rng(9)
        net = init([5, 16, 16, 1], seed=10)
        X = rng.normal(size=(1000, 5))
        attr = integrated_gradients(net, X, AttributionConfig(steps=20))
        cm = attr.attributions
        a, b = ccp_variance_form(cm), ccp_pairwise(cm)
        assert abs(a - b) <= 1e-6 * max(1.0, abs(a))


class TestMl2pFromAvgGradients:
    def test_linear_model_recovers_coefficient_penalty(self):
        rng = np.random.default_rng(11)
        beta = rng.normal(size=3)
        X = rng.normal(size=(30, 3)) + 1.0
        stats = FeatureStats(means=X.mean(axis=0), variances=X.var(axis=0))
        attr = integrated_gradients(linear_as_mlp(beta, 0.0), X,
                                    AttributionConfig(steps=5))
        assert abs(ml2p_from_avg_gradients(attr.avg_gradients, stats)
                   - ml2p(beta, stats)) <= 1e-6

    def test_zero_network(self):
        net = linear_as_mlp(np.zeros(3), 0.0)
        X = np.random.default_rng(12).normal(size=(10, 3))
        stats = FeatureStats(means=np.zeros(3), variances=np.ones(3))
        attr = integrated_gradients(net, X, AttributionConfig(steps=4))
        assert ml2p_from_avg_gradients(attr.avg_gradients, stats) == 0.0

    def test_attribution_over_displacement_identity(self):
        # away from the baseline, attributions / (x - x') equals the stored
        # average gradients by construction
        rng = np.random.default_rng(13)
        net = init([4, 12, 1], seed=14)
        X = rng.normal(size=(25, 4))
        attr = integrated_gradients(net, X, AttributionConfig(steps=50))
        displacement = X - np.zeros(4)
        ok = np.abs(displacement) > 1e-6
        ratio = attr.attributions[ok] / displacement[ok]
        np.testing.assert_allclose(ratio, attr.avg_gradients[ok], atol=1e-10)

    def test_rejects_non_finite(self):
        stats = FeatureStats(means=np.zeros(2), variances=np.ones(2))
        with pytest.raises(ValueError):
            ml2p_from_avg_gradients(np.array([[1.0, np.nan]]), stats)
