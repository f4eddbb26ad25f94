import os
import subprocess
import sys
import warnings
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from ablatereg.dataset import Dataset, load_csv, one_hot_encode, standardize, synth_correlated
from ablatereg.linear import SingularModelError, fit_ccp, fit_ml2p, fit_ols


def make_dataset(X, y):
    X = np.asarray(X, dtype=np.float64)
    return Dataset(
        features=X,
        response=np.asarray(y, dtype=np.float64),
        column_names=tuple(f"c{j}" for j in range(X.shape[1])),
        column_kinds=("numeric",) * X.shape[1],
        task="regression",
    )


def centered(d):
    X, y = d.features, d.response
    return X - X.mean(axis=0), y - y.mean()


def exact_centered_moments(d):
    """The centered Gram, cross moments and means of ``d``, exactly, as
    rationals."""
    X = [[Fraction(v) for v in row] for row in d.features.tolist()]
    y = [Fraction(v) for v in d.response.tolist()]
    mu = [sum(column) / d.n for column in zip(*X)]
    ybar = sum(y) / d.n
    Xc = [[x - m for x, m in zip(row, mu)] for row in X]
    yc = [v - ybar for v in y]
    gram = [[sum(row[i] * row[j] for row in Xc) for j in range(d.k)] for i in range(d.k)]
    cross = [sum(row[i] * v for row, v in zip(Xc, yc)) for i in range(d.k)]
    return gram, cross, mu


def exact_solve(A, b):
    """Gauss-Jordan elimination over the rationals, rounded to float64 at the end."""
    M = [list(row) + [v] for row, v in zip(A, b)]
    k = len(b)
    for i in range(k):
        pivot = next(r for r in range(i, k) if M[r][i] != 0)
        M[i], M[pivot] = M[pivot], M[i]
        for r in range(k):
            if r != i and M[r][i] != 0:
                factor = M[r][i] / M[i][i]
                M[r] = [a - factor * c for a, c in zip(M[r], M[i])]
    return np.array([float(M[i][k] / M[i][i]) for i in range(k)])


class TestFitOls:
    def test_exact_line(self):
        d = make_dataset([[1.0], [2.0], [3.0]], [2.0, 4.0, 6.0])
        m = fit_ols(d)
        np.testing.assert_allclose(m.beta, [2.0], atol=1e-12)
        assert abs(m.intercept) < 1e-12

    def test_duplicated_column_singular(self):
        X = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0], [4.0, 4.0]])
        d = make_dataset(X, [1.0, 2.0, 3.0, 4.0])
        with pytest.raises(SingularModelError) as err:
            fit_ols(d)
        assert err.value.columns == ("c0", "c1")
        assert str(err.value).endswith("(suspect columns: c0, c1)")

    def test_every_weak_direction_is_named(self):
        # an exact duplicate (singular value 0) and a near duplicate (Gram
        # condition far above 1e12) are two weak directions; a well-posed
        # column between them is not named
        rng = np.random.default_rng(19)
        a, b, c = rng.normal(size=(3, 50))
        X = np.column_stack([a, a, c, b, b + 1e-9 * rng.normal(size=50)])
        with pytest.raises(SingularModelError) as err:
            fit_ols(make_dataset(X, rng.normal(size=50)))
        assert err.value.columns == ("c0", "c1", "c3", "c4")

    def test_one_hot_design_names_every_dummy(self, tmp_path):
        # every level of grp gets a dummy, so the centered dummies sum to zero
        rng = np.random.default_rng(20)
        path = tmp_path / "cat.csv"
        rows = ["x,grp,z,y"] + [f"{rng.normal()!r},{'abc'[i % 3]},{rng.normal()!r},{i * 0.1}"
                                for i in range(30)]
        path.write_text("\n".join(rows) + "\n")
        d = one_hot_encode(load_csv(path, "y"))
        with pytest.raises(SingularModelError) as err:
            fit_ols(d)
        assert err.value.columns == ("grp=a", "grp=b", "grp=c")

    def test_recovers_true_beta(self):
        d = synth_correlated(10_000, 3, 0.3, (1.0, -2.0, 3.0), 0.1, seed=21)
        m = fit_ols(d)
        np.testing.assert_allclose(m.beta, [1.0, -2.0, 3.0], atol=0.05)

    def test_intercept_identity(self):
        d = synth_correlated(200, 3, 0.4, (1.0, 0.5, -1.0), 1.0, seed=22)
        m = fit_ols(d)
        expected = d.response.mean() - d.features.mean(axis=0) @ m.beta
        assert abs(m.intercept - expected) < 1e-8

    def test_residual_orthogonality(self):
        d = synth_correlated(300, 3, 0.5, (1.0, -2.0, 1.5), 1.0, seed=34)
        m = fit_ols(d)
        resid = d.response - (m.intercept + d.features @ m.beta)
        Xc = d.features - d.features.mean(axis=0)
        assert np.abs(Xc.T @ resid).max() < 1e-6


class TestFitCcp:
    def test_lambda_zero_is_ols(self):
        d = synth_correlated(100, 3, 0.5, (1.0, 2.0, -1.0), 1.0, seed=23)
        fit = fit_ccp(d, 0.0)
        np.testing.assert_allclose(fit.model.beta, fit_ols(d).beta, atol=1e-8)

    def test_lambda_to_one_univariate_regressions(self):
        d = synth_correlated(150, 3, 0.7, (1.0, -1.0, 2.0), 1.0, seed=24)
        Xc, yc = centered(d)
        univariate = np.array([(Xc[:, j] @ yc) / (Xc[:, j] @ Xc[:, j]) for j in range(3)])
        fit = fit_ccp(d, 1.0 - 1e-9)
        np.testing.assert_allclose(fit.model.beta, univariate, atol=1e-4)

    def test_uncorrelated_design_matches_ols_for_all_lambda(self):
        # exactly orthogonal, zero-mean columns: Xc'Xc diagonal == nV
        rng = np.random.default_rng(25)
        raw = rng.standard_normal((40, 3))
        raw -= raw.mean(axis=0)
        q, _ = np.linalg.qr(raw)
        d = make_dataset(q, q @ np.array([1.0, -2.0, 0.5]) + 0.1 * rng.standard_normal(40))
        ols_beta = fit_ols(d).beta
        for lam in (0.1, 0.5, 0.9, 1 - 1e-9):
            np.testing.assert_allclose(fit_ccp(d, lam).model.beta, ols_beta, atol=1e-8)

    def test_objective_value_reported(self):
        d = synth_correlated(60, 2, 0.6, (1.0, 1.0), 0.5, seed=26)
        lam = 0.4
        fit = fit_ccp(d, lam)
        Xc, yc = centered(d)
        gram = Xc.T @ Xc
        penalty = fit.model.beta @ (np.diag(np.diag(gram)) - gram) @ fit.model.beta
        resid = yc - Xc @ fit.model.beta
        assert abs(fit.objective_value - (resid @ resid + lam * penalty)) < 1e-8

    def test_rejects_lambda_out_of_range(self):
        d = synth_correlated(20, 2, 0.1, (1.0, 1.0), 1.0, seed=27)
        with pytest.raises(ValueError):
            fit_ccp(d, 1.0)


class TestFitMl2p:
    def test_lambda_zero_is_ols(self):
        d = synth_correlated(100, 3, 0.5, (1.0, 2.0, -1.0), 1.0, seed=28)
        fit = fit_ml2p(d, 0.0)
        np.testing.assert_allclose(fit.model.beta, fit_ols(d).beta, atol=1e-8)

    def test_standardized_equals_classical_ridge(self):
        # independent oracle: eigendecomposition spectral filter
        d = synth_correlated(120, 4, 0.5, (1.0, -1.0, 2.0, 0.5), 1.0, seed=29)
        ds, _ = standardize(d)
        for lam in (0.2, 0.5, 0.8):
            fit = fit_ml2p(ds, lam)
            Xc, yc = centered(ds)
            alpha = ds.n * lam / (1.0 - lam)
            w, v = np.linalg.eigh(Xc.T @ Xc)
            ridge = v @ ((v.T @ (Xc.T @ yc)) / (w + alpha))
            np.testing.assert_allclose(fit.model.beta, ridge, atol=1e-8)

    def test_lambda_to_one_crushes_coefficients(self):
        d = synth_correlated(80, 3, 0.4, (3.0, -2.0, 1.0), 1.0, seed=30)
        fit = fit_ml2p(d, 1.0 - 1e-9)
        assert np.linalg.norm(fit.model.beta) < 1e-6

    def test_monotone_shrinkage_standardized(self):
        for seed in (31, 32, 33):
            d = synth_correlated(90, 3, 0.6, (1.0, 2.0, -1.5), 1.0, seed=seed)
            ds, _ = standardize(d)
            norms = [np.linalg.norm(fit_ml2p(ds, lam).model.beta)
                     for lam in (0.0, 0.2, 0.4, 0.6, 0.8)]
            assert all(b <= a + 1e-12 for a, b in zip(norms, norms[1:]))


class TestSolverInvariants:
    def test_normal_equation_residual(self):
        d = synth_correlated(150, 4, 0.6, (1.0, 0.5, -1.0, 2.0), 1.0, seed=35)
        Xc, yc = centered(d)
        gram = Xc.T @ Xc
        rhs = Xc.T @ yc
        beta = fit_ols(d).beta
        assert np.linalg.norm(gram @ beta - rhs) <= 1e-6 * np.linalg.norm(rhs)
        lam = 0.3
        beta = fit_ccp(d, lam).model.beta
        system = (1 - lam) * gram + lam * np.diag(np.diag(gram))
        assert np.linalg.norm(system @ beta - rhs) <= 1e-6 * np.linalg.norm(rhs)
        beta = fit_ml2p(d, lam).model.beta
        mu = d.features.mean(axis=0)
        dmat = np.diag(np.diag(gram) / d.n + mu**2)
        system = gram + d.n * lam / (1 - lam) * dmat
        assert np.linalg.norm(system @ beta - rhs) <= 1e-6 * np.linalg.norm(rhs)

    def test_ccp_matches_gradient_descent(self):
        # independent minimizer of |yc - Xc b|^2 + lam b'(nV - Xc'Xc)b
        d = synth_correlated(80, 3, 0.7, (1.0, -1.0, 0.5), 1.0, seed=36)
        Xc, yc = centered(d)
        gram = Xc.T @ Xc
        nv = np.diag(np.diag(gram))
        rng = np.random.default_rng(37)
        for lam in (0.1, 0.5, 0.9):
            closed = fit_ccp(d, lam).model.beta
            hessian = 2 * ((1 - lam) * gram + lam * nv)
            step = 1.0 / np.linalg.eigvalsh(hessian).max()
            for _ in range(3):
                beta = rng.standard_normal(3)
                for _ in range(20_000):
                    grad = -2 * Xc.T @ (yc - Xc @ beta) + 2 * lam * (nv - gram) @ beta
                    beta = beta - step * grad
                    if np.linalg.norm(grad) < 1e-10:
                        break
                np.testing.assert_allclose(beta, closed, atol=1e-4)

    def test_two_correlated_features_balanced(self):
        # near-collinear pair with equal variances: the coefficient gap
        # shrinks by >= 10x at lam = 0.9
        rng = np.random.default_rng(38)
        n = 400
        z = rng.standard_normal(n)
        w = rng.standard_normal(n)
        rho = 0.9995
        x1 = z
        x2 = rho * z + np.sqrt(1 - rho**2) * w
        X = np.column_stack([x1, x2])
        y = x1 + 0.3 * x2 + 0.05 * rng.standard_normal(n)
        d = make_dataset(X, y)
        assert np.corrcoef(X.T)[0, 1] >= 0.999
        gap_ols = abs(fit_ols(d).beta[0] - fit_ols(d).beta[1])
        beta = fit_ccp(d, 0.9).model.beta
        assert abs(beta[0] - beta[1]) <= 0.1 * gap_ols

    def test_zero_variance_column_surfaces_singularity(self):
        X = np.column_stack([np.ones(10), np.arange(10.0)])
        d = make_dataset(X, np.arange(10.0))
        with pytest.raises(SingularModelError) as err:
            fit_ccp(d, 0.5)
        assert err.value.columns == ("c0",)

    def test_exactly_singular_system_reports_infinite_condition_without_warning(self):
        X = np.column_stack([np.ones(10), np.arange(10.0)])
        d = make_dataset(X, np.arange(10.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularModelError, match=r"condition estimate inf\)"):
                fit_ccp(d, 0.5)

    @pytest.mark.parametrize("n", [3, 10])
    @pytest.mark.parametrize("value", [0.1, 3.7])
    def test_constant_column_with_inexact_mean_is_named(self, value, n):
        # the computed mean of a column of 0.1 or 3.7 is not the value, so
        # centering leaves rounding that Jacobi scaling would blow up to unit size
        X = np.column_stack([np.full(n, value), np.arange(n, dtype=np.float64) ** 1.5])
        d = make_dataset(X, np.arange(n, dtype=np.float64))
        for fit in (fit_ols, lambda d: fit_ccp(d, 0.5)):
            with pytest.raises(SingularModelError, match=r"condition estimate inf\)") as err:
                fit(d)
            assert err.value.columns == ("c0",)
        # ML2P's penalty keeps the system regular; the constant column gets no weight
        assert fit_ml2p(d, 0.5).model.beta[0] == 0.0


class TestOneSolve:
    """OLS, CCP and ML2P are one Jacobi-scaled Gram solve with different
    penalties; the gate reads the scaled system."""

    FITS = {
        "ols": fit_ols,
        "ccp": lambda d: fit_ccp(d, 0.3).model,
        "ml2p": lambda d: fit_ml2p(d, 0.3).model,
    }

    @pytest.mark.parametrize("seed", [3, 4, 5])
    @pytest.mark.parametrize("fit", [fit_ccp, fit_ml2p])
    def test_lambda_zero_is_ols_bit_for_bit(self, fit, seed):
        # (1 - 0) G + 0 nV and G + 0 D are G itself
        d = synth_correlated(200, 3, 0.5, (1, 0.8, 2), 0.5, seed=seed)
        model, ols = fit(d, 0.0).model, fit_ols(d)
        assert np.array_equal(model.beta, ols.beta) and model.intercept == ols.intercept

    @pytest.mark.parametrize("exponent", [20, -20])
    @pytest.mark.parametrize("name", sorted(FITS))
    def test_a_power_of_two_column_scale_scales_its_coefficient_exactly(self, name, exponent):
        # the fits are equivariant under column scaling, and a power of two
        # rescales every rounding with it, so the bits follow
        scale = np.array([2.0**exponent, 1.0, 1.0])
        for seed in (3, 4, 5):
            d = synth_correlated(200, 3, 0.5, (1, 0.8, 2), 0.5, seed=seed)
            model = self.FITS[name](d)
            scaled = self.FITS[name](replace(d, features=d.features * scale))
            assert np.array_equal(scaled.beta, model.beta / scale)
            assert scaled.intercept == model.intercept

    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_ml2p_fits_a_column_with_mean_1e8(self, seed):
        # D = diag(v + mu^2) puts 1e16 on one diagonal entry; unscaled, the
        # gate read that as a condition of about 5e15
        d = synth_correlated(50, 3, 0.5, (1, 0.8, 2), 0.5, seed=seed)
        X = np.round(d.features * 2**10) / 2**10  # dyadic, so the shift is exact
        X[-1, 1] = -X[:-1, 1].sum()  # and the mean is exactly 1e8
        X[:, 1] += 1e8
        d = replace(d, features=X)
        lam = 0.3
        gram, cross, mu = exact_centered_moments(d)
        ratio = Fraction(lam) / (1 - Fraction(lam))
        for j in range(d.k):
            gram[j][j] += d.n * ratio * (gram[j][j] / d.n + mu[j] ** 2)
        exact = exact_solve(gram, cross)
        beta = fit_ml2p(d, lam).model.beta
        assert np.abs(beta - exact).max() <= 1e-14 * np.abs(exact).max()

    @pytest.mark.parametrize("correlation", [1 - 1e-6, 1 - 1e-11])
    def test_ols_accuracy_is_bounded_by_the_gated_condition(self, correlation):
        # the cost of solving the normal equations: OLS's error grows with
        # cond(S G S), about cond(Xc)^2, not with cond(Xc); 1 - 1e-11 puts
        # cond(S G S) at 4.3e11, near the 1e12 gate
        d = synth_correlated(120, 4, correlation, (1, -2, 3, 0.5), 1, seed=5)
        gram, cross, _ = exact_centered_moments(d)
        exact = exact_solve(gram, cross)
        G = np.array([[float(v) for v in row] for row in gram])
        s = 1 / np.sqrt(np.diag(G))
        condition = np.linalg.cond(s[:, None] * G * s)
        error = np.abs(fit_ols(d).beta - exact).max() / np.abs(exact).max()
        assert error <= 10 * condition * 2.0**-52


NON_FINITE_FITS = """
from dataclasses import replace
from ablatereg.dataset import synth_correlated
from ablatereg.linear import SingularModelError, fit_ccp, fit_ml2p, fit_ols
d = synth_correlated(200, 3, 0.5, (1, 0.8, 2), 0.5, seed=3)
features = d.features.copy()
features[0, 0] = 1e200  # its square overflows
d = replace(d, features=features)
for fit in (fit_ols, lambda d: fit_ccp(d, 0.3), lambda d: fit_ml2p(d, 0.3)):
    try:
        fit(d)
        print("fitted")
    except SingularModelError as err:
        print(",".join(err.columns), err, sep="|")
"""


def test_a_non_finite_system_is_named_before_any_svd():
    # the SVD of a system with an infinite entry need not return, so the
    # fits run in a fresh interpreter under a time limit: a hang fails here
    # instead of stalling the suite
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", NON_FINITE_FITS],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert [line.split("|")[0] for line in lines] == ["x0"] * 3
    assert lines[0].endswith("fit_ols: system matrix is not finite (columns: x0)")
    assert lines[1].endswith("fit_ccp: system matrix is not finite (columns: x0)")
    assert lines[2].endswith("fit_ml2p: system matrix is not finite (columns: x0)")
