"""Closed-form linear solvers.

Three estimators share one mean-centered normal-equation core:

* ``fit_ols``      —  beta = (Xc' Xc)^-1 Xc' yc
* ``fit_ccp``      —  beta = ((1-lam) Xc' Xc + n lam V)^-1 Xc' yc
* ``fit_ml2p``     —  beta = (Xc' Xc + n lam/(1-lam) D)^-1 Xc' yc

where Xc, yc are column-mean-centered, V = diag(population variances) and
D = diag(second moments v_j + mu_j^2).  Note n*V is exactly the diagonal of
Xc'Xc, so the CCP system is a convex combination of the Gram matrix and its
own diagonal: raising lam scales the off-diagonals down, and at lam -> 1 the
solution degenerates into k independent single-variable regressions.

Singularity is a reported error, never silently jittered away: adding an
unrequested ridge would contaminate the equivalence checks that compare
these solutions against Monte-Carlo augmentation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .dataset import Dataset

CCP = "ccp"
ML2P = "ml2p"

_MAX_CONDITION = 1e12


class SingularModelError(ValueError):
    """The (possibly regularized) normal-equation system is numerically singular."""

    def __init__(self, message: str, columns: tuple[str, ...] = ()):
        super().__init__(message)
        self.columns = columns


@dataclass(frozen=True)
class LinearModel:
    beta: np.ndarray
    intercept: float

    def __post_init__(self):
        beta = np.asarray(self.beta, dtype=np.float64).ravel()
        if not np.all(np.isfinite(beta)) or not np.isfinite(self.intercept):
            raise ValueError("linear model parameters must be finite")
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "intercept", float(self.intercept))

    @property
    def k(self) -> int:
        return self.beta.shape[0]


@dataclass(frozen=True)
class RegularizedFit:
    model: LinearModel
    lam: float
    penalty_kind: str
    objective_value: float


def _centered(d: Dataset):
    X = d.features
    y = d.response
    mu = X.mean(axis=0)
    ybar = float(y.mean())
    return X - mu, y - ybar, mu, ybar


def _suspect_columns(Xc: np.ndarray, names) -> tuple[str, ...]:
    """Best-effort identification of linearly dependent columns via pivoted QR."""
    try:
        r_factor, piv = scipy.linalg.qr(Xc, mode="r", pivoting=True)
    except Exception:
        return ()
    diag = np.abs(np.diag(r_factor))
    if diag.size == 0 or diag[0] == 0:
        return tuple(names)
    rank = int(np.sum(diag > diag[0] * 1e-10))
    return tuple(names[j] for j in piv[rank:])


def _solve_system(A: np.ndarray, rhs: np.ndarray, names, context: str) -> np.ndarray:
    """Solve the symmetric k x k system via SVD with an explicit condition gate."""
    A = 0.5 * (A + A.T)
    s = np.linalg.svd(A, compute_uv=False)
    if s[-1] > 0:
        with np.errstate(over="ignore"):  # a huge ratio reads as inf
            condition = s[0] / s[-1]
    else:
        condition = np.inf
    if condition > _MAX_CONDITION:
        zero_diag = tuple(names[j] for j in np.flatnonzero(np.abs(np.diag(A)) <= s[0] * 1e-15))
        detail = f" (suspect columns: {', '.join(zero_diag)})" if zero_diag else ""
        raise SingularModelError(
            f"{context}: system matrix is singular or ill-conditioned "
            f"(condition estimate {condition:.2e}){detail}",
            columns=zero_diag,
        )
    beta, *_ = np.linalg.lstsq(A, rhs, rcond=None)
    return beta


def fit_ols(d: Dataset) -> LinearModel:
    """Ordinary least squares on mean-centered features and response.

    Solved by SVD of the centered design; raises :class:`SingularModelError`
    with the suspect column names when the Gram condition exceeds 1e12.
    """
    Xc, yc, mu, ybar = _centered(d)
    s = np.linalg.svd(Xc, compute_uv=False)
    gram_cond = np.inf if s[-1] == 0 else (s[0] / s[-1]) ** 2
    if not np.isfinite(gram_cond) or gram_cond > _MAX_CONDITION:
        cols = _suspect_columns(Xc, d.column_names)
        detail = f" (suspect columns: {', '.join(cols)})" if cols else ""
        raise SingularModelError(
            f"fit_ols: centered Gram matrix is singular or ill-conditioned "
            f"(condition estimate {gram_cond:.2e}){detail}",
            columns=cols,
        )
    beta, *_ = np.linalg.lstsq(Xc, yc, rcond=None)
    return LinearModel(beta=beta, intercept=ybar - mu @ beta)


def fit_ccp(d: Dataset, lam: float) -> RegularizedFit:
    """Least squares with the contribution-covariance penalty, in closed form.

    The reported objective is |yc - Xc b|^2 + lam * b' (nV - Xc'Xc) b; the
    penalty term can be negative (a reward) when contributions reinforce
    each other, and is reported as-is.
    """
    if not 0.0 <= lam < 1.0:
        raise ValueError(f"lambda must be in [0, 1), got {lam}")
    Xc, yc, mu, ybar = _centered(d)
    gram = Xc.T @ Xc
    nV = np.diag(np.diag(gram))  # n * population variances, exactly
    A = (1.0 - lam) * gram + lam * nV
    beta = _solve_system(A, Xc.T @ yc, d.column_names, "fit_ccp")
    resid = yc - Xc @ beta
    objective = float(resid @ resid + lam * (beta @ (nV - gram) @ beta))
    model = LinearModel(beta=beta, intercept=ybar - mu @ beta)
    return RegularizedFit(model=model, lam=lam, penalty_kind=CCP, objective_value=objective)


def fit_ml2p(d: Dataset, lam: float) -> RegularizedFit:
    """Least squares with the second-moment-scaled L2 penalty, in closed form.

    On standardized data (zero means, unit variances) this is classical
    ridge with parameter n*lam/(1-lam).
    """
    if not 0.0 <= lam < 1.0:
        raise ValueError(f"lambda must be in [0, 1), got {lam}")
    Xc, yc, mu, ybar = _centered(d)
    n = d.n
    gram = Xc.T @ Xc
    second_moments = np.diag(gram) / n + mu**2  # v_j + mu_j^2
    ratio = lam / (1.0 - lam)
    A = gram + n * ratio * np.diag(second_moments)
    beta = _solve_system(A, Xc.T @ yc, d.column_names, "fit_ml2p")
    resid = yc - Xc @ beta
    objective = float(resid @ resid + n * ratio * np.sum(second_moments * beta**2))
    model = LinearModel(beta=beta, intercept=ybar - mu @ beta)
    return RegularizedFit(model=model, lam=lam, penalty_kind=ML2P, objective_value=objective)


def predict(m: LinearModel, X) -> np.ndarray:
    """Evaluate intercept + X beta row-wise."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 1:
        X = X[None, :]
    if X.shape[1] != m.k:
        raise ValueError(f"X has {X.shape[1]} columns, model expects {m.k}")
    return m.intercept + X @ m.beta
