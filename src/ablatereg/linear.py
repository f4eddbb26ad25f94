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
these solutions against Monte-Carlo augmentation.  One rule gates every
solve and names the suspect columns: when the condition estimate exceeds
1e12, the columns that load on the right singular vectors whose singular
values break that bound are the ones in the error.  Only numpy is used.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .augment import check_lambda
from .dataset import Dataset

CCP = "ccp"
ML2P = "ml2p"

_MAX_CONDITION = 1e12
_LOADING_TOL = 1e-8  # a column loading below this is rounding


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


def _ratios(top, s, power):
    """(top / s) ** power elementwise; a zero singular value reads as inf."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return np.where(s > 0, (top / s) ** power, np.inf)


def _check_condition(M: np.ndarray, power: int, names, what: str) -> None:
    """Raise :class:`SingularModelError` when cond(M) ** power exceeds 1e12.

    The error names every column that loads (above rounding level) on the
    right singular vectors whose singular values break the gate; the SVD
    with vectors runs only then.
    """
    s = np.linalg.svd(M, compute_uv=False)
    condition = float(_ratios(s[0], s[-1], power))
    if condition <= _MAX_CONDITION:
        return
    _, s, vt = np.linalg.svd(M, full_matrices=M.shape[0] < M.shape[1])  # vt is k x k
    s = np.pad(s, (0, vt.shape[0] - s.size))
    weak = vt[~(_ratios(s[0], s, power) <= _MAX_CONDITION)]
    loading = np.sqrt((weak**2).sum(axis=0))
    cols = tuple(name for name, x in zip(names, loading) if x > _LOADING_TOL)
    detail = f" (suspect columns: {', '.join(cols)})" if cols else ""
    raise SingularModelError(
        f"{what} is singular or ill-conditioned (condition estimate {condition:.2e}){detail}",
        columns=cols,
    )


def _solve_system(A: np.ndarray, rhs: np.ndarray, names, context: str) -> np.ndarray:
    """Solve the symmetric k x k system via SVD with an explicit condition gate."""
    A = 0.5 * (A + A.T)
    _check_condition(A, 1, names, f"{context}: system matrix")
    beta, *_ = np.linalg.lstsq(A, rhs, rcond=None)
    return beta


def fit_ols(d: Dataset) -> LinearModel:
    """Ordinary least squares on mean-centered features and response.

    Solved by least squares on the centered design.  When the Gram condition
    (the squared condition of the centered design) exceeds 1e12 it raises
    :class:`SingularModelError` naming every column that loads on the
    offending right singular vectors: both columns of a duplicated pair, or
    every dummy of a one-hot column whose dummies sum to one.
    """
    Xc, yc, mu, ybar = _centered(d)
    _check_condition(Xc, 2, d.column_names, "fit_ols: centered Gram matrix")
    beta, *_ = np.linalg.lstsq(Xc, yc, rcond=None)
    return LinearModel(beta=beta, intercept=ybar - mu @ beta)


def fit_ccp(d: Dataset, lam: float) -> RegularizedFit:
    """Least squares with the contribution-covariance penalty, in closed form.

    The reported objective is |yc - Xc b|^2 + lam * b' (nV - Xc'Xc) b; the
    penalty term can be negative (a reward) when contributions reinforce
    each other, and is reported as-is.
    """
    check_lambda(lam)
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
    check_lambda(lam)
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
