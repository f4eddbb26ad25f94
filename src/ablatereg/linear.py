"""Closed-form linear solvers.

Three estimators are one mean-centered normal-equation solve with different
penalties:

* ``fit_ols``      —  beta = (Xc' Xc)^-1 Xc' yc
* ``fit_ccp``      —  beta = ((1-lam) Xc' Xc + n lam V)^-1 Xc' yc
* ``fit_ml2p``     —  beta = (Xc' Xc + n lam/(1-lam) D)^-1 Xc' yc

where Xc, yc are column-mean-centered, V = diag(population variances) and
D = diag(second moments v_j + mu_j^2).  Note n*V is exactly the diagonal of
Xc'Xc, so the CCP system is a convex combination of the Gram matrix and its
own diagonal: raising lam scales the off-diagonals down, and at lam -> 1 the
solution degenerates into k independent single-variable regressions.  At
lam = 0 both systems are the Gram matrix bit for bit, so both fits are OLS.

Singularity is a reported error, never silently jittered away: adding an
unrequested ridge would contaminate the equivalence checks that compare
these solutions against Monte-Carlo augmentation.  One rule gates every
solve and names the suspect columns: the k x k system A is Jacobi scaled,
S = diag(A)^-1/2, so that feature units do not decide the gate (van der
Sluis 1969), and when cond(S A S) exceeds 1e12, the columns that load on
the right singular vectors whose singular values break that bound are the
ones in the error.  The normal equations square the condition of the
centered design: OLS on a near-collinear design keeps about
cond(S A S) * 2^-52 relative accuracy (2e-4 at the gate), as the penalized
fits always did.  Only numpy is used.
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
    X, y = d.features, d.response
    mu = X.mean(axis=0)
    ybar = float(y.mean())
    Xc = X - mu
    Xc[:, (X == X[:1]).all(axis=0)] = 0.0  # a constant's mean can be inexact: 0.1 at n = 3
    return Xc, y - ybar, mu, ybar


def _check_condition(A: np.ndarray, names, what: str) -> None:
    """Raise :class:`SingularModelError` when cond(A) exceeds 1e12.

    The error names every column that loads (above rounding level) on the
    right singular vectors whose singular values break the gate; the SVD
    with vectors runs only then.  A system that is not finite is an error
    naming its non-finite columns, before any SVD.
    """
    cols = tuple(name for name, finite in zip(names, np.isfinite(A).all(axis=0)) if not finite)
    if cols:
        raise SingularModelError(f"{what} is not finite (columns: {', '.join(cols)})",
                                 columns=cols)
    s = np.linalg.svd(A, compute_uv=False)
    if s[-1] > 0 and s[0] <= _MAX_CONDITION * s[-1]:
        return
    _, s, vt = np.linalg.svd(A)
    with np.errstate(over="ignore"):
        condition = s[0] / s[-1] if s[-1] > 0 else np.inf
    weak = vt[(s == 0) | (s[0] > _MAX_CONDITION * s)]
    loading = np.sqrt((weak**2).sum(axis=0))
    cols = tuple(name for name, x in zip(names, loading) if x > _LOADING_TOL)
    detail = f" (suspect columns: {', '.join(cols)})" if cols else ""
    raise SingularModelError(
        f"{what} is singular or ill-conditioned (condition estimate {condition:.2e}){detail}",
        columns=cols,
    )


def _solve_system(A: np.ndarray, rhs: np.ndarray, names, context: str) -> np.ndarray:
    """Solve the symmetric k x k system, Jacobi scaled, via SVD behind the
    condition gate; a zero diagonal (a constant column) stays unscaled."""
    A = 0.5 * (A + A.T)
    diagonal = np.diag(A)
    # an infinite diagonal scales its entry to nan, which the gate names
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = np.where(diagonal > 0, 1.0 / np.sqrt(diagonal), 1.0)
        A = scale[:, None] * A * scale
    _check_condition(A, names, f"{context}: system matrix")
    beta, *_ = np.linalg.lstsq(A, scale * rhs, rcond=None)
    return scale * beta


def normal_equations(d: Dataset, lam: float, kind: str):
    """The centered normal equations of the ``kind`` fit ("ols", CCP or ML2P)
    at ``lam``: the system A, the right-hand side Xc'yc, the penalty as a
    function of beta, and the centered design ``(Xc, yc, mu, ybar)``.  They
    also state each theorem's law: a synthetic set's per-row centered Gram
    and cross moments tend to (1-lam) A/n and (1-lam) Xc'yc/n for CCP under
    mean ablation (Theorem 1), and to A/n and Xc'yc/n for ML2P under
    inverted dropout (Theorem 2)."""
    check_lambda(lam)
    Xc, yc, mu, ybar = _centered(d)
    with np.errstate(over="ignore", invalid="ignore"):  # the gate names an overflowed system
        gram = Xc.T @ Xc
        if kind == CCP:
            nV = np.diag(np.diag(gram))  # n * population variances, exactly
            A = (1.0 - lam) * gram + lam * nV
            penalty = lambda beta: lam * (beta @ (nV - gram) @ beta)
        elif kind == ML2P:
            second_moments = np.diag(gram) / d.n + mu**2  # v_j + mu_j^2
            A = gram + d.n * (lam / (1.0 - lam)) * np.diag(second_moments)
            penalty = lambda beta: d.n * (lam / (1.0 - lam)) * np.sum(second_moments * beta**2)
        else:
            A, penalty = gram, lambda beta: 0.0
    return A, Xc.T @ yc, penalty, (Xc, yc, mu, ybar)


def _closed_form(d: Dataset, lam: float, kind: str) -> RegularizedFit:
    """The one solve of every fit, of the system :func:`normal_equations` builds."""
    A, rhs, penalty, (Xc, yc, mu, ybar) = normal_equations(d, lam, kind)
    beta = _solve_system(A, rhs, d.column_names, f"fit_{kind}")
    resid = yc - Xc @ beta
    objective = float(resid @ resid + penalty(beta))
    model = LinearModel(beta=beta, intercept=ybar - mu @ beta)
    return RegularizedFit(model=model, lam=lam, penalty_kind=kind, objective_value=objective)


def fit_ols(d: Dataset) -> LinearModel:
    """Ordinary least squares on mean-centered features and response: the
    one solve with no penalty, so ``fit_ccp`` and ``fit_ml2p`` at lam = 0
    return the same bits.  When the gated condition exceeds 1e12 it raises
    :class:`SingularModelError` naming every column that loads on the
    offending right singular vectors: both columns of a duplicated pair, or
    every dummy of a one-hot column whose dummies sum to one.  Its relative
    error is about cond(S G S) * 2^-52, so up to 2e-4 at the gate's edge.
    """
    return _closed_form(d, 0.0, "ols").model


def fit_ccp(d: Dataset, lam: float) -> RegularizedFit:
    """Least squares with the contribution-covariance penalty, in closed form.

    The reported objective is |yc - Xc b|^2 + lam * b' (nV - Xc'Xc) b; the
    penalty term can be negative (a reward) when contributions reinforce
    each other, and is reported as-is.
    """
    return _closed_form(d, lam, CCP)


def fit_ml2p(d: Dataset, lam: float) -> RegularizedFit:
    """Least squares with the second-moment-scaled L2 penalty, in closed form.

    On standardized data (zero means, unit variances) this is classical
    ridge with parameter n*lam/(1-lam).
    """
    return _closed_form(d, lam, ML2P)
