"""Penalty evaluation on contribution and attribution matrices.

A contribution matrix is an n x k array whose entry (i, j) is feature j's
additive share of the score on input i: beta_j * x_ij for a linear model
(:func:`contributions_linear`), or the integrated-gradients attributions
``AttributionResult.attributions`` for a network.  The score is the row sum
plus a constant (the intercept, or the baseline output), and the constant
changes no variance, so the penalties take the array alone.

The contribution-covariance penalty sums n * -cov over ordered feature pairs
(anticorrelated contributions are penalized, reinforcing ones rewarded); the
variance form n*(sum_j var_j - var(row sum)) is the O(k) way to compute it
and agrees with the pairwise form up to rounding.

All variances/covariances are population (divide by n) to keep the matrix
identity ccp = beta' (nV - Xc'Xc) beta exact.
"""

from __future__ import annotations

import numpy as np

from .dataset import DatasetError, FeatureStats
from .linear import LinearModel


def contributions_linear(m: LinearModel, X) -> np.ndarray:
    """Contribution of feature j on row i is beta_j * x_ij; the row sums plus
    the intercept reproduce the model predictions exactly."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 1:
        X = X[None, :]
    if X.shape[1] != m.k:
        raise ValueError(f"X has {X.shape[1]} columns, model expects {m.k}")
    return X * m.beta


def _contribution_rows(contributions) -> np.ndarray:
    """``contributions`` as a float matrix of at least 2 rows; fewer rows
    raise :class:`~ablatereg.dataset.DatasetError`."""
    c = np.asarray(contributions, dtype=np.float64)
    if c.ndim != 2:
        raise ValueError("contributions must be a 2-D matrix")
    if c.shape[0] < 2:
        raise DatasetError(f"CCP needs at least 2 rows to estimate covariances, got {c.shape[0]}")
    return c


def ccp_pairwise(contributions) -> float:
    """n * sum over ordered pairs j != k of -cov(contribution_j, contribution_k)."""
    c = _contribution_rows(contributions)
    n = c.shape[0]
    centered = c - c.mean(axis=0)
    cov = centered.T @ centered / n  # population covariances
    return float(n * (np.trace(cov) - cov.sum()))


def ccp_variance_form(contributions) -> float:
    """The O(k) form n*(sum_j var(contribution_j) - var(sum_j contribution_j)),
    equal to :func:`ccp_pairwise` up to rounding."""
    c = _contribution_rows(contributions)
    return float(c.shape[0] * (c.var(axis=0).sum() - c.sum(axis=1).var()))


def ml2p(beta_like, stats: FeatureStats) -> float:
    """Second-moment-scaled squared-coefficient penalty sum_j (v_j + mu_j^2) b_j^2."""
    beta = np.asarray(beta_like, dtype=np.float64).ravel()
    if beta.shape[0] != stats.k:
        raise ValueError(f"beta has length {beta.shape[0]}, stats have {stats.k}")
    return float(np.sum(stats.second_moments * beta**2))


def ml2p_from_avg_gradients(avg_grads, stats: FeatureStats) -> float:
    """ML2P with path-averaged gradients standing in for coefficients.

    Each feature's coefficient proxy is the arithmetic mean of its average
    gradients over the evaluation inputs.
    """
    avg_grads = np.asarray(avg_grads, dtype=np.float64)
    if not np.all(np.isfinite(avg_grads)):
        raise ValueError("average gradients contain non-finite values")
    return ml2p(avg_grads.mean(axis=0), stats)
