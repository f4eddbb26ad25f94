"""Penalty evaluation on contribution/attribution matrices.

The contribution-covariance penalty sums n * -cov over ordered feature pairs
(anticorrelated contributions are penalized, reinforcing ones rewarded); the
variance form n*(sum_j var_j - var(score)) is the O(k) way to compute it and
agrees with the pairwise form identically because the decomposed score is
the row sum of contributions plus a constant.

All variances/covariances are population (divide by n) to keep the matrix
identity ccp = beta' (nV - Xc'Xc) beta exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import FeatureStats
from .linear import LinearModel


@dataclass(frozen=True)
class ContributionMatrix:
    """Per-input, per-feature additive shares of a decomposed score.

    ``values[i, j]`` is feature j's share on input i; ``predictions[i]`` is
    the decomposed score (row sum plus the constant term).
    """

    values: np.ndarray
    predictions: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        predictions = np.asarray(self.predictions, dtype=np.float64).ravel()
        if values.ndim != 2:
            raise ValueError("contribution values must be a 2-D matrix")
        if predictions.shape[0] != values.shape[0]:
            raise ValueError("predictions length must match contribution rows")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "predictions", predictions)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def k(self) -> int:
        return self.values.shape[1]


def contributions_linear(m: LinearModel, X) -> ContributionMatrix:
    """Contribution of feature j on row i is beta_j * x_ij; the row sums plus
    the intercept reproduce the model predictions exactly."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 1:
        X = X[None, :]
    if X.shape[1] != m.k:
        raise ValueError(f"X has {X.shape[1]} columns, model expects {m.k}")
    values = X * m.beta
    return ContributionMatrix(values=values, predictions=m.intercept + values.sum(axis=1))


def ccp_pairwise(c: ContributionMatrix) -> float:
    """n * sum over ordered pairs j != k of -cov(contribution_j, contribution_k)."""
    if c.n < 2:
        raise ValueError("need at least 2 rows to estimate covariances")
    centered = c.values - c.values.mean(axis=0)
    cov = centered.T @ centered / c.n  # population covariances
    return float(c.n * (np.trace(cov) - cov.sum()))


def ccp_variance_form(c: ContributionMatrix) -> float:
    """The O(k) form n*(sum_j var(contribution_j)) - n*var(score).

    The constant term drops out of var(score) automatically, so this equals
    :func:`ccp_pairwise` up to rounding.  Attributions stand in for
    contributions through :func:`ablatereg.attribution.as_contributions`.
    """
    if c.n < 2:
        raise ValueError("need at least 2 rows to estimate variances")
    var_sum = float(c.values.var(axis=0).sum())
    return float(c.n * (var_sum - c.predictions.var()))


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
