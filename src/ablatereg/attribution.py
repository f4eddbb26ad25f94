"""Integrated gradients along the straight-line path from a baseline.

:class:`AttributionResult` holds everything one evaluation yields: the
attributions, the path-averaged gradients (the network analogue of
coefficients, read as ``result.avg_gradients``), the model outputs at the
inputs and at the baseline, and each row's completeness gap.
:func:`completeness_report` summarizes those gaps without recomputing them,
and :func:`as_contributions` hands the attributions to :mod:`ablatereg.penalty`.

The average gradients are accumulated directly from path evaluations, never
recovered by dividing attributions by (x - baseline), so they stay
well-defined on coordinates where the input equals the baseline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .nn import MlpModel, _as_rows, input_gradients, predict
from .penalty import ContributionMatrix

QUADRATURES = ("midpoint", "left", "right", "trapezoid")


@dataclass(frozen=True)
class AttributionConfig:
    """Baseline defaults to the all-zero vector, which on standardized data
    is the feature-mean point; ``steps`` is the Riemann-sum resolution."""

    baseline: np.ndarray | None = None
    steps: int = 100
    quadrature: str = "midpoint"
    output_index: int = 0

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.quadrature not in QUADRATURES:
            raise ValueError(f"quadrature must be one of {QUADRATURES}")
        if self.baseline is not None:
            baseline = np.asarray(self.baseline, dtype=np.float64).ravel()
            if not np.all(np.isfinite(baseline)):
                raise ValueError("baseline must be finite")
            object.__setattr__(self, "baseline", baseline)


@dataclass(frozen=True)
class AttributionResult:
    """attributions = (x - baseline) * avg_gradients by construction;
    completeness_gap[i] = |sum_j attributions[i, j] - (F(x_i) - F(baseline))|."""

    attributions: np.ndarray
    avg_gradients: np.ndarray
    completeness_gap: np.ndarray
    outputs: np.ndarray
    baseline_output: float


def _path_nodes(steps: int, quadrature: str) -> tuple[np.ndarray, np.ndarray]:
    m = steps
    if quadrature == "midpoint":
        return (np.arange(m) + 0.5) / m, np.full(m, 1.0 / m)
    if quadrature == "left":
        return np.arange(m) / m, np.full(m, 1.0 / m)
    if quadrature == "right":
        return (np.arange(m) + 1.0) / m, np.full(m, 1.0 / m)
    alphas = np.linspace(0.0, 1.0, m + 1)
    weights = np.full(m + 1, 1.0 / m)
    weights[0] = weights[-1] = 0.5 / m
    return alphas, weights


def integrated_gradients(m: MlpModel, X, cfg: AttributionConfig | None = None) -> AttributionResult:
    """Per-row attributions for the configured output component.

    ``avg_gradients[i, j]`` is the weighted mean of dF/dx_j along the
    interpolation path from the baseline to row i; attributions multiply
    that by the displacement.  On an affine model the integrand is constant,
    so any step count reproduces the exact contributions.
    """
    cfg = cfg or AttributionConfig()
    X = _as_rows(m, X)
    k = X.shape[1]
    baseline = cfg.baseline if cfg.baseline is not None else np.zeros(k)
    if baseline.shape[0] != k:
        raise ValueError(f"baseline has length {baseline.shape[0]}, expected {k}")

    displacement = X - baseline
    alphas, weights = _path_nodes(cfg.steps, cfg.quadrature)
    avg_grads = np.zeros_like(X)
    for alpha, weight in zip(alphas, weights):
        point = baseline + alpha * displacement
        avg_grads += weight * input_gradients(m, point, cfg.output_index)
    if not np.all(np.isfinite(avg_grads)):
        raise ValueError("non-finite gradients along the interpolation path")

    attributions = displacement * avg_grads
    outputs = predict(m, X)[:, cfg.output_index]
    baseline_output = float(predict(m, baseline)[0, cfg.output_index])
    gap = np.abs(attributions.sum(axis=1) - (outputs - baseline_output))
    return AttributionResult(
        attributions=attributions,
        avg_gradients=avg_grads,
        completeness_gap=gap,
        outputs=outputs,
        baseline_output=baseline_output,
    )


@dataclass(frozen=True)
class CompletenessSummary:
    gaps: np.ndarray
    max_gap: float
    mean_gap: float
    flagged_rows: np.ndarray


def completeness_report(
    result: AttributionResult, rel_tol: float = 1e-3, abs_tol: float = 1e-6
) -> CompletenessSummary:
    """Summarize ``result.completeness_gap``, flagging the rows whose gap
    exceeds rel_tol * |F(x) - F(baseline)| + abs_tol."""
    gaps = result.completeness_gap
    threshold = rel_tol * np.abs(result.outputs - result.baseline_output) + abs_tol
    return CompletenessSummary(
        gaps=gaps,
        max_gap=float(gaps.max()) if gaps.size else 0.0,
        mean_gap=float(gaps.mean()) if gaps.size else 0.0,
        flagged_rows=np.flatnonzero(gaps > threshold),
    )


def as_contributions(result: AttributionResult) -> ContributionMatrix:
    """View attributions as a contribution matrix: the decomposed score is
    the baseline output plus the attribution row sum."""
    return ContributionMatrix(
        values=result.attributions,
        predictions=result.baseline_output + result.attributions.sum(axis=1),
    )
