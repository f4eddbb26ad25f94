"""Ablated data augmentation: per-feature Bernoulli masks, the two ablation
modes (mean substitution and inverted input dropout), bootstrap-then-ablate
synthetic datasets (streamed block by block, or materialized whole), and
fresh per-batch masks for SGD training.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import _streams
from .dataset import Dataset

MEAN_ABLATION = "mean"
INVERTED_DROPOUT = "iid"
MODES = (MEAN_ABLATION, INVERTED_DROPOUT)


class AugmentError(ValueError):
    """Raised for invalid augmentation requests."""


@dataclass(frozen=True)
class AugmentSpec:
    """Fully determines a synthetic set: mode, ablation rate, size, seed.

    ``lam`` is the independent per-feature ablation probability.  It must be
    strictly below 1: inverted dropout rescales by 1/(1-lam), and the
    equivalent penalized solve is only positive definite below 1.
    """

    mode: str
    lam: float
    n_synthetic: int
    seed: int

    def __post_init__(self):
        if self.mode not in MODES:
            raise AugmentError(f"mode must be one of {MODES}, got {self.mode!r}")
        if not 0.0 <= self.lam < 1.0:
            raise AugmentError(f"lambda must be in [0, 1), got {self.lam}")
        if self.n_synthetic < 1:
            raise AugmentError("n_synthetic must be positive")
        if self.seed < 0:
            raise AugmentError("seed must be non-negative")


@dataclass(frozen=True)
class AblationMask:
    """Boolean matrix of i.i.d. Bernoulli(lambda) draws; True = ablated."""

    bits: np.ndarray

    def __post_init__(self):
        bits = np.asarray(self.bits, dtype=bool)
        object.__setattr__(self, "bits", bits)

    @property
    def rate(self) -> float:
        return float(self.bits.mean())


def make_mask(rows: int, k: int, lam: float, seed: int, step: int | None = None) -> AblationMask:
    """Seeded, reproducible Bernoulli(lam) mask of shape (rows, k)."""
    if not 0.0 <= lam < 1.0:
        raise AugmentError(f"lambda must be in [0, 1), got {lam}")
    rng = _streams.stream(seed, _streams.MASK, step)
    return AblationMask(bits=rng.random((rows, k)) < lam)


def apply_mean_ablation(x_row, mask_row, means) -> np.ndarray:
    """Replace masked entries with the (frozen) per-feature means.

    Works elementwise on a single row or a whole (rows, k) batch; the
    response is never touched because it is never passed in.
    """
    x_row = np.asarray(x_row, dtype=np.float64)
    mask_row = np.asarray(mask_row, dtype=bool)
    means = np.asarray(means, dtype=np.float64)
    if x_row.shape[-1] != mask_row.shape[-1] or x_row.shape[-1] != means.shape[-1]:
        raise AugmentError("x, mask and means must agree on feature count")
    return np.where(mask_row, means, x_row)


def apply_inverted_dropout(x_row, mask_row, lam: float) -> np.ndarray:
    """Zero masked entries and rescale survivors by 1/(1-lam), so each
    feature keeps its expectation under the mask distribution."""
    if not 0.0 <= lam < 1.0:
        raise AugmentError(f"lambda must be in [0, 1), got {lam}")
    x_row = np.asarray(x_row, dtype=np.float64)
    mask_row = np.asarray(mask_row, dtype=bool)
    if x_row.shape[-1] != mask_row.shape[-1]:
        raise AugmentError("x and mask must agree on feature count")
    return np.where(mask_row, 0.0, x_row / (1.0 - lam))


BLOCK_ROWS = 1 << 16


def augmented_chunks(d: Dataset, spec: AugmentSpec, block_rows: int = BLOCK_ROWS):
    """Yield the synthetic set as consecutive ``(features, response)`` blocks
    of at most ``block_rows`` rows: bootstrap rows of d, each ablated with a
    fresh mask; responses are copied unablated.

    Blocks are drawn in order from the spec's own BOOTSTRAP and MASK streams.
    A numpy Generator hands out the same numbers whether asked for all rows
    at once or block by block, so the concatenated blocks are the same sample
    for any ``block_rows``, while only one block is held in memory at a time.

    Mean-ablation means are frozen from d itself (not from the synthetic
    rows); the convergence of the bootstrap moments depends on that.
    """
    if d.n == 0:
        raise AugmentError("cannot augment an empty dataset")
    bootstrap = _streams.stream(spec.seed, _streams.BOOTSTRAP)
    masks = _streams.stream(spec.seed, _streams.MASK)
    means = d.features.mean(axis=0) if spec.mode == MEAN_ABLATION else None
    for start in range(0, spec.n_synthetic, block_rows):
        rows = min(block_rows, spec.n_synthetic - start)
        idx = bootstrap.integers(0, d.n, size=rows)
        mask = masks.random((rows, d.k)) < spec.lam
        source = d.features.take(idx, axis=0)
        if means is not None:
            features = np.where(mask, means, source)
        else:
            features = np.where(mask, 0.0, source / (1.0 - spec.lam))
        yield features, d.response.take(idx)


def build_augmented(d: Dataset, spec: AugmentSpec) -> Dataset:
    """Materialize the synthetic set of :func:`augmented_chunks` as one
    block of N rows: the same draws as the streamed blocks, all in memory.
    The Monte-Carlo checks in :mod:`ablatereg.harness` stream instead."""
    features, response = next(augmented_chunks(d, spec, block_rows=spec.n_synthetic))
    return replace(d, features=features, response=response, n_dropped=0)


def ablated_copy(d: Dataset, spec: AugmentSpec, means=None, replicas: int = 1) -> Dataset:
    """Fixed-mask ablated replication of a dataset (no bootstrap resampling).

    Estimates the augmented-population risk of a model on d: every row is
    repeated ``replicas`` times and ablated once with a mask drawn from the
    spec's validation stream, so repeated evaluations are stable.  Used for
    early stopping when training on augmented batches.
    """
    X = np.tile(d.features, (replicas, 1))
    y = np.tile(d.response, replicas)
    mask = _streams.stream(spec.seed, _streams.VALMASK).random(X.shape) < spec.lam
    if spec.mode == MEAN_ABLATION:
        if means is None:
            means = d.features.mean(axis=0)
        features = np.where(mask, np.asarray(means, dtype=np.float64), X)
    else:
        features = np.where(mask, 0.0, X / (1.0 - spec.lam))
    return replace(d, features=features, response=y, n_dropped=0)


def batch_masks(batch: np.ndarray, spec: AugmentSpec, step: int, means=None) -> np.ndarray:
    """Ablate a training batch with a mask derived from (spec.seed, step).

    Distinct steps get fresh masks; the same (seed, step) pair always
    reproduces the same output.  ``means`` (frozen from the training set)
    is required in mean-ablation mode.
    """
    batch = np.asarray(batch, dtype=np.float64)
    mask = make_mask(batch.shape[0], batch.shape[1], spec.lam, spec.seed, step=step).bits
    if spec.mode == MEAN_ABLATION:
        if means is None:
            raise AugmentError("mean ablation needs the training-set feature means")
        return apply_mean_ablation(batch, mask, means)
    return apply_inverted_dropout(batch, mask, spec.lam)
