"""Ablated data augmentation.

:func:`ablate` is the one ablation kernel: given a boolean mask (True =
ablated) it applies either mode, mean substitution or inverted input
dropout.  Everything else here draws a mask of i.i.d. Bernoulli(lambda)
entries from its own seeded stream and hands it to :func:`ablate`:
bootstrap-then-ablate synthetic datasets (:func:`augmented_chunks`, streamed
block by block), fixed-mask validation copies (:func:`ablated_copy`) and
fresh per-batch masks for SGD training (:func:`batch_masks`).

Nothing in the package holds a whole synthetic set: the Monte-Carlo checks
and the ``augment`` command consume :func:`augmented_chunks` one block at a
time.  :func:`build_augmented` materializes the same draws in one block, for
callers that want the set as a :class:`~ablatereg.dataset.Dataset`.
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
    """Raised for invalid augmentation requests, and for an ablation rate
    outside [0, 1) wherever one is given."""


def check_lambda(lam: float) -> None:
    """The one range rule for an ablation rate ``lam``: it must lie in [0, 1)."""
    if not 0.0 <= lam < 1.0:
        raise AugmentError(f"lambda must be in [0, 1), got {lam}")


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
        check_lambda(self.lam)
        if self.n_synthetic < 1:
            raise AugmentError("n_synthetic must be positive")
        if self.seed < 0:
            raise AugmentError("seed must be non-negative")


def ablate(X, mask, spec: AugmentSpec, means=None) -> np.ndarray:
    """The one ablation kernel: ablate the entries of X where ``mask`` is True.

    Mean ablation puts the (frozen) per-feature ``means`` in their place, and
    is an error without them; inverted dropout zeroes them and rescales the
    survivors by 1/(1-lam), so each feature keeps its expectation under the
    mask distribution.  Works on a single row or a whole (rows, k) batch; the
    response is never touched because it is never passed in.
    """
    X = np.asarray(X, dtype=np.float64)
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != X.shape:
        raise AugmentError("X and mask must have the same shape")
    if spec.mode == MEAN_ABLATION:
        if means is None:
            raise AugmentError("mean ablation needs the training-set feature means")
        means = np.asarray(means, dtype=np.float64)
        if means.shape != X.shape[-1:]:
            raise AugmentError("means must have one entry per feature")
        return np.where(mask, means, X)
    return np.where(mask, 0.0, X / (1.0 - spec.lam))


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
        yield ablate(d.features.take(idx, axis=0), mask, spec, means), d.response.take(idx)


def build_augmented(d: Dataset, spec: AugmentSpec) -> Dataset:
    """Materialize the synthetic set of :func:`augmented_chunks` as one
    block of N rows: the same draws as the streamed blocks, all in memory.
    The package itself never calls this: the Monte-Carlo checks in
    :mod:`ablatereg.harness` and the ``augment`` command stream the blocks."""
    features, response = next(augmented_chunks(d, spec, block_rows=spec.n_synthetic))
    return replace(d, features=features, response=response, n_dropped=0)


def ablated_copy(d: Dataset, spec: AugmentSpec, means=None, replicas: int = 1) -> Dataset:
    """Fixed-mask ablated replication of a dataset (no bootstrap resampling).

    Estimates the augmented-population risk of a model on d: every row is
    repeated ``replicas`` times and ablated once with a mask drawn from the
    spec's validation stream, so repeated evaluations are stable.  Used for
    early stopping when training on augmented batches.  ``means`` (frozen
    from the training set) is required in mean-ablation mode.
    """
    X = np.tile(d.features, (replicas, 1))
    mask = _streams.stream(spec.seed, _streams.VALMASK).random(X.shape) < spec.lam
    return replace(d, features=ablate(X, mask, spec, means),
                   response=np.tile(d.response, replicas), n_dropped=0)


def batch_masks(batch: np.ndarray, spec: AugmentSpec, step: int, means=None) -> np.ndarray:
    """Ablate a training batch with a mask derived from (spec.seed, step).

    Distinct steps get fresh masks; the same (seed, step) pair always
    reproduces the same output.  ``means`` (frozen from the training set)
    is required in mean-ablation mode.
    """
    mask = _streams.stream(spec.seed, _streams.MASK, step).random(np.shape(batch)) < spec.lam
    return ablate(batch, mask, spec, means)
