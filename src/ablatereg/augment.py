"""Ablated data augmentation.

:func:`ablate` is the one ablation kernel: given a boolean mask (True =
ablated) it applies either mode, mean substitution or inverted input
dropout, into a new array or in place.  Everything else here draws a mask
of i.i.d. Bernoulli(lambda) entries from its own seeded stream and hands it
to :func:`ablate`: bootstrap-then-ablate synthetic datasets (streamed block
by block), fixed-mask validation copies (:func:`ablated_copy`) and fresh
per-batch masks for SGD training (:func:`batch_masks`).

Nothing in the package holds a whole synthetic set.  A set is drawn block
by block, in order, from its spec's BOOTSTRAP and MASK streams, and is
consumed in one of two ways:

- :func:`augmented_chunks` yields ``(features, response)`` blocks on the
  calling thread; the ``augment`` command writes them out, and
  :func:`build_augmented` materializes the same draws as one block.
- :func:`reduced_blocks` splits each block's work three ways for the
  Monte-Carlo checks.  The calling thread draws; worker threads gather the
  bootstrap rows into preallocated column-major ``[X | y]`` slots, ablate
  them in place and reduce them with the caller's function; the consumer
  merges the results in block order.  A block's result depends only on its
  own draws, and the draws and the merge both run in block order on one
  thread, so the bytes of what is merged do not depend on scheduling.
"""

from __future__ import annotations

import collections
import os
from concurrent.futures import ThreadPoolExecutor
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


def ablate(X, mask, spec: AugmentSpec, means=None, out=None) -> np.ndarray:
    """The one ablation kernel: ablate the entries of X where ``mask`` is True.

    Mean ablation puts the (frozen) per-feature ``means`` in their place, and
    is an error without them; inverted dropout zeroes them and rescales the
    survivors by 1/(1-lam), so each feature keeps its expectation under the
    mask distribution.  Works on a single row or a whole (rows, k) batch; the
    response is never touched because it is never passed in.

    The result goes to ``out`` (X itself ablates in place), or to a new array.
    Mean mode copies ``means`` in where the mask is set; dropout divides, then
    writes 0.0 where the mask is set.  Entry by entry this is what
    ``np.where(mask, means, X)`` and ``np.where(mask, 0.0, X / (1 - lam))``
    give, bit for bit.
    """
    X = np.asarray(X, dtype=np.float64)
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != X.shape or (out is not None and out.shape != X.shape):
        raise AugmentError("X, mask and out must have the same shape")
    if out is None:
        out = np.empty(X.shape)
    if spec.mode == MEAN_ABLATION:
        if means is None:
            raise AugmentError("mean ablation needs the training-set feature means")
        means = np.asarray(means, dtype=np.float64)
        if means.shape != X.shape[-1:]:
            raise AugmentError("means must have one entry per feature")
        if out is not X:
            np.copyto(out, X)
        np.copyto(out, means, where=mask)
    else:
        np.divide(X, 1.0 - spec.lam, out=out)
        np.copyto(out, 0.0, where=mask)
    return out


BLOCK_ROWS = 1 << 16


def _draw_streams(d: Dataset, spec: AugmentSpec):
    """What a synthetic set is drawn from: the spec's BOOTSTRAP and MASK
    generators, and the feature means frozen from d (mean ablation only;
    the convergence of the bootstrap moments depends on freezing them from d
    itself, not from the synthetic rows)."""
    if d.n == 0:
        raise AugmentError("cannot augment an empty dataset")
    bootstrap = _streams.stream(spec.seed, _streams.BOOTSTRAP)
    masks = _streams.stream(spec.seed, _streams.MASK)
    means = d.features.mean(axis=0) if spec.mode == MEAN_ABLATION else None
    return bootstrap, masks, means


def augmented_chunks(d: Dataset, spec: AugmentSpec, block_rows: int = BLOCK_ROWS):
    """Yield the synthetic set as consecutive ``(features, response)`` blocks
    of at most ``block_rows`` rows: bootstrap rows of d, each ablated with a
    fresh mask; responses are copied unablated.

    Blocks are drawn in order from the spec's own BOOTSTRAP and MASK streams.
    A numpy Generator hands out the same numbers whether asked for all rows
    at once or block by block, so the concatenated blocks are the same sample
    for any ``block_rows``, while only one block is held in memory at a time.
    """
    bootstrap, masks, means = _draw_streams(d, spec)
    for start in range(0, spec.n_synthetic, block_rows):
        rows = min(block_rows, spec.n_synthetic - start)
        idx = bootstrap.integers(0, d.n, size=rows)
        mask = masks.random((rows, d.k)) < spec.lam
        yield ablate(d.features.take(idx, axis=0), mask, spec, means), d.response.take(idx)


class _BlockSlot:
    """Buffers for one block in flight, made once and reused: the ablated
    ``[X | y]`` rows (column-major), the uniform mask draws, the mask, and a
    scratch column for the reducer.  The views of ``rows`` rows are
    contiguous, laid out as fresh arrays of that shape would be."""

    def __init__(self, rows: int, k: int):
        self.k = k
        self.z = np.empty(rows * (k + 1))
        self.uniform = np.empty(rows * k)
        self.mask = np.empty(rows * k, dtype=bool)
        self.scratch = np.empty(rows)

    def views(self, rows: int):
        k = self.k
        return (self.z[:rows * (k + 1)].reshape((rows, k + 1), order="F"),
                self.uniform[:rows * k].reshape(rows, k),
                self.mask[:rows * k].reshape(rows, k),
                self.scratch[:rows])


def _reduce_block(d: Dataset, spec: AugmentSpec, means, idx, views, reduce):
    """Worker side of :func:`reduced_blocks`: gather the bootstrap rows into
    the slot column by column, ablate the features in place, reduce."""
    z, uniform, mask, scratch = views
    # take(mode="clip") writes straight into its output but would clip a bad
    # index instead of raising, so the bounds are checked here
    if idx.min() < 0 or idx.max() >= d.n:
        raise IndexError(f"bootstrap index out of range for {d.n} rows")
    k = d.k
    for j in range(k):
        np.take(d.features[:, j], idx, out=z[:, j], mode="clip")
    np.take(d.response, idx, out=z[:, k], mode="clip")
    features = z[:, :k]
    ablate(features, np.less(uniform, spec.lam, out=mask), spec, means, out=features)
    return reduce(z, scratch)


def reduced_blocks(d: Dataset, spec: AugmentSpec, reduce):
    """Yield ``reduce(z, scratch)`` for each ``BLOCK_ROWS``-row block of the
    synthetic set of :func:`augmented_chunks`, in block order.

    ``z`` holds the block's ablated rows as a column-major ``[X | y]`` array,
    and ``scratch`` is a float column of the same length that ``reduce`` may
    overwrite.  Both are reused for a later block once the consumer has taken
    the result, so the result must not refer to them.

    The calling thread makes every draw, in the order of
    :func:`augmented_chunks`.  Up to two worker threads gather, ablate and
    reduce blocks; ``reduce`` runs on them, so it must not draw.  Results come
    back in block order, and each is a function of its own block's draws
    alone, so what the consumer sees does not depend on thread scheduling.
    There is one more block slot than there are workers, so the next block
    is drawn while the workers reduce; a slot is reused only after the
    consumer has taken its block's result.
    """
    bootstrap, masks, means = _draw_streams(d, spec)
    block_rows = BLOCK_ROWS
    workers = min(2, len(os.sched_getaffinity(0)))
    free = [_BlockSlot(min(block_rows, spec.n_synthetic), d.k) for _ in range(workers + 1)]
    in_flight = collections.deque()
    pool = ThreadPoolExecutor(workers)
    try:
        for start in range(0, spec.n_synthetic, block_rows):
            if not free:
                future, slot = in_flight.popleft()
                yield future.result()
                free.append(slot)
            slot = free.pop()
            rows = min(block_rows, spec.n_synthetic - start)
            views = slot.views(rows)
            idx = bootstrap.integers(0, d.n, size=rows)
            masks.random(out=views[1])  # the uniform draws behind the mask
            future = pool.submit(_reduce_block, d, spec, means, idx, views, reduce)
            in_flight.append((future, slot))
        while in_flight:
            yield in_flight.popleft()[0].result()
    finally:
        pool.shutdown(cancel_futures=True)


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
