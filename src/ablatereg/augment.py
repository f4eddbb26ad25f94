"""Ablated data augmentation.

:func:`ablate` is the one ablation kernel: given the uniform mask draws
(an entry is ablated where its draw is below lambda) it applies either
mode, mean substitution or inverted input dropout, into a new array or in
place, as a select on the bit patterns.  Everything else here draws the
uniforms of i.i.d. Bernoulli(lambda) masks from its own seeded stream and
hands them to :func:`ablate`: bootstrap-then-ablate synthetic datasets
(streamed block by block), fixed-mask validation copies
(:func:`ablated_copy`) and fresh per-batch masks for SGD training
(:func:`batch_masks`).

Nothing in the package holds a whole synthetic set.  There is one source of
synthetic rows, :func:`augmented_chunks`: it draws a set block by block from
its spec's BOOTSTRAP and MASK streams and yields ``(features, response)``
blocks.  The ``augment`` command writes them out, and
:func:`build_augmented` materializes the same draws as one block.

The Monte-Carlo reductions take a set from :func:`weighted_blocks`, as
``[X | y]`` blocks with a weight per row.  Every synthetic row is one of at
most n*2^k distinct values, a source row under one of the 2^k ablation
patterns, and one rule (:func:`counted`) decides how a set is given: when
those values fit in one block, as the distinct rows weighted by how often
each was drawn; otherwise as the rows of :func:`augmented_chunks`, weight
one each.  There is one way to count: N i.i.d. rows hold each (row,
pattern) code a Multinomial(N, p) number of times, with p the law of one
row (:func:`pattern_probabilities`), so :func:`pattern_counts` makes that
one draw.  A counted set thus has the law of the streamed rows, not their
draws.  Everything runs on the calling thread.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import _streams
from .dataset import Dataset

MEAN_ABLATION = "mean"
INVERTED_DROPOUT = "iid"
MODES = (MEAN_ABLATION, INVERTED_DROPOUT)
VALIDATION_REPLICAS = 4  # rows of an ablated_copy per source row, each with its own mask


class AugmentError(ValueError):
    """Raised for invalid augmentation requests, and for an ablation rate
    outside [0, 1) wherever one is given."""


def check_lambda(lam: float) -> None:
    """The one range rule for an ablation rate ``lam``: it must lie in [0, 1)."""
    if not 0.0 <= lam < 1.0:
        raise AugmentError(f"lambda must be in [0, 1), got {lam}")


def check_mode(mode) -> None:
    """The one rule for an ablation mode: it must be one of :data:`MODES`."""
    if mode not in MODES:
        raise AugmentError(f"mode must be one of {MODES}, got {mode!r}")


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
        check_mode(self.mode)
        check_lambda(self.lam)
        if self.n_synthetic < 1:
            raise AugmentError("n_synthetic must be positive")
        if self.seed < 0:
            raise AugmentError("seed must be non-negative")


def _bits(x) -> int:
    """The IEEE-754 bit pattern of the double x, as a signed integer."""
    return int(np.float64(x).view(np.int64))


_ONE_BITS = _bits(1.0)


def ablate(X, draws, spec: AugmentSpec, means=None, out=None) -> np.ndarray:
    """The one ablation kernel: ablate the entries of X whose mask draw in
    ``draws`` (uniform on [0, 1), one per entry) is below ``spec.lam``.

    Mean ablation puts the (frozen) per-feature ``means`` in their place, and
    is an error without them; inverted dropout zeroes them and rescales the
    survivors by 1/(1-lam), so each feature keeps its expectation under the
    mask distribution.  Works on a single row or a whole (rows, k) batch; the
    response is never touched because it is never passed in.

    The result goes to ``out`` (X itself ablates in place), or to a new array.
    ``draws`` is used as scratch and overwritten; a draw outside [0, 1)
    (-0.0, 1.0 and NaN included) is an error.  For non-negative doubles
    below 1 ``u < lam`` holds exactly when their bit patterns compare the
    same way as integers, so ``(bits(u) - bits(lam)) >> 63`` is all ones on
    the ablated entries and zero elsewhere.  Mean mode selects with it,
    ``x ^ ((x ^ m) & M)`` on the bit patterns; dropout divides, then keeps
    the bits where the draw is not below lam.  Entry by entry this is what
    ``np.where(draws < lam, means, X)`` and
    ``np.where(draws < lam, 0.0, X / (1 - lam))`` give, bit for bit.
    """
    X = np.asarray(X, dtype=np.float64)
    draws = np.asarray(draws, dtype=np.float64)
    if draws.shape != X.shape or (out is not None and (out.shape, out.dtype) != (X.shape, X.dtype)):
        raise AugmentError("X, draws and out must have the same shape, and out must be float64")
    u = draws.view(np.int64)
    if u.size and u.view(np.uint64).max() >= _ONE_BITS:
        raise AugmentError("mask draws must lie in [0, 1)")
    lam = _bits(abs(spec.lam))  # abs: a lam of -0.0 compares as +0.0
    if out is None:
        out = np.empty(X.shape)
    o = out.view(np.int64)
    if spec.mode == MEAN_ABLATION:
        if means is None:
            raise AugmentError("mean ablation needs the training-set feature means")
        means = np.asarray(means, dtype=np.float64)
        if means.shape != X.shape[-1:]:
            raise AugmentError("means must have one entry per feature")
        if out is not X:
            np.copyto(out, X)
        np.subtract(u, lam, out=u)
        np.right_shift(u, 63, out=u)  # all ones where ablated
        m = means.view(np.int64)
        # o = x ^ ((x ^ m) & M), in place
        o ^= m
        u &= o
        o ^= m
        o ^= u
    else:
        _rescaled(X, spec, out=out)
        np.subtract(lam - 1, u, out=u)
        np.right_shift(u, 63, out=u)  # all ones where kept
        o &= u
    return out


def _rescaled(X, spec: AugmentSpec, out=None) -> np.ndarray:
    """Inverted dropout's survivors: X scaled by 1/(1-lam)."""
    return np.divide(X, 1.0 - spec.lam, out=out)


def _frozen_means(d: Dataset, spec: AugmentSpec):
    """The feature means that mean ablation substitutes, frozen from d (None
    for inverted dropout); the convergence of the bootstrap moments depends
    on freezing them from d itself, not from the synthetic rows."""
    return d.features.mean(axis=0) if spec.mode == MEAN_ABLATION else None


def synthetic_values(d: Dataset, spec: AugmentSpec) -> np.ndarray:
    """Every value a cell of the synthetic set of d can hold, as one flat
    array (repeats included).  A feature cell holds a source value or its
    column's frozen mean under mean ablation, and a source value rescaled by
    :func:`ablate`'s division, or +0.0, under inverted dropout; a response
    cell holds a source response."""
    if spec.mode == MEAN_ABLATION:
        features = (d.features.ravel(), _frozen_means(d, spec))
    else:
        features = (_rescaled(d.features, spec).ravel(), np.zeros(1))
    return np.concatenate([*features, d.response])


BLOCK_ROWS = 1 << 16


def _bootstrap(d: Dataset, spec: AugmentSpec) -> np.random.Generator:
    """The spec's BOOTSTRAP generator, which draws the source row of every
    synthetic row."""
    if d.n == 0:
        raise AugmentError("cannot augment an empty dataset")
    return _streams.stream(spec.seed, _streams.BOOTSTRAP)


def augmented_chunks(d: Dataset, spec: AugmentSpec, block_rows: int = BLOCK_ROWS):
    """Yield the synthetic set as consecutive ``(features, response)`` blocks
    of at most ``block_rows`` rows: bootstrap rows of d, each ablated with a
    fresh mask; responses are copied unablated.

    Blocks are drawn in order from the spec's own BOOTSTRAP and MASK streams.
    A numpy Generator hands out the same numbers whether asked for all rows
    at once or block by block, so the concatenated blocks are the same sample
    for any ``block_rows``, while only one block is held in memory at a time.
    """
    bootstrap, means = _bootstrap(d, spec), _frozen_means(d, spec)
    masks = _streams.stream(spec.seed, _streams.MASK)
    for start in range(0, spec.n_synthetic, block_rows):
        rows = min(block_rows, spec.n_synthetic - start)
        idx = bootstrap.integers(0, d.n, size=rows)
        features = d.features.take(idx, axis=0)
        ablate(features, masks.random((rows, d.k)), spec, means, out=features)
        yield features, d.response.take(idx)


def counted(d: Dataset) -> bool:
    """The one path rule: the synthetic sets of d are reduced to pattern
    counts when their n*2^k possible rows fit in one block."""
    return d.n << d.k <= BLOCK_ROWS


def pattern_probabilities(d: Dataset, spec: AugmentSpec) -> np.ndarray:
    """The law of one synthetic row of d: the probability of each code
    ``row << k | pattern``, (1/n) * prod_j lam^bit_j (1-lam)^(1-bit_j) with
    lam = |spec.lam|, where bit j is set when feature j is ablated, as in
    :func:`distinct_rows`."""
    lam = abs(spec.lam)
    ablated = (np.arange(1 << d.k)[:, None] >> np.arange(d.k)) & 1
    pattern = np.where(ablated == 1, lam, 1.0 - lam).prod(axis=1)
    return np.tile(pattern / d.n, d.n)


def pattern_counts(d: Dataset, spec: AugmentSpec) -> np.ndarray:
    """How often a synthetic set of N i.i.d. rows holds each code
    ``row << k | pattern``: one Multinomial(N, p) draw from the spec's
    BOOTSTRAP stream, p from :func:`pattern_probabilities`.  The entries
    add up to N.  The set has the law of the rows of
    :func:`augmented_chunks`, not their draws."""
    bootstrap = _bootstrap(d, spec)
    return bootstrap.multinomial(spec.n_synthetic, pattern_probabilities(d, spec))


def distinct_rows(d: Dataset, spec: AugmentSpec, codes) -> np.ndarray:
    """The ``[X | y]`` rows that the codes ``row << k | pattern`` stand for,
    one per code: source row ``code >> k``, ablated by :func:`ablate` itself
    with the draw 0.0 where bit j of the pattern is set and the draw |lam|
    (in [lam, 1)) elsewhere, so each value has the bits a streamed block
    gives it."""
    k = d.k
    rows = codes >> k
    ablated = (codes[:, None] >> np.arange(k)) & 1
    X = d.features.take(rows, axis=0)
    ablate(X, np.where(ablated == 1, 0.0, abs(spec.lam)), spec, _frozen_means(d, spec), out=X)
    return np.column_stack([X, d.response.take(rows)])


def weighted_blocks(d: Dataset, spec: AugmentSpec):
    """The synthetic set of spec as a function that yields its ``(z,
    weights)`` blocks afresh on each call, in block order: ``z`` a new
    column-major ``[X | y]`` array, which the caller may overwrite, whose
    row i stands for ``weights[i]`` synthetic rows (one each if ``weights``
    is None).

    A :func:`counted` set is drawn once, here, as its pattern counts
    (:func:`pattern_counts`), into one block of its distinct rows weighted
    by their counts, and each call yields a copy of it.  Any other set is
    the set of :func:`augmented_chunks`, drawn again on each call, and each
    of its blocks is copied into ``z``.
    """
    if not counted(d):
        def blocks():
            for features, response in augmented_chunks(d, spec, BLOCK_ROWS):
                z = np.empty((len(response), d.k + 1), order="F")
                z[:, :-1] = features
                z[:, -1] = response
                yield z, None

        return blocks
    counts = pattern_counts(d, spec)
    codes = np.flatnonzero(counts)
    rows, weights = distinct_rows(d, spec, codes), counts[codes].astype(np.float64)

    def blocks():
        yield rows.copy(order="F"), weights

    return blocks


def build_augmented(d: Dataset, spec: AugmentSpec) -> Dataset:
    """Materialize the synthetic set of :func:`augmented_chunks` as one
    block of N rows: the same draws as the streamed blocks, all in memory.
    The package itself never calls this: the Monte-Carlo checks in
    :mod:`ablatereg.harness` and the ``augment`` command stream the blocks."""
    features, response = next(augmented_chunks(d, spec, block_rows=spec.n_synthetic))
    return replace(d, features=features, response=response, n_dropped=0)


def ablated_copy(d: Dataset, spec: AugmentSpec, means=None) -> Dataset:
    """Fixed-mask ablated replication of a dataset (no bootstrap resampling).

    Estimates the augmented-population risk of a model on d: every row is
    repeated :data:`VALIDATION_REPLICAS` times and ablated once with a mask
    drawn from the spec's VALMASK stream, so repeated evaluations are
    stable.  :func:`~ablatereg.nn.train` uses it for early stopping when
    training on augmented batches.  ``means`` (frozen from the training set)
    is required in mean-ablation mode.
    """
    X = np.tile(d.features, (VALIDATION_REPLICAS, 1))
    draws = _streams.stream(spec.seed, _streams.VALMASK).random(X.shape)
    return replace(d, features=ablate(X, draws, spec, means, out=X),
                   response=np.tile(d.response, VALIDATION_REPLICAS), n_dropped=0)


def batch_masks(batch: np.ndarray, spec: AugmentSpec, step: int, means=None) -> np.ndarray:
    """Ablate a training batch with a mask derived from (spec.seed, step).

    Distinct steps get fresh masks; the same (seed, step) pair always
    reproduces the same output.  ``means`` (frozen from the training set)
    is required in mean-ablation mode.
    """
    draws = _streams.stream(spec.seed, _streams.MASK, step).random(np.shape(batch))
    return ablate(batch, draws, spec, means)
