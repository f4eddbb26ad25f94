"""Experiment harness: Monte-Carlo verification that OLS on the synthetic
ablated datasets converges to the closed-form penalized solutions, lambda
sweeps that trace how the two penalties respond to each augmentation mode,
and deterministic CSV/JSON report emission.

The Monte-Carlo checks never hold a synthetic set in memory, and they
solve OLS from centered sufficient statistics of ``[X | y]``; the random
draws are the ones :func:`~ablatereg.augment.build_augmented` makes.  Each
set runs through :func:`~ablatereg.augment.reduced_blocks` in three parts:

- draw: the calling thread makes every generator and every bootstrap
  draw, block by block, in the order of a serial run;
- reduce: up to two worker threads draw each block's mask uniforms, from
  the block's own place in the MASK stream, then gather, ablate and reduce
  the block, each to its row count, mean and centered cross-products
  (:func:`_block_moments`), or to the squared deviations of its centered
  products (:func:`_block_square_deviations`);
- merge: the calling thread folds the block results in block order, the
  moments with the Chan–Golub–LeVeque pairwise update.

A block's result is a function of its own draws alone, computed by the same
operations on arrays of the same layout as a serial loop would use, and the
merge order is fixed, so the reports are the same bytes whichever thread
reduced which block.  The ``augment`` command streams the same draws to
disk through :func:`augmented_lines` and :func:`write_text`, so nothing here
materializes a synthetic set.

Every file the package writes goes through :func:`write_text`, which writes
atomically.  Numeric CSV bodies that repeat values come from one text
table (:class:`_TextTable`): each distinct value is formatted once, and the
cells are looked up by bit pattern, about a thousand rows at a time.
:func:`_matrix_lines` builds the table from its own matrix, or formats a
matrix of mostly distinct values cell by cell; :func:`augmented_lines`
builds one table for a whole synthetic set from the values its cells can
hold.  The small mixed-type reports use :func:`_csv_lines`.  All of them
write each float as its ``repr``.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import math
import os
import secrets
import stat
from dataclasses import dataclass, field, replace as dc_replace

import numpy as np

from .attribution import AttributionConfig, as_contributions, integrated_gradients
from .augment import (
    BLOCK_ROWS,
    INVERTED_DROPOUT,
    MEAN_ABLATION,
    AugmentSpec,
    augmented_chunks,
    check_lambda,
    reduced_blocks,
    synthetic_values,
)
from .dataset import (
    CLASSIFICATION,
    REGRESSION,
    Dataset,
    SplitSpec,
    feature_stats,
    split,
    standardize,
)
from .linear import SingularModelError, _solve_system, fit_ccp, fit_ml2p, fit_ols
from .nn import (
    MlpModel,
    TrainConfig,
    TrainingDivergedError,
    evaluate,
    init,
    linear_as_mlp,
    train,
)
from .penalty import ccp_variance_form, ml2p_from_avg_gradients
from ._streams import child_seed


# ---------------------------------------------------------------------------
# Theorem convergence
# ---------------------------------------------------------------------------


def _nanstat(fn, values) -> float:
    values = np.asarray(values, dtype=np.float64)
    if not np.any(np.isfinite(values)):
        return float("nan")
    return float(fn(values))


@dataclass
class ConvergenceRun:
    """Distances between the Monte-Carlo OLS fits and the closed-form target,
    one row per (seed, N), plus the worst elementwise residual of the
    augmented second moments against their almost-sure limits."""

    theorem: int
    mode: str
    lam: float
    n_schedule: tuple[int, ...]
    seeds: tuple[int, ...]
    target_beta: np.ndarray
    dist_l2: np.ndarray
    dist_linf: np.ndarray
    gram_resid: np.ndarray
    cross_resid: np.ndarray
    failures: list = field(default_factory=list)

    def median_l2(self) -> np.ndarray:
        return np.array([_nanstat(np.nanmedian, col) for col in self.dist_l2.T])

    def loglog_slope(self) -> float:
        """Least-squares slope of log(median l2 distance) against log(N)."""
        med = self.median_l2()
        keep = np.isfinite(med) & (med > 0)
        if keep.sum() < 2:
            return float("nan")
        return float(np.polyfit(np.log(np.asarray(self.n_schedule)[keep]), np.log(med[keep]), 1)[0])

    def check(self, linf_tolerance: float = 0.02) -> tuple[bool, list[str]]:
        """Final-N accuracy and monotone median decay, as pass/fail messages."""
        problems = []
        final = self.dist_linf[:, -1]
        if not np.all(np.isfinite(final)):
            problems.append("some final-N fits failed")
        elif final.max() > linf_tolerance:
            problems.append(
                f"max final Linf distance {final.max():.4g} exceeds {linf_tolerance}"
            )
        med = self.median_l2()
        if np.any(np.diff(med) > 0):
            problems.append("median L2 distance is not non-increasing over the N schedule")
        return (not problems), problems


def _moment_limits(d: Dataset, mode: str, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """Almost-sure limits of the augmented per-row centered second moments."""
    stats = feature_stats(d)
    Xc = d.features - stats.means
    yc = d.response - d.response.mean()
    cov = Xc.T @ Xc / d.n
    cross = Xc.T @ yc / d.n
    if mode == MEAN_ABLATION:
        gram_limit = (1.0 - lam) ** 2 * cov + lam * (1.0 - lam) * np.diag(stats.variances)
        cross_limit = (1.0 - lam) * cross
    else:
        gram_limit = cov + (lam / (1.0 - lam)) * np.diag(stats.second_moments)
        cross_limit = cross.copy()
    return gram_limit, cross_limit


def _block_moments(z, scratch):
    """Rows, mean and centered cross-products of one ``[X | y]`` block,
    centered in place on the block's own mean.  Columns are contiguous, so
    the column means are summed pairwise (accurately)."""
    block_mean = z.mean(axis=0)
    z -= block_mean
    return z.shape[0], block_mean, z.T @ z


def _streamed_moments(d: Dataset, spec: AugmentSpec) -> tuple[np.ndarray, np.ndarray]:
    """Mean and centered second moments (cross-products over N) of
    ``[X | y]`` on the synthetic set, one block at a time.

    Each block is centered on its own mean on a worker thread, and the
    blocks are merged here, in block order, with the pairwise update of
    Chan, Golub & LeVeque (1979), never through raw sums, so large feature
    means cost no precision.
    """
    n = 0
    for rows, block_mean, block_cross in reduced_blocks(d, spec, _block_moments):
        if n == 0:
            mean, cross = block_mean, block_cross
        else:
            delta = block_mean - mean
            total = n + rows
            mean = mean + delta * (rows / total)
            cross += block_cross + np.outer(delta, delta) * (n * rows / total)
        n += rows
    return mean, cross / n


def _converge(d: Dataset, theorem: int, lam: float, n_schedule, seeds) -> ConvergenceRun:
    """Streams each (seed, N) synthetic set through :func:`_streamed_moments`
    and solves OLS from its centered Gram system, behind the same 1e12
    condition gate as :func:`~ablatereg.linear.fit_ols`.  The draws are those
    of :func:`~ablatereg.augment.build_augmented`; only the summation order
    differs from fitting the materialized set."""
    n_schedule = tuple(int(v) for v in n_schedule)
    if any(b <= a for a, b in zip(n_schedule, n_schedule[1:])):
        raise ValueError("N schedule must be strictly increasing")
    seeds = tuple(int(s) for s in seeds)
    if theorem == 1:
        mode = MEAN_ABLATION
        target = fit_ccp(d, lam).model.beta
    elif theorem == 2:
        mode = INVERTED_DROPOUT
        target = fit_ml2p(d, lam).model.beta
    else:
        raise ValueError("theorem must be 1 or 2")
    gram_limit, cross_limit = _moment_limits(d, mode, lam)
    k = d.k

    shape = (len(seeds), len(n_schedule))
    dist_l2 = np.full(shape, np.nan)
    dist_linf = np.full(shape, np.nan)
    gram_resid = np.full(shape, np.nan)
    cross_resid = np.full(shape, np.nan)
    failures = []
    for i, seed in enumerate(seeds):
        for j, n_syn in enumerate(n_schedule):
            _, moments = _streamed_moments(d, AugmentSpec(mode, lam, n_syn, seed))
            gram, cross = moments[:k, :k], moments[:k, k]
            gram_resid[i, j] = np.abs(gram - gram_limit).max()
            cross_resid[i, j] = np.abs(cross - cross_limit).max()
            try:
                beta = _solve_system(gram, cross, d.column_names, "OLS on the synthetic set")
            except SingularModelError as err:
                failures.append({"seed": seed, "N": n_syn, "error": str(err)})
                continue
            delta = beta - target
            dist_l2[i, j] = np.linalg.norm(delta)
            dist_linf[i, j] = np.abs(delta).max()
    return ConvergenceRun(
        theorem=theorem,
        mode=mode,
        lam=lam,
        n_schedule=n_schedule,
        seeds=seeds,
        target_beta=target,
        dist_l2=dist_l2,
        dist_linf=dist_linf,
        gram_resid=gram_resid,
        cross_resid=cross_resid,
        failures=failures,
    )


def converge_theorem1(d: Dataset, lam: float, n_schedule, seeds) -> ConvergenceRun:
    """Mean ablation: OLS on the synthetic set against the closed-form
    contribution-covariance solution."""
    return _converge(d, 1, lam, n_schedule, seeds)


def converge_theorem2(d: Dataset, lam: float, n_schedule, seeds) -> ConvergenceRun:
    """Inverted input dropout: OLS on the synthetic set against the
    closed-form second-moment-L2 solution."""
    return _converge(d, 2, lam, n_schedule, seeds)


@dataclass(frozen=True)
class MomentCheck:
    """Elementwise comparison of empirical augmented moments with their
    limits, in units of the Monte-Carlo standard error."""

    mode: str
    lam: float
    n_synthetic: int
    gram_sigmas: np.ndarray
    cross_sigmas: np.ndarray
    n_sigma: float

    @property
    def ok(self) -> bool:
        return bool(
            np.all(self.gram_sigmas <= self.n_sigma)
            and np.all(self.cross_sigmas <= self.n_sigma)
        )

    @property
    def worst_sigma(self) -> float:
        return float(max(self.gram_sigmas.max(), self.cross_sigmas.max()))


def _block_square_deviations(z, product, *, mean, pairs, observed):
    """Per pair (a, b), the sum over one block of the squared deviation of
    the centered product ``z[:, a] * z[:, b]`` from its moment, built one
    column at a time in the ``product`` scratch column."""
    z -= mean
    sums = np.empty(len(pairs))
    for p, (a, b) in enumerate(pairs):
        np.multiply(z[:, a], z[:, b], out=product)
        product -= observed[p]
        np.square(product, out=product)
        sums[p] = product.sum()
    return sums


def check_moment_limits(
    d: Dataset, mode: str, lam: float, n_synthetic: int, seed: int, n_sigma: float = 3.0
) -> MomentCheck:
    """Verify the augmented Gram and cross moments against their limits,
    elementwise, within ``n_sigma`` empirical standard errors.

    The synthetic set is streamed twice from the same seeded draws (those
    of :func:`~ablatereg.augment.build_augmented`): the first pass gives the
    moments, the second the spread of each centered product around its
    moment, whose standard deviation over sqrt(N) is the standard error.
    Both passes reduce blocks on worker threads and merge them in order.
    """
    spec = AugmentSpec(mode, lam, n_synthetic, seed)
    gram_limit, cross_limit = _moment_limits(d, mode, lam)
    k = d.k
    mean, moments = _streamed_moments(d, spec)
    # upper triangle of [X | y] pairs, without the (y, y) entry
    rows, cols = (idx[:-1] for idx in np.triu_indices(k + 1))
    observed = moments[rows, cols]
    sq_dev = np.zeros(rows.size)
    reduce = functools.partial(_block_square_deviations, mean=mean, pairs=tuple(zip(rows, cols)),
                               observed=observed)
    for block_sq_dev in reduced_blocks(d, spec, reduce):
        sq_dev += block_sq_dev
    se = np.sqrt(sq_dev / n_synthetic) / math.sqrt(n_synthetic)

    limits = np.zeros((k + 1, k + 1))
    limits[:k, :k] = gram_limit
    limits[:k, k] = cross_limit
    err = np.abs(observed - limits[rows, cols])
    sigmas = np.zeros((k + 1, k + 1))
    sigmas[rows, cols] = sigmas[cols, rows] = np.divide(
        err, se, out=np.zeros_like(err), where=se > 0)
    return MomentCheck(
        mode=mode,
        lam=lam,
        n_synthetic=n_synthetic,
        gram_sigmas=sigmas[:k, :k],
        cross_sigmas=sigmas[:k, k],
        n_sigma=n_sigma,
    )


# ---------------------------------------------------------------------------
# Lambda sweeps
# ---------------------------------------------------------------------------


class ReportError(ValueError):
    """An input file that is not what it should be (a sweep report, model,
    checkpoint or baseline file), or inputs that do not fit together: two
    sweeps that cannot be compared, or a model and the data it is run on."""


@dataclass(frozen=True)
class SweepCell:
    depth: int
    lam: float
    seed: int
    output_index: int
    metric: float
    ccp: float
    ml2p: float
    error: str | None = None


@dataclass
class SweepResult:
    dataset_id: str
    task: str
    mode: str
    depths: tuple[int, ...]
    lambda_grid: tuple[float, ...]
    seeds: tuple[int, ...]
    hidden_width: int
    cells: list[SweepCell] = field(default_factory=list)

    def output_indices(self) -> tuple[int, ...]:
        return tuple(sorted({c.output_index for c in self.cells}))

    def seed_values(self, fld: str, depth: int, lam: float, output_index: int) -> np.ndarray:
        vals = [
            getattr(c, fld)
            for c in self.cells
            if c.depth == depth and c.lam == lam and c.output_index == output_index
            and c.error is None
        ]
        return np.asarray(vals, dtype=np.float64)

    def mean_over_seeds(self, fld: str, depth: int, lam: float, output_index: int = 0) -> float:
        vals = self.seed_values(fld, depth, lam, output_index)
        return float(vals.mean()) if vals.size else float("nan")

    def check(self, spearman_threshold: float = -0.8) -> tuple[bool, list[str]]:
        """The mode's own penalty (CCP under mean ablation, ML2P under
        inverted dropout) must fall with lambda: Spearman(lambda, penalty)
        at or below the threshold at every depth, a NaN correlation failing."""
        own_penalty = "ccp" if self.mode == MEAN_ABLATION else "ml2p"
        problems = [
            f"Spearman(lambda, {own_penalty}) = {entry.spearman:.3f} "
            f"at depth {entry.depth} (threshold {spearman_threshold})"
            for entry in penalty_trend(self, own_penalty)["per_depth"]
            if not entry.spearman <= spearman_threshold
        ]
        return (not problems), problems


def lambda_sweep(
    d: Dataset,
    depths,
    mode: str,
    lambda_grid,
    seeds,
    cfg: TrainConfig | None = None,
    *,
    dataset_id: str = "dataset",
    hidden_width: int = 100,
    attribution_steps: int = 100,
) -> SweepResult:
    """Train one model per (depth, lambda, seed), then score the test split:
    the task metric, CCP from integrated gradients (zero baseline on the
    standardized features) and ML2P from the path-averaged gradients.

    Per the experimental protocol, depth-0 regression models are the
    closed-form solution equivalent to the requested augmentation mode.  Each
    seed drives the split, the initialization, the shuffling and the ablation
    masks; failed cells are recorded with their error instead of aborting the
    sweep.
    """
    cfg = cfg or TrainConfig()
    depths = tuple(int(v) for v in depths)
    lambda_grid = tuple(float(v) for v in lambda_grid)
    seeds = tuple(int(s) for s in seeds)
    for lam in lambda_grid:
        check_lambda(lam)
    if d.task == CLASSIFICATION:
        n_out = int(d.response.max()) + 1
        output_indices = tuple(range(n_out))
    else:
        n_out = 1
        output_indices = (0,)

    result = SweepResult(
        dataset_id=dataset_id,
        task=d.task,
        mode=mode,
        depths=depths,
        lambda_grid=lambda_grid,
        seeds=seeds,
        hidden_width=hidden_width,
    )
    for seed in seeds:
        d_train, d_val, d_test = split(d, SplitSpec(seed=seed))
        d_train, stats = standardize(d_train)
        d_val, _ = standardize(d_val, stats)
        d_test, _ = standardize(d_test, stats)
        test_stats = feature_stats(d_test.features)
        for depth in depths:
            for lam_index, lam in enumerate(lambda_grid):
                cell_seed = child_seed(seed, depth, lam_index)
                try:
                    model = _fit_cell(d_train, d_val, depth, lam, mode, cfg, cell_seed,
                                      hidden_width, n_out)
                except (SingularModelError, TrainingDivergedError) as err:
                    for oi in output_indices:
                        result.cells.append(SweepCell(
                            depth=depth, lam=lam, seed=seed, output_index=oi,
                            metric=float("nan"), ccp=float("nan"), ml2p=float("nan"),
                            error=str(err),
                        ))
                    continue
                metrics = evaluate(model, d_test)
                metric = metrics.get("mse", metrics.get("accuracy"))
                for oi in output_indices:
                    attr = integrated_gradients(
                        model,
                        d_test.features,
                        AttributionConfig(steps=attribution_steps, output_index=oi),
                    )
                    result.cells.append(SweepCell(
                        depth=depth, lam=lam, seed=seed, output_index=oi,
                        metric=float(metric),
                        ccp=ccp_variance_form(as_contributions(attr)),
                        ml2p=ml2p_from_avg_gradients(attr.avg_gradients, test_stats),
                    ))
    return result


def _fit_cell(
    d_train, d_val, depth, lam, mode, cfg, cell_seed, hidden_width, n_out
) -> MlpModel:
    if depth == 0 and d_train.task == REGRESSION:
        if lam == 0.0:
            fit = fit_ols(d_train)
            return linear_as_mlp(fit.beta, fit.intercept)
        solver = fit_ccp if mode == MEAN_ABLATION else fit_ml2p
        fit = solver(d_train, lam)
        return linear_as_mlp(fit.model.beta, fit.model.intercept)
    dims = [d_train.k] + [hidden_width] * depth + [n_out]
    model = init(dims, seed=cell_seed, task=d_train.task)
    run_cfg = dc_replace(
        cfg,
        seed=cell_seed,
        augment=AugmentSpec(mode, lam, 1, cell_seed),
    )
    trained, _ = train(model, d_train, d_val, run_cfg, log_train_loss=False)
    return trained


@dataclass(frozen=True)
class TrendEntry:
    depth: int
    output_index: int
    spearman: float
    first_mean: float
    last_mean: float


def _average_ranks(a: np.ndarray) -> np.ndarray:
    """1-based ranks, tied values sharing the mean of their ranks."""
    _, inverse, counts = np.unique(a, return_inverse=True, return_counts=True)
    upper = np.cumsum(counts)
    return (upper - (counts - 1) / 2)[inverse]


def _spearman(x, y) -> float:
    """Spearman's rho: the Pearson correlation of average-tie ranks.

    NaN when there are fewer than 2 points, any NaN, or a constant input.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.size < 2 or np.isnan(x).any() or np.isnan(y).any():
        return float("nan")
    if (x == x[0]).all() or (y == y[0]).all():
        return float("nan")
    ranks = np.column_stack([_average_ranks(x), _average_ranks(y)])
    return float(np.corrcoef(ranks, rowvar=False)[1, 0])


def penalty_trend(sweep: SweepResult, penalty_field: str) -> dict:
    """Spearman rank correlation between lambda and the seed-averaged
    penalty, per (depth, output) and pooled over depths.

    Tied values share the mean of their ranks, and rho is the Pearson
    correlation of the two rank columns.  It is NaN when there are fewer
    than 2 points, when any seed-averaged penalty is NaN (so a failed cell
    fails the trend gates), or when either input is constant.
    """
    if penalty_field not in ("ccp", "ml2p"):
        raise ValueError("penalty_field must be 'ccp' or 'ml2p'")
    entries = []
    pooled_x = []
    pooled_y = []
    for depth in sweep.depths:
        for oi in sweep.output_indices():
            means = [
                sweep.mean_over_seeds(penalty_field, depth, lam, oi)
                for lam in sweep.lambda_grid
            ]
            entries.append(TrendEntry(
                depth=depth, output_index=oi, spearman=_spearman(sweep.lambda_grid, means),
                first_mean=means[0], last_mean=means[-1],
            ))
            pooled_x.extend(sweep.lambda_grid)
            pooled_y.extend(means)
    return {"per_depth": entries, "pooled_spearman": _spearman(pooled_x, pooled_y)}


@dataclass
class CrossTrendReport:
    """The "reverse is not true" diagnostics: under mean ablation the
    second-moment penalty should rise with lambda, while inverted dropout
    pushes the covariance penalty's magnitude toward zero."""

    ml2p_under_mean_ablation: list[TrendEntry]
    ccp_abs_under_dropout: list[dict]
    zero_contrast: bool

    def ml2p_rises(self, min_spearman: float = 0.5) -> bool:
        return all(e.spearman >= min_spearman for e in self.ml2p_under_mean_ablation)

    def ccp_contracts(self) -> bool:
        return all(row["abs_last"] <= row["abs_first"] for row in self.ccp_abs_under_dropout)

    def check(self) -> tuple[bool, list[str]]:
        """Both reverse trends hold and the two sweeps differ."""
        problems = []
        if self.zero_contrast:
            problems.append("zero contrast: the two sweeps are identical")
        if not self.ml2p_rises():
            problems.append("ML2P does not rise with lambda under mean ablation")
        if not self.ccp_contracts():
            problems.append("|CCP| does not contract under inverted dropout")
        return (not problems), problems


def cross_trend_check(sweep_mada: SweepResult, sweep_iid: SweepResult) -> CrossTrendReport:
    """Compare the two modes' sweeps on the same grid."""
    same_shape = (
        sweep_mada.depths == sweep_iid.depths
        and sweep_mada.lambda_grid == sweep_iid.lambda_grid
        and sweep_mada.seeds == sweep_iid.seeds
    )
    if not same_shape:
        raise ReportError("sweeps must share depths, lambda grid and seeds")

    ml2p_trend = penalty_trend(sweep_mada, "ml2p")["per_depth"]
    ccp_rows = [{"depth": e.depth, "output_index": e.output_index,
                 "abs_first": abs(e.first_mean), "abs_last": abs(e.last_mean)}
                for e in penalty_trend(sweep_iid, "ccp")["per_depth"]]

    cells_a = [(c.depth, c.lam, c.seed, c.output_index, c.metric, c.ccp, c.ml2p)
               for c in sweep_mada.cells]
    cells_b = [(c.depth, c.lam, c.seed, c.output_index, c.metric, c.ccp, c.ml2p)
               for c in sweep_iid.cells]
    return CrossTrendReport(
        ml2p_under_mean_ablation=ml2p_trend,
        ccp_abs_under_dropout=ccp_rows,
        zero_contrast=cells_a == cells_b,
    )


# ---------------------------------------------------------------------------
# Report emission
# ---------------------------------------------------------------------------


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))  # plain-float repr even for numpy scalars
    return str(value)


def _csv_lines(header, rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


# Rows of CSV text made at a time, and table values formatted at a time.  A
# chunk's temporaries take about 8 bytes per byte of its text, so 1024 rows
# of a few dozen cells stay near a megabyte.
CHUNK_ROWS = 1024


class _TextTable:
    """The CSV text of a set of distinct float64 values, each formatted once
    as its ``repr``, looked up by bit pattern; keying on bits keeps ``0.0``
    and ``-0.0`` apart.

    The texts sit back to back in one byte buffer, each followed by a comma,
    so a table of many values is a few arrays, not a Python string each.  A
    chunk of rows is one gather from the buffer, with each row's last comma
    then turned into a newline."""

    def __init__(self, bits: np.ndarray):
        """``bits``: the values' sorted, distinct bit patterns, as int64."""
        self.bits = bits
        values = bits.view(np.float64)
        self.lengths = np.empty(bits.size, dtype=np.int64)
        parts = []
        for start in range(0, bits.size, CHUNK_ROWS):
            text = [repr(v) + "," for v in values[start:start + CHUNK_ROWS].tolist()]
            self.lengths[start:start + len(text)] = [len(t) for t in text]
            parts.append("".join(text))
        # a float's repr is ASCII
        self.text = np.frombuffer("".join(parts).encode("ascii"), dtype=np.uint8)
        self.starts = np.cumsum(self.lengths) - self.lengths

    def chunks(self, matrix: np.ndarray):
        """Yield the CSV body lines of the float64 matrix, one line per row,
        ``CHUNK_ROWS`` rows at a time.  A value missing from the table raises
        ``ValueError``; it is never formatted on the side."""
        matrix = np.ascontiguousarray(matrix, dtype=np.float64)
        n = self.bits.size
        width = matrix.shape[1]
        for start in range(0, matrix.shape[0], CHUNK_ROWS):
            bits = matrix[start:start + CHUNK_ROWS].view(np.int64).ravel()
            # sorted keys search about twice as fast: each search starts near
            # the last, in memory still cached
            order = np.argsort(bits)
            bits = bits[order]
            found = np.searchsorted(self.bits, bits)
            if n == 0 or not np.array_equal(self.bits[np.minimum(found, n - 1)], bits):
                raise ValueError("matrix holds a value missing from its text table")
            index = np.empty_like(found)
            index[order] = found
            lengths = self.lengths[index]
            ends = np.cumsum(lengths)  # where each cell's text ends in the chunk
            # byte i of the chunk is byte i - (its cell's start in the chunk)
            # of its value's text in the buffer
            offsets = np.repeat(self.starts[index] - (ends - lengths), lengths)
            offsets += np.arange(offsets.size)
            chunk = self.text[offsets]
            chunk[ends[width - 1::width] - 1] = ord("\n")
            yield chunk.tobytes().decode("ascii")


def _distinct_bits(values) -> np.ndarray:
    """The sorted, distinct float64 bit patterns of ``values``, as int64.

    A sort, not ``np.unique``: from numpy 2.3 that finds distinct values
    with a hash table, which took 0.2-0.3 s where this takes 0.01 s on the
    368,600 mostly distinct cells of an ``attribute`` output."""
    bits = np.sort(np.ascontiguousarray(values, dtype=np.float64).view(np.int64), axis=None)
    first = np.ones(bits.size, dtype=bool)
    np.not_equal(bits[1:], bits[:-1], out=first[1:])
    return bits[first]


def _matrix_lines(matrix: np.ndarray) -> str:
    """CSV body lines of a float matrix, one per row: the bytes
    :func:`_csv_lines` writes for ``matrix.tolist()``, without its header.

    When at most half the cells hold distinct float64 bit patterns (a
    bootstrap resample holds at most n*(k+1)+k), the lines come from a
    :class:`_TextTable` of the matrix's own values.  A matrix of mostly
    distinct values is formatted cell by cell, converting one row to Python
    floats at a time.  The sort that decides costs little next to the
    formatting: on the 19400x19 matrix of an ``attribute`` output it takes
    0.01 s of about 0.5 s.
    """
    matrix = np.ascontiguousarray(matrix, dtype=np.float64)
    bits = _distinct_bits(matrix)
    if 2 * bits.size > matrix.size:
        return "".join([",".join(map(repr, row.tolist())) + "\n" for row in matrix])
    return "".join(_TextTable(bits).chunks(matrix))


def augmented_lines(d: Dataset, spec: AugmentSpec):
    """The CSV body of the synthetic set of d, ``[X | y]`` row by row, as an
    iterator of text chunks; the draws are those of
    :func:`~ablatereg.augment.augmented_chunks`, one block in memory at a time.

    Every value a cell can hold (:func:`~ablatereg.augment.synthetic_values`)
    is formatted once for the whole run, into one :class:`_TextTable`, when
    there are at most as many of them as :func:`_matrix_lines` would share
    in one block: half of the first block's cells.  A larger source is
    formatted block by block by :func:`_matrix_lines`, which bounds the
    table's memory by one block's.  Both give the same bytes.
    """
    blocks = (np.column_stack(block) for block in augmented_chunks(d, spec))
    bits = _distinct_bits(synthetic_values(d, spec))
    if 2 * bits.size > min(BLOCK_ROWS, spec.n_synthetic) * (d.k + 1):
        return map(_matrix_lines, blocks)
    return itertools.chain.from_iterable(map(_TextTable(bits).chunks, blocks))


def _stderr(values: np.ndarray) -> float:
    values = values[np.isfinite(values)]
    if values.size <= 1:
        return 0.0
    return float(values.std(ddof=1) / math.sqrt(values.size))


def _sweep_rows(result: SweepResult):
    header = ["kind", "dataset", "task", "mode", "depth", "lambda", "seed",
              "output_index", "metric", "ccp", "ml2p",
              "metric_stderr", "ccp_stderr", "ml2p_stderr", "error"]
    rows = []
    for c in result.cells:
        rows.append(["cell", result.dataset_id, result.task, result.mode, c.depth,
                     c.lam, c.seed, c.output_index, c.metric, c.ccp, c.ml2p,
                     "", "", "", c.error or ""])
    for depth in result.depths:
        for lam in result.lambda_grid:
            for oi in result.output_indices():
                means = []
                stderrs = []
                for fld in ("metric", "ccp", "ml2p"):
                    vals = result.seed_values(fld, depth, lam, oi)
                    means.append(float(vals.mean()) if vals.size else float("nan"))
                    stderrs.append(_stderr(vals))
                rows.append(["aggregate", result.dataset_id, result.task, result.mode,
                             depth, lam, "", oi, means[0], means[1], means[2],
                             stderrs[0], stderrs[1], stderrs[2], ""])
    return header, rows


def _convergence_rows(run: ConvergenceRun):
    header = ["kind", "theorem", "mode", "lambda", "N", "seed",
              "dist_l2", "dist_linf", "gram_resid", "cross_resid",
              "dist_l2_median", "dist_linf_median", "dist_l2_stderr", "dist_linf_stderr"]
    rows = []
    for i, seed in enumerate(run.seeds):
        for j, n_syn in enumerate(run.n_schedule):
            rows.append(["cell", run.theorem, run.mode, run.lam, n_syn, seed,
                         float(run.dist_l2[i, j]), float(run.dist_linf[i, j]),
                         float(run.gram_resid[i, j]), float(run.cross_resid[i, j]),
                         "", "", "", ""])
    for j, n_syn in enumerate(run.n_schedule):
        rows.append(["aggregate", run.theorem, run.mode, run.lam, n_syn, "",
                     _nanstat(np.nanmean, run.dist_l2[:, j]),
                     _nanstat(np.nanmean, run.dist_linf[:, j]),
                     _nanstat(np.nanmean, run.gram_resid[:, j]),
                     _nanstat(np.nanmean, run.cross_resid[:, j]),
                     _nanstat(np.nanmedian, run.dist_l2[:, j]),
                     _nanstat(np.nanmedian, run.dist_linf[:, j]),
                     _stderr(run.dist_l2[:, j]),
                     _stderr(run.dist_linf[:, j])])
    return header, rows


def _cross_rows(report: CrossTrendReport):
    header = ["kind", "depth", "output_index", "ml2p_mada_spearman",
              "ml2p_mada_first", "ml2p_mada_last", "ccp_iid_abs_first",
              "ccp_iid_abs_last", "zero_contrast"]
    ccp_by_key = {(r["depth"], r["output_index"]): r for r in report.ccp_abs_under_dropout}
    rows = []
    for entry in report.ml2p_under_mean_ablation:
        ccp = ccp_by_key.get((entry.depth, entry.output_index), {})
        rows.append(["cross", entry.depth, entry.output_index, entry.spearman,
                     entry.first_mean, entry.last_mean,
                     ccp.get("abs_first", float("nan")),
                     ccp.get("abs_last", float("nan")),
                     report.zero_contrast])
    return header, rows


def render_report(result, fmt: str = "csv") -> str:
    """Serialize a harness result deterministically (re-rendering the same
    result is byte-identical)."""
    if isinstance(result, SweepResult):
        header, rows = _sweep_rows(result)
        meta = {
            "type": "sweep", "dataset": result.dataset_id, "task": result.task,
            "mode": result.mode, "depths": list(result.depths),
            "lambda_grid": list(result.lambda_grid), "seeds": list(result.seeds),
            "hidden_width": result.hidden_width,
        }
    elif isinstance(result, ConvergenceRun):
        header, rows = _convergence_rows(result)
        meta = {
            "type": "convergence", "theorem": result.theorem, "mode": result.mode,
            "lambda": result.lam, "n_schedule": list(result.n_schedule),
            "seeds": list(result.seeds), "target_beta": result.target_beta.tolist(),
            "failures": result.failures,
        }
    elif isinstance(result, CrossTrendReport):
        header, rows = _cross_rows(result)
        meta = {"type": "cross_trend", "zero_contrast": result.zero_contrast}
    else:
        raise TypeError(f"cannot render a report for {type(result).__name__}")

    if fmt == "csv":
        return _csv_lines(header, rows)
    if fmt == "json":
        payload = {
            "meta": meta,
            "columns": header,
            "rows": [[None if (isinstance(v, float) and math.isnan(v)) else v for v in row]
                     for row in rows],
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"
    raise ValueError(f"format must be 'csv' or 'json', got {fmt!r}")


def emit_report(result, fmt: str, path):
    """Write the rendered report to ``path`` and return the path."""
    write_text(path, render_report(result, fmt))
    return path


def write_text(path, text) -> None:
    """Write ``text``, a string or an iterable of string chunks, to ``path``
    as UTF-8, newlines as given.  Every report, model and checkpoint file the
    package writes goes through here.

    A regular file is written atomically: the chunks go to a new file in the
    target's directory, which then replaces ``path`` and takes over the old
    file's permission bits.  If anything fails on the way, the new file is
    removed and ``path`` is left as it was; an ``OSError`` on the new file
    names ``path`` instead.  Replacing makes a new inode, so the old file's
    owner is not kept and a hard link to it keeps the old contents.  A
    symbolic link is followed, so the file it names is replaced and the link
    kept.

    Two kinds of target are opened and written in place instead, as a plain
    ``open`` would: one that exists and is no regular file (a pipe, a socket
    or a terminal), and any path under ``/dev`` or ``/proc``, such as
    ``/dev/stdout``, which names a descriptor the caller already holds even
    when that is a regular file.
    """
    if isinstance(text, str):
        text = (text,)
    try:
        mode = os.stat(path).st_mode  # follows links, /proc's included
    except FileNotFoundError:
        mode = None
    in_place = os.path.abspath(path).startswith(("/dev/", "/proc/"))
    if in_place or (mode is not None and not stat.S_ISREG(mode)):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(text)
        return
    real = os.path.realpath(path)
    directory, name = os.path.split(real)
    tmp = os.path.join(directory, f".{name}.{secrets.token_hex(6)}.tmp")
    try:
        with open(tmp, "x", encoding="utf-8", newline="") as fh:
            fh.writelines(text)
            if mode is not None:
                os.fchmod(fh.fileno(), stat.S_IMODE(mode))
        os.replace(tmp, real)
    except BaseException as err:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        if isinstance(err, OSError) and err.filename == tmp:
            raise type(err)(err.errno, err.strerror, os.fspath(path)) from None
        raise


_SWEEP_META = ("dataset", "task", "mode", "depths", "lambda_grid", "seeds", "hidden_width")
_SWEEP_COLUMNS = ("kind", "depth", "lambda", "seed", "output_index", "metric", "ccp", "ml2p",
                  "error")


def sweep_from_payload(payload) -> SweepResult:
    """Rebuild a :class:`SweepResult` from its JSON report payload.  Anything
    that is not a whole sweep report raises :class:`ReportError`."""
    meta = payload.get("meta") if isinstance(payload, dict) else None
    if not isinstance(meta, dict) or meta.get("type") != "sweep":
        raise ReportError("payload is not a sweep report")
    columns, rows = payload.get("columns"), payload.get("rows")
    if not isinstance(columns, list) or not isinstance(rows, list):
        raise ReportError("sweep report needs a 'columns' list and a 'rows' list")
    missing = ([f"meta {key!r}" for key in _SWEEP_META if key not in meta]
               + [f"column {name!r}" for name in _SWEEP_COLUMNS if name not in columns])
    if missing:
        raise ReportError(f"sweep report lacks {', '.join(missing)}")
    col = {name: i for i, name in enumerate(columns)}
    try:
        result = SweepResult(
            dataset_id=meta["dataset"],
            task=meta["task"],
            mode=meta["mode"],
            depths=tuple(meta["depths"]),
            lambda_grid=tuple(meta["lambda_grid"]),
            seeds=tuple(meta["seeds"]),
            hidden_width=meta["hidden_width"],
        )
        for row in rows:
            if row[col["kind"]] != "cell":
                continue

            def num(name):
                value = row[col[name]]
                return float("nan") if value is None else float(value)

            result.cells.append(SweepCell(
                depth=int(row[col["depth"]]),
                lam=float(row[col["lambda"]]),
                seed=int(row[col["seed"]]),
                output_index=int(row[col["output_index"]]),
                metric=num("metric"),
                ccp=num("ccp"),
                ml2p=num("ml2p"),
                error=(row[col["error"]] or None),
            ))
    except (IndexError, TypeError, ValueError) as err:
        raise ReportError(f"malformed sweep report: {err}") from None
    return result
