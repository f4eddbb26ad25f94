"""Experiment harness: Monte-Carlo verification that OLS on the synthetic
ablated datasets converges to the closed-form penalized solutions, lambda
sweeps that trace how the two penalties respond to each augmentation mode,
and the tables of their reports, rendered by the text rules of
:mod:`ablatereg.files`.

The Monte-Carlo checks never hold a synthetic set in memory, and they
solve OLS from centered sufficient statistics of ``[X | y]``.  Each set is
one source of weighted blocks (:func:`~ablatereg.augment.weighted_blocks`),
and one reduction gives its moments: each block's rows, shifted by the
source column means, are reduced to their weighted sum and weighted
cross-products (:func:`_shifted_sums`), the blocks' sums are added in block
order, and the moments are the shifted cross-products over N less the outer
product of the shifted mean (:func:`_moments`).  The moment check loops over
the same blocks again for the spread of each centered product
(:func:`_block_square_deviations`).  Whether the blocks are the distinct
rows of a counted set weighted by their multinomial counts, or the streamed
rows of :func:`~ablatereg.augment.augmented_chunks`, is decided in
:mod:`ablatereg.augment` alone; only in the second case are the draws those
of :func:`~ablatereg.augment.build_augmented`.  Everything runs on the
calling thread and the sums are added in a fixed order, so the reports are
the same bytes on every run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace as dc_replace

import numpy as np

from .attribution import AttributionConfig, integrated_gradients
from .augment import INVERTED_DROPOUT, MEAN_ABLATION, AugmentSpec, check_mode, weighted_blocks
from .dataset import (
    CLASSIFICATION,
    REGRESSION,
    Dataset,
    DatasetError,
    SplitSpec,
    feature_stats,
    split,
    standardize,
)
from .linear import (CCP, ML2P, SingularModelError, _solve_system, fit_ccp, fit_ml2p,
                     normal_equations)
from .nn import (
    MlpModel,
    TrainConfig,
    TrainingDivergedError,
    TrainLog,
    evaluate,
    init,
    linear_as_mlp,
    train,
)
from .files import ReportError, csv_text, json_text
from .penalty import ccp_variance_form, ml2p_from_avg_gradients
from ._streams import child_seed


# The gates of the ``check()`` methods and :attr:`MomentCheck.ok`.  The CLI's
# ``converge --check`` and ``sweep --check`` gate at LINF_TOLERANCE and
# SPEARMAN_THRESHOLD unless given a threshold of their own.
LINF_TOLERANCE = 0.02  # final-N L-infinity distance to the closed form
SLOPE_BAND = (-0.7, -0.3)  # log-log slope of median L2 against N; 1/sqrt(N) is -0.5
MOMENT_SIGMAS = 3.0  # elementwise moment error in Monte-Carlo standard errors, at most
SPEARMAN_THRESHOLD = -0.8  # Spearman(lambda, own penalty), at most
ML2P_RISE_MIN = 0.5  # Spearman(lambda, ML2P) under mean ablation, at least


def check_increasing(values, what: str) -> None:
    """The one order rule for an N schedule and a lambda grid: strictly
    increasing, so that a trend read from the first entry to the last runs
    from the smallest to the largest."""
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ValueError(f"{what} must be strictly increasing, got {list(values)}")


def check_distinct(seeds) -> None:
    """The seeds of a run must differ: each stands for an independent
    replicate, and a repeated one would shrink the spread over seeds."""
    if len(set(seeds)) != len(seeds):
        raise ValueError(f"seeds must be distinct, got {list(seeds)}")


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

    def check(self, linf_tolerance: float = LINF_TOLERANCE) -> tuple[bool, list[str]]:
        """The Monte-Carlo rate, as pass/fail messages: every final-N fit
        within ``linf_tolerance`` of the target in L-infinity, a median L2
        distance that never grows with N, and a log-log slope of that median
        against N inside :data:`SLOPE_BAND`.  A slope that cannot be fitted
        fails."""
        problems = []
        final = self.dist_linf[:, -1]
        if not np.all(np.isfinite(final)):
            problems.append("some final-N fits failed")
        elif not final.max() <= linf_tolerance:
            problems.append(
                f"max final Linf distance {final.max():.4g} exceeds {linf_tolerance}"
            )
        med = self.median_l2()
        if np.any(np.diff(med) > 0):
            problems.append("median L2 distance is not non-increasing over the N schedule")
        slope = self.loglog_slope()
        low, high = SLOPE_BAND
        if math.isnan(slope):
            problems.append("log-log slope is undefined: fewer than two finite, positive "
                            "median L2 distances")
        elif not low <= slope <= high:
            problems.append(f"log-log slope {slope:.3f} of median L2 against N is outside "
                            f"[{low}, {high}]")
        return (not problems), problems


def _mode_fit(d: Dataset, mode: str, lam: float):
    """The closed form ``mode`` converges to: CCP (Theorem 1) or ML2P (Theorem 2)."""
    return (fit_ccp if mode == MEAN_ABLATION else fit_ml2p)(d, lam)


def _moment_limits(d: Dataset, mode: str, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """Almost-sure limits of the augmented centered Gram and cross moments:
    the mode's closed-form system (:func:`~ablatereg.linear.normal_equations`)
    over n, times 1 - lam under mean ablation."""
    kind, factor = (CCP, 1.0 - lam) if mode == MEAN_ABLATION else (ML2P, 1.0)
    A, rhs, *_ = normal_equations(d, lam, kind)
    return factor / d.n * A, factor / d.n * rhs


def _shifted_sums(z, weights, shift):
    """The weighted sums of the rows of one ``[X | y]`` block shifted by
    ``shift``, and of their outer products; z is shifted in place."""
    z -= shift
    if weights is None:
        return z.sum(axis=0), z.T @ z
    return weights @ z, z.T @ (z * weights[:, None])


def _moments(d: Dataset, spec: AugmentSpec, blocks) -> tuple[np.ndarray, np.ndarray]:
    """Mean and centered second moments over N of ``[X | y]`` on the set of
    ``blocks`` (:func:`~ablatereg.augment.weighted_blocks`), from sums of the
    rows shifted by the source column means, which both ablation modes keep
    in expectation (Chan, Golub & LeVeque 1983): the shifted mean is small,
    so large feature means cost no precision.  The blocks' sums are added in
    block order."""
    shift = np.append(d.features.mean(axis=0), d.response.mean())
    total = cross = 0.0
    for z, weights in blocks():
        block_total, block_cross = _shifted_sums(z, weights, shift)
        total = total + block_total
        cross = cross + block_cross
    offset = total / spec.n_synthetic
    return shift + offset, cross / spec.n_synthetic - np.outer(offset, offset)


def _streamed_moments(d: Dataset, spec: AugmentSpec) -> tuple[np.ndarray, np.ndarray]:
    """Mean and centered second moments (cross-products over N) of
    ``[X | y]`` on the synthetic set (:func:`_moments`)."""
    return _moments(d, spec, weighted_blocks(d, spec))


def _converge(d: Dataset, theorem: int, lam: float, n_schedule, seeds) -> ConvergenceRun:
    """Reduces each (seed, N) synthetic set through :func:`_streamed_moments`
    and solves OLS from its centered Gram system through the one gated
    solve of :func:`~ablatereg.linear.fit_ols`.  On a rows-path
    design the draws are those of :func:`~ablatereg.augment.build_augmented`,
    and only the summation order differs from fitting the materialized set;
    a counted set is drawn as its pattern counts, with the same law."""
    n_schedule = tuple(int(v) for v in n_schedule)
    check_increasing(n_schedule, "N schedule")
    seeds = tuple(int(s) for s in seeds)
    check_distinct(seeds)
    mode = MEAN_ABLATION if theorem == 1 else INVERTED_DROPOUT
    target = _mode_fit(d, mode, lam).model.beta
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

    @property
    def ok(self) -> bool:
        """Every moment within :data:`MOMENT_SIGMAS` standard errors of its limit."""
        return bool(np.all(self.gram_sigmas <= MOMENT_SIGMAS)
                    and np.all(self.cross_sigmas <= MOMENT_SIGMAS))

    @property
    def worst_sigma(self) -> float:
        return float(max(self.gram_sigmas.max(), self.cross_sigmas.max()))


def _block_square_deviations(z, weights, mean, pairs, observed):
    """Per pair (a, b), the sum over the rows of z of the squared deviation
    of the centered product ``z[:, a] * z[:, b]`` from its moment, each row
    counted ``weights`` times (once if None), built one column at a time in
    one product column.  z is centered in place."""
    z -= mean
    product = np.empty(len(z))
    sums = np.empty(len(pairs))
    for p, (a, b) in enumerate(pairs):
        np.multiply(z[:, a], z[:, b], out=product)
        product -= observed[p]
        np.square(product, out=product)
        sums[p] = product.sum() if weights is None else weights @ product
    return sums


def check_moment_limits(d: Dataset, mode: str, lam: float, n_synthetic: int,
                        seed: int) -> MomentCheck:
    """Measure the augmented Gram and cross moments against their limits,
    elementwise, in empirical standard errors; :attr:`MomentCheck.ok` holds
    when each is within :data:`MOMENT_SIGMAS`.

    The set is that of :func:`~ablatereg.augment.weighted_blocks`: on a
    rows-path design the draws of :func:`~ablatereg.augment.build_augmented`,
    and on a counted one its pattern counts, with the same law.  Two
    reductions run over the same weighted blocks: the first gives the
    moments, the observed values (:func:`_moments`); the second the spread
    of each centered product around its moment, whose standard deviation
    over sqrt(N) is the standard error.
    """
    spec = AugmentSpec(mode, lam, n_synthetic, seed)
    gram_limit, cross_limit = _moment_limits(d, mode, lam)
    k = d.k
    # upper triangle of [X | y] pairs, without the (y, y) entry
    rows, cols = (idx[:-1] for idx in np.triu_indices(k + 1))
    blocks = weighted_blocks(d, spec)
    mean, moments = _moments(d, spec, blocks)
    observed = moments[rows, cols]
    sq_dev = np.zeros(rows.size)
    pairs = tuple(zip(rows, cols))
    for z, weights in blocks():
        sq_dev += _block_square_deviations(z, weights, mean, pairs, observed)
    se = np.sqrt(sq_dev / n_synthetic) / math.sqrt(n_synthetic)

    err = np.abs(observed - np.column_stack([gram_limit, cross_limit])[rows, cols])
    sigmas = np.zeros((k + 1, k + 1))
    sigmas[rows, cols] = sigmas[cols, rows] = np.divide(
        err, se, out=np.zeros_like(err), where=se > 0)
    return MomentCheck(
        mode=mode,
        lam=lam,
        n_synthetic=n_synthetic,
        gram_sigmas=sigmas[:k, :k],
        cross_sigmas=sigmas[:k, k],
    )


# ---------------------------------------------------------------------------
# Lambda sweeps
# ---------------------------------------------------------------------------


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

    def check(self, spearman_threshold: float = SPEARMAN_THRESHOLD) -> tuple[bool, list[str]]:
        """No cell failed, and the mode's own penalty (CCP under mean
        ablation, ML2P under inverted dropout) falls with lambda:
        Spearman(lambda, penalty) at or below the threshold at every (depth,
        output), a NaN correlation failing."""
        own_penalty = "ccp" if self.mode == MEAN_ABLATION else "ml2p"
        problems = []
        failed = [c for c in self.cells if c.error is not None]
        if failed:
            first = failed[0]
            problems.append(f"{len(failed)} of {len(self.cells)} cells failed, the first at "
                            f"depth {first.depth}, lambda {first.lam}, seed {first.seed}: "
                            f"{first.error}")
        problems += [
            f"Spearman(lambda, {own_penalty}) = {entry.spearman:.3f} "
            f"at depth {entry.depth}, output {entry.output_index} (threshold {spearman_threshold})"
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
    closed-form solution equivalent to the requested augmentation mode; every
    other cell is trained by :func:`train_cell` from ``cfg`` with the sweep's
    mode, the cell's lambda and the cell's one seed, ``child_seed(seed, depth,
    lambda-index)``; each seed drives the split.  Failed cells are recorded
    with their error instead of aborting the sweep.  An unknown mode, or a
    test split of fewer than 2 rows (:class:`~ablatereg.dataset.DatasetError`),
    raises before any cell is fitted.
    """
    cfg = cfg or TrainConfig()
    depths = tuple(int(v) for v in depths)
    lambda_grid = tuple(float(v) for v in lambda_grid)
    seeds = tuple(int(s) for s in seeds)
    lam_cfgs = [dc_replace(cfg, mode=mode, lam=lam) for lam in lambda_grid]  # checks each lambda
    check_increasing(lambda_grid, "lambda grid")
    check_distinct(seeds)
    check_mode(mode)
    n_out = output_count(d)

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
        d_train, d_val, d_test, _ = standardized_splits(d, SplitSpec(seed=seed))
        if d_test.n < 2:  # the split sizes are the same for every seed
            raise DatasetError(f"the test split holds {d_test.n} of the {d.n} rows; "
                               "CCP needs at least 2")
        test_stats = feature_stats(d_test.features)
        for depth in depths:
            for lam_index, lam in enumerate(lambda_grid):
                cell_cfg = dc_replace(lam_cfgs[lam_index], seed=child_seed(seed, depth, lam_index))
                try:
                    model = _fit_cell(d_train, d_val, depth, cell_cfg, hidden_width, n_out)
                except (SingularModelError, TrainingDivergedError) as err:
                    result.cells += [SweepCell(depth, lam, seed, oi, math.nan, math.nan, math.nan,
                                               error=str(err)) for oi in range(n_out)]
                    continue
                metrics = evaluate(model, d_test)
                metric = metrics.get("mse", metrics.get("accuracy"))
                for oi in range(n_out):
                    attr = integrated_gradients(
                        model,
                        d_test.features,
                        AttributionConfig(steps=attribution_steps, output_index=oi),
                    )
                    result.cells.append(SweepCell(
                        depth=depth, lam=lam, seed=seed, output_index=oi,
                        metric=float(metric),
                        ccp=ccp_variance_form(attr.attributions),
                        ml2p=ml2p_from_avg_gradients(attr.avg_gradients, test_stats),
                    ))
    return result


def _fit_cell(d_train, d_val, depth, cfg: TrainConfig, hidden_width, n_out) -> MlpModel:
    """``cfg.mode``'s closed form at ``cfg.lam`` for depth-0 regression, else :func:`train_cell`."""
    if depth == 0 and d_train.task == REGRESSION:
        fit = _mode_fit(d_train, cfg.mode, cfg.lam)
        return linear_as_mlp(fit.model.beta, fit.model.intercept)
    return train_cell(d_train, d_val, depth, hidden_width, n_out, cfg, log_train_loss=False)[0]


def standardized_splits(d: Dataset, spec: SplitSpec):
    """The split of d, each part standardized with the training part's stats."""
    d_train, d_val, d_test = split(d, spec)
    d_train, stats = standardize(d_train)
    return d_train, standardize(d_val, stats)[0], standardize(d_test, stats)[0], stats


def output_count(d: Dataset) -> int:
    """One network output per class of all of d, a class no training row holds
    included, or one for regression."""
    return int(d.response.max()) + 1 if d.task == CLASSIFICATION else 1


def train_cell(d_train, d_val, depth: int, width: int, n_out: int, cfg: TrainConfig, *,
               log_train_loss: bool) -> tuple[MlpModel, TrainLog]:
    """Train a ReLU net of ``depth`` hidden layers of ``width`` units from
    ``cfg.seed`` by :func:`~ablatereg.nn.train`: the model at its best epoch
    and the training log."""
    dims = [d_train.k] + [width] * depth + [n_out]
    model = init(dims, seed=cfg.seed, task=d_train.task)
    return train(model, d_train, d_val, cfg, log_train_loss=log_train_loss)


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
    """The "reverse is not true" diagnostics, one entry per (depth, output)
    of each list, in the same order: under mean ablation the second-moment
    penalty should rise with lambda, while inverted dropout pushes the
    covariance penalty's magnitude toward zero."""

    ml2p_under_mean_ablation: list[TrendEntry]
    ccp_under_dropout: list[TrendEntry]
    zero_contrast: bool

    def check(self) -> tuple[bool, list[str]]:
        """The two sweeps differ, and at every (depth, output) Spearman(lambda,
        ML2P) under mean ablation is at least :data:`ML2P_RISE_MIN` and |CCP|
        under inverted dropout is no larger at the last lambda than at the
        first.  A NaN fails."""
        problems = []
        if self.zero_contrast:
            problems.append("zero contrast: the two sweeps are identical")
        problems += [
            f"Spearman(lambda, ml2p) under mean ablation = {e.spearman:.3f} at depth "
            f"{e.depth}, output {e.output_index} (must be at least {ML2P_RISE_MIN})"
            for e in self.ml2p_under_mean_ablation
            if not e.spearman >= ML2P_RISE_MIN
        ]
        problems += [
            f"|CCP| under inverted dropout grows from {abs(e.first_mean):.4g} to "
            f"{abs(e.last_mean):.4g} at depth {e.depth}, output {e.output_index}"
            for e in self.ccp_under_dropout
            if not abs(e.last_mean) <= abs(e.first_mean)
        ]
        return (not problems), problems


def cross_trend_check(sweep_mada: SweepResult, sweep_iid: SweepResult) -> CrossTrendReport:
    """Compare the two modes' sweeps on the same grid and outputs: a
    mean-ablation sweep first and an inverted-dropout sweep second, or
    :class:`ReportError` names both modes."""
    if (sweep_mada.mode, sweep_iid.mode) != (MEAN_ABLATION, INVERTED_DROPOUT):
        raise ReportError(
            f"cross-check needs a {MEAN_ABLATION!r} (mean-ablation) sweep and an "
            f"{INVERTED_DROPOUT!r} (inverted-dropout) sweep, in that order; got "
            f"{sweep_mada.mode!r} and {sweep_iid.mode!r}")
    same_shape = (
        sweep_mada.depths == sweep_iid.depths
        and sweep_mada.lambda_grid == sweep_iid.lambda_grid
        and sweep_mada.seeds == sweep_iid.seeds
    )
    if not same_shape:
        raise ReportError("sweeps must share depths, lambda grid and seeds")
    if sweep_mada.output_indices() != sweep_iid.output_indices():
        raise ReportError(
            f"sweeps must share output indices: the mean-ablation sweep has "
            f"{list(sweep_mada.output_indices())}, the dropout sweep "
            f"{list(sweep_iid.output_indices())}")

    return CrossTrendReport(
        ml2p_under_mean_ablation=penalty_trend(sweep_mada, "ml2p")["per_depth"],
        ccp_under_dropout=penalty_trend(sweep_iid, "ccp")["per_depth"],
        zero_contrast=_cell_bits(sweep_mada) == _cell_bits(sweep_iid),
    )


def _cell_bits(sweep: SweepResult) -> list[tuple]:
    """Each cell's key, error and the bits of its metric and penalties, so
    that two NaNs read back from separate reports compare equal."""
    return [(c.depth, c.lam, c.seed, c.output_index, c.error,
             np.array([c.metric, c.ccp, c.ml2p]).tobytes()) for c in sweep.cells]


# ---------------------------------------------------------------------------
# Report tables
# ---------------------------------------------------------------------------


# The columns of a sweep report, which :func:`sweep_from_payload` reads back.
SWEEP_HEADER = ("kind", "dataset", "task", "mode", "depth", "lambda", "seed", "output_index",
                "metric", "ccp", "ml2p", "metric_stderr", "ccp_stderr", "ml2p_stderr", "error")


def _stderr(values: np.ndarray) -> float:
    values = values[np.isfinite(values)]
    if values.size <= 1:
        return 0.0
    return float(values.std(ddof=1) / math.sqrt(values.size))


def _sweep_rows(result: SweepResult):
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
    return SWEEP_HEADER, rows


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
    rows = [["cross", ml2p.depth, ml2p.output_index, ml2p.spearman,
             ml2p.first_mean, ml2p.last_mean, abs(ccp.first_mean), abs(ccp.last_mean),
             report.zero_contrast]
            for ml2p, ccp in zip(report.ml2p_under_mean_ablation, report.ccp_under_dropout,
                                  strict=True)]
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
        return csv_text(header, rows)
    if fmt == "json":
        return json_text({
            "meta": meta,
            "columns": header,
            "rows": [[None if (isinstance(v, float) and math.isnan(v)) else v for v in row]
                     for row in rows],
        })
    raise ValueError(f"format must be 'csv' or 'json', got {fmt!r}")


_SWEEP_META = ("dataset", "task", "mode", "depths", "lambda_grid", "seeds", "hidden_width")


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
               + [f"column {name!r}" for name in SWEEP_HEADER if name not in columns])
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
        check_increasing(result.lambda_grid, "lambda grid")
        check_distinct(result.seeds)
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
