"""Tabular data handling: CSV ingestion, one-hot encoding, standardization,
train/validation/test splitting, and a seeded synthetic generator with known
ground-truth coefficients.

All statistics use the population convention (divide by n); the closed-form
solvers in :mod:`ablatereg.linear` depend on that convention exactly.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass, field, replace
from itertools import compress

import numpy as np

from . import _streams

logger = logging.getLogger(__name__)

NUMERIC = "numeric"
DUMMY = "dummy"
CATEGORICAL = "categorical"

REGRESSION = "regression"
CLASSIFICATION = "classification"

_MISSING_TOKENS = {"", "na", "n/a", "nan", "null", "none", "?"}
_MAX_CATEGORIES = 10_000


class DatasetError(ValueError):
    """Raised for malformed or unusable input data."""


@dataclass(frozen=True)
class Dataset:
    """A dense tabular dataset: feature matrix, response and column metadata.

    ``column_kinds`` entries are ``numeric``, ``dummy`` (a 0/1 indicator
    produced by one-hot encoding) or ``categorical`` (integer category codes
    awaiting :func:`one_hot_encode`; the code order follows the sorted
    category list stored in ``categories``).
    """

    features: np.ndarray
    response: np.ndarray
    column_names: tuple[str, ...]
    column_kinds: tuple[str, ...]
    task: str
    categories: dict[str, tuple[str, ...]] = field(default_factory=dict)
    n_dropped: int = 0

    def __post_init__(self):
        features = np.ascontiguousarray(np.asarray(self.features, dtype=np.float64))
        response = np.ascontiguousarray(np.asarray(self.response, dtype=np.float64)).ravel()
        if features.ndim != 2:
            raise DatasetError("features must be a 2-D matrix")
        if response.shape[0] != features.shape[0]:
            raise DatasetError(
                f"response length {response.shape[0]} != row count {features.shape[0]}"
            )
        if len(self.column_names) != features.shape[1]:
            raise DatasetError("column_names length does not match feature count")
        if len(self.column_kinds) != features.shape[1]:
            raise DatasetError("column_kinds length does not match feature count")
        if not np.all(np.isfinite(features)):
            raise DatasetError("features contain non-finite values")
        if not np.all(np.isfinite(response)):
            raise DatasetError("response contains non-finite values")
        if self.task not in (REGRESSION, CLASSIFICATION):
            raise DatasetError(f"unknown task {self.task!r}")
        features.flags.writeable = False
        response.flags.writeable = False
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "response", response)
        object.__setattr__(self, "column_names", tuple(self.column_names))
        object.__setattr__(self, "column_kinds", tuple(self.column_kinds))

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def k(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class FeatureStats:
    """Per-column means and population variances (plus the response mean,
    which regression standardization needs to carry from train to test)."""

    means: np.ndarray
    variances: np.ndarray
    response_mean: float | None = None

    def __post_init__(self):
        means = np.asarray(self.means, dtype=np.float64).ravel()
        variances = np.asarray(self.variances, dtype=np.float64).ravel()
        if means.shape != variances.shape:
            raise DatasetError("means and variances must have equal length")
        if np.any(variances < 0):
            raise DatasetError("variances must be non-negative")
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "variances", variances)

    @property
    def k(self) -> int:
        return self.means.shape[0]

    @property
    def second_moments(self) -> np.ndarray:
        """E[x_j^2] = v_j + mu_j^2 per column."""
        return self.variances + self.means**2


@dataclass(frozen=True)
class SplitSpec:
    test_fraction: float = 0.2
    validation_fraction_of_train: float = 0.25
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.test_fraction < 1.0:
            raise DatasetError("test_fraction must be in (0, 1)")
        if not 0.0 <= self.validation_fraction_of_train < 1.0:
            raise DatasetError("validation_fraction_of_train must be in [0, 1)")


def feature_stats(d: Dataset | np.ndarray) -> FeatureStats:
    """Population means/variances of the feature columns (and response mean
    for regression datasets)."""
    if isinstance(d, Dataset):
        X = d.features
        response_mean = float(np.mean(d.response)) if d.task == REGRESSION else None
    else:
        X = np.asarray(d, dtype=np.float64)
        response_mean = None
    means = X.mean(axis=0)
    variances = X.var(axis=0)  # ddof=0: population convention
    return FeatureStats(means=means, variances=variances, response_mean=response_mean)


def _float_or_nan(token: str) -> float:
    try:
        return float(token)
    except ValueError:
        return math.nan


def _scan_column(cells) -> tuple[list[str], np.ndarray, np.ndarray, np.ndarray]:
    """Strip, parse and test for a missing token each cell of one column,
    once: ``(stripped, values, parsed, missing)``.

    ``values`` holds Python ``float()`` of each stripped cell (NaN where it
    does not parse) and ``parsed`` marks the finite ones, the only usable
    numbers.  No missing token parses to a finite number, so only the cells
    that do not parse are tested against the tokens.
    """
    stripped = [cell.strip() for cell in cells]
    values = np.fromiter(map(_float_or_nan, stripped), np.float64, len(stripped))
    parsed = np.isfinite(values)
    missing = np.zeros(len(stripped), dtype=bool)
    unparsed = np.flatnonzero(~parsed)
    missing[unparsed] = [stripped[i].lower() in _MISSING_TOKENS for i in unparsed.tolist()]
    return stripped, values, parsed, missing


def _category_codes(values: list[str]) -> tuple[tuple[str, ...], list[int]]:
    """The sorted distinct values, and each value's index among them."""
    cats = tuple(sorted(set(values)))
    code = {c: i for i, c in enumerate(cats)}
    return cats, [code[v] for v in values]


def load_csv(path, response_column: str, task: str = REGRESSION) -> Dataset:
    """Load a comma-delimited file with a header row into a :class:`Dataset`.

    Ingestion rules:

    * Header names and cells are stripped of surrounding whitespace.  Rows
      whose cells are all blank are skipped and not counted as dropped.
    * A row with a cell count other than the header's is dropped.
    * A cell is missing when, lower-cased, it is one of ``""``, ``na``,
      ``n/a``, ``nan``, ``null``, ``none`` or ``?``.
    * A cell is a number when Python ``float()`` accepts it (so ``1_000`` and
      ``1e3`` are numbers) and the result is finite; ``inf`` and ``nan`` are
      not usable numbers.
    * A feature column is numeric when at least half of its non-missing
      cells (counted over the rows of the right width) are numbers;
      otherwise it is categorical, stored as integer codes over the sorted
      category list (expand with :func:`one_hot_encode`).  A column with no
      non-missing cell is an error, and so is a categorical column with more
      than 10,000 categories.
    * A row is dropped when any feature cell is missing, a numeric column's
      cell is not a number, or the response is missing; for regression also
      when the response is not a number.  Classification labels are any
      non-missing strings, coded over their sorted list.
    * A feature column, or a regression response, whose mean of squares or
      variance overflows float64 is an error: its scale or second moment
      would be infinite.

    The number of dropped rows is logged as a warning and recorded on the
    returned dataset as ``n_dropped``.
    """
    if task not in (REGRESSION, CLASSIFICATION):
        raise DatasetError(f"unknown task {task!r}")
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = [name.strip() for name in next(reader)]
        except StopIteration:
            raise DatasetError("empty file: no header row") from None
        raw_rows = [row for row in reader if "".join(row).strip()]
    if response_column not in header:
        raise DatasetError(f"response column not found: {response_column!r}")
    if not raw_rows:
        raise DatasetError("empty file: no data rows")

    width = len(header)
    resp_idx = header.index(response_column)
    feat_idx = [j for j in range(width) if j != resp_idx]

    rows = [row for row in raw_rows if len(row) == width]
    n_dropped = len(raw_rows) - len(rows)
    if not rows:
        raise DatasetError("all rows dropped during ingestion")
    columns = [_scan_column(cells) for cells in zip(*rows)]

    # Column kind by majority vote over non-missing cells: a column that is
    # numeric apart from stray bad cells stays numeric (bad rows get dropped).
    keep = np.ones(len(rows), dtype=bool)
    numeric_col: dict[int, bool] = {}
    for j in feat_idx:
        _, _, parsed, missing = columns[j]
        n_present = len(rows) - int(np.count_nonzero(missing))
        if not n_present:
            raise DatasetError(f"column {header[j]!r} has no usable values")
        numeric_col[j] = int(np.count_nonzero(parsed)) >= 0.5 * n_present
        keep &= parsed if numeric_col[j] else ~missing
    resp_cells, resp_values, resp_parsed, resp_missing = columns[resp_idx]
    keep &= resp_parsed if task == REGRESSION else ~resp_missing
    n = int(np.count_nonzero(keep))
    n_dropped += len(rows) - n
    if not n:
        raise DatasetError("all rows dropped during ingestion")
    if n_dropped:
        logger.warning("load_csv(%s): dropped %d unusable row(s)", path, n_dropped)

    features = np.empty((n, len(feat_idx)))
    kinds = []
    names = []
    categories: dict[str, tuple[str, ...]] = {}
    for col, j in enumerate(feat_idx):
        name = header[j]
        names.append(name)
        stripped, values, _, _ = columns[j]
        if numeric_col[j]:
            features[:, col] = values[keep]
            kinds.append(NUMERIC)
        else:
            cats, codes = _category_codes(list(compress(stripped, keep.tolist())))
            if len(cats) > _MAX_CATEGORIES:
                raise DatasetError(
                    f"column {name!r} has {len(cats)} distinct values; "
                    "looks like an identifier, not a categorical feature"
                )
            features[:, col] = codes
            kinds.append(CATEGORICAL)
            categories[name] = cats

    if task == REGRESSION:
        response = resp_values[keep]
    else:
        _, codes = _category_codes(list(compress(resp_cells, keep.tolist())))
        response = np.array(codes, dtype=np.float64)
    if task == REGRESSION:
        _check_squares(np.column_stack([features, response]), [*names, response_column])
    else:
        _check_squares(features, names)

    return Dataset(
        features=features,
        response=response,
        column_names=tuple(names),
        column_kinds=tuple(kinds),
        task=task,
        categories=categories,
        n_dropped=n_dropped,
    )


def _check_squares(columns: np.ndarray, names) -> None:
    """Raise :class:`DatasetError` naming every column whose mean of squares
    or variance is not finite in float64, computed without numpy's overflow
    warnings."""
    with np.errstate(over="ignore", invalid="ignore"):
        finite = np.isfinite(np.square(columns).mean(axis=0)) & np.isfinite(columns.var(axis=0))
    bad = list(compress(names, (~finite).tolist()))
    if bad:
        raise DatasetError(f"the squares of column(s) {', '.join(map(repr, bad))} overflow "
                           "float64: their mean of squares or variance is not finite")


def one_hot_encode(d: Dataset) -> Dataset:
    """Expand every categorical column into one dummy column per category.

    No reference category is dropped, so every category gets its own
    attribution downstream.  Dummy names are ``"<column>=<category>"`` with
    categories in sorted order; row count and response are untouched.  A
    categorical column needs its table in ``categories``, as
    :func:`load_csv` records it; one without raises :class:`DatasetError`.
    """
    if CATEGORICAL not in d.column_kinds:
        return d
    columns = []
    names = []
    kinds = []
    for j, (name, kind) in enumerate(zip(d.column_names, d.column_kinds)):
        if kind != CATEGORICAL:
            columns.append(d.features[:, j])
            names.append(name)
            kinds.append(kind)
            continue
        codes = d.features[:, j]
        cats = d.categories.get(name)
        if cats is None:
            raise DatasetError(f"categorical column {name!r} has no category table to "
                               "encode its codes with")
        if len(cats) > _MAX_CATEGORIES:
            raise DatasetError(f"column {name!r} has too many categories to encode")
        for value, cat in enumerate(cats):
            columns.append((codes == value).astype(np.float64))
            names.append(f"{name}={cat}")
            kinds.append(DUMMY)
    return replace(
        d,
        features=np.column_stack(columns),
        column_names=tuple(names),
        column_kinds=tuple(kinds),
        categories={},
    )


def standardize(d: Dataset, stats: FeatureStats | None = None) -> tuple[Dataset, FeatureStats]:
    """Center each column and scale non-constant ones to unit population
    variance; for regression the response is mean-centered as well.

    Pass the stats returned from the training split to transform validation
    and test data without leaking their statistics.
    """
    if stats is None:
        stats = feature_stats(d)
    elif stats.k != d.k:
        raise DatasetError(f"stats have {stats.k} columns, dataset has {d.k}")

    scale = np.sqrt(stats.variances)
    scale = np.where(scale > 0, scale, 1.0)  # constant columns: center only
    features = (d.features - stats.means) / scale

    response = d.response
    if d.task == REGRESSION:
        if stats.response_mean is None:
            raise DatasetError("stats lack a response mean; required for regression")
        response = d.response - stats.response_mean

    return replace(d, features=features, response=response), stats


def split(d: Dataset, spec: SplitSpec) -> tuple[Dataset, Dataset, Dataset]:
    """Seeded shuffle-then-partition into (train, validation, test).

    The caller owns the standardization contract: compute stats on the train
    partition only and apply them to validation/test.
    """
    n = d.n
    if n < 5:
        raise DatasetError("need at least 5 rows to split")
    n_test = int(math.floor(n * spec.test_fraction + 0.5))
    n_val = int(math.floor((n - n_test) * spec.validation_fraction_of_train + 0.5))
    n_train = n - n_test - n_val
    if n_test < 1 or n_train < 1 or (spec.validation_fraction_of_train > 0 and n_val < 1):
        raise DatasetError(
            f"n={n} too small for fractions ({spec.test_fraction}, "
            f"{spec.validation_fraction_of_train})"
        )
    perm = _streams.stream(spec.seed, _streams.SPLIT).permutation(n)
    test_idx = perm[:n_test]
    val_idx = perm[n_test : n_test + n_val]
    train_idx = perm[n_test + n_val :]
    return _take(d, train_idx), _take(d, val_idx), _take(d, test_idx)


def _take(d: Dataset, idx: np.ndarray) -> Dataset:
    return replace(d, features=d.features[idx], response=d.response[idx])


def synth_correlated(
    n: int,
    k: int,
    correlation: float,
    true_beta,
    noise_sd: float,
    seed: int,
) -> Dataset:
    """Draw n rows from a zero-mean equicorrelated Gaussian and a linear
    response ``y = X beta + eps`` with known coefficients.

    The feature covariance has 1 on the diagonal and ``correlation`` off it.
    """
    if k < 1:
        raise DatasetError("k must be >= 1")
    true_beta = np.asarray(true_beta, dtype=np.float64).ravel()
    if true_beta.shape[0] != k:
        raise DatasetError(f"true_beta has length {true_beta.shape[0]}, expected {k}")
    if not 0.0 <= correlation < 1.0:
        raise DatasetError("correlation must be in [0, 1)")
    cov = np.full((k, k), correlation)
    np.fill_diagonal(cov, 1.0)
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        raise DatasetError("requested correlation matrix is not positive definite") from None

    rng = _streams.stream(seed, _streams.SYNTH)
    X = rng.standard_normal((n, k)) @ chol.T
    eps = rng.standard_normal(n)
    y = X @ true_beta + noise_sd * eps
    return Dataset(
        features=X,
        response=y,
        column_names=tuple(f"x{j}" for j in range(k)),
        column_kinds=(NUMERIC,) * k,
        task=REGRESSION,
    )
