import csv
import logging
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ablatereg.dataset import (
    CATEGORICAL,
    CLASSIFICATION,
    NUMERIC,
    REGRESSION,
    Dataset,
    DatasetError,
    SplitSpec,
    _check_squares,
    feature_stats,
    load_csv,
    one_hot_encode,
    split,
    standardize,
    synth_correlated,
)
from ablatereg.linear import fit_ols


def make_dataset(X, y, task="regression", kinds=None, categories=None):
    X = np.asarray(X, dtype=np.float64)
    return Dataset(
        features=X,
        response=np.asarray(y, dtype=np.float64),
        column_names=tuple(f"c{j}" for j in range(X.shape[1])),
        column_kinds=tuple(kinds or ["numeric"] * X.shape[1]),
        task=task,
        categories=categories or {},
    )


class TestLoadCsv:
    def test_basic_parse(self, tmp_path):
        path = tmp_path / "basic.csv"
        path.write_text("a,b,y\n1,2,3\n4,5,6\n7,8,9\n")
        d = load_csv(path, "y")
        assert d.n == 3 and d.k == 2
        np.testing.assert_allclose(d.features, [[1, 2], [4, 5], [7, 8]])
        np.testing.assert_allclose(d.response, [3, 6, 9])
        assert d.n_dropped == 0

    def test_missing_response_column(self, tmp_path):
        path = tmp_path / "nores.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(DatasetError, match="response column not found"):
            load_csv(path, "y")

    def test_bad_numeric_row_dropped(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,y\n1,2\noops,4\n5,6\n")
        d = load_csv(path, "y")
        assert d.n == 2
        assert d.n_dropped == 1

    def test_missing_value_row_dropped(self, tmp_path):
        path = tmp_path / "missing.csv"
        path.write_text("a,b,y\n1,2,3\n4,,6\n7,8,9\n")
        d = load_csv(path, "y")
        assert d.n == 2 and d.n_dropped == 1

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DatasetError, match="empty file"):
            load_csv(path, "y")

    def test_header_only(self, tmp_path):
        path = tmp_path / "header.csv"
        path.write_text("a,y\n")
        with pytest.raises(DatasetError, match="empty file"):
            load_csv(path, "y")

    def test_categorical_column_coded(self, tmp_path):
        path = tmp_path / "cat.csv"
        path.write_text("color,y\nred,1\nblue,2\nred,3\n")
        d = load_csv(path, "y")
        assert d.column_kinds == ("categorical",)
        assert d.categories["color"] == ("blue", "red")
        np.testing.assert_allclose(d.features[:, 0], [1, 0, 1])

    def test_classification_labels_sorted(self, tmp_path):
        path = tmp_path / "cls.csv"
        path.write_text("a,y\n1,yes\n2,no\n3,yes\n")
        d = load_csv(path, "y", task="classification")
        np.testing.assert_allclose(d.response, [1, 0, 1])  # no < yes


class TestIngestionRules:
    """One case per rule of the load_csv docstring."""

    def load(self, tmp_path, text, response="y", task=REGRESSION):
        path = tmp_path / "rules.csv"
        path.write_text(text)
        return load_csv(path, response, task)

    def test_missing_tokens_are_case_insensitive(self, tmp_path):
        d = self.load(tmp_path, "a,y\n1,1\nNA,2\nNull,3\nnOnE,4\nN/a,5\nNaN,6\n?,7\n8,8\n")
        np.testing.assert_array_equal(d.features[:, 0], [1, 8])
        assert d.n_dropped == 6

    def test_inf_and_nan_cells_are_unusable(self, tmp_path):
        d = self.load(tmp_path, "a,y\n1,1\ninf,2\n-Infinity,3\n1e400,4\n5,nan\n6,inf\n7,7\n")
        np.testing.assert_array_equal(d.features[:, 0], [1, 7])
        assert d.n_dropped == 5

    def test_underscored_digits_parse_as_python_float_does(self, tmp_path):
        d = self.load(tmp_path, "a,y\n1_000,1\n2,2_5\n")
        np.testing.assert_array_equal(d.features[:, 0], [1000.0, 2.0])
        np.testing.assert_array_equal(d.response, [1.0, 25.0])
        assert d.column_kinds == (NUMERIC,)

    def test_padded_whitespace_is_stripped(self, tmp_path):
        d = self.load(tmp_path, " a , g ,y \n 1.5 , red ,\t2\n3, blue,4 \n5,red , na \n")
        assert d.column_names == ("a", "g")
        np.testing.assert_array_equal(d.features, [[1.5, 1.0], [3.0, 0.0]])
        np.testing.assert_array_equal(d.response, [2.0, 4.0])
        assert d.categories == {"g": ("blue", "red")}
        assert d.n_dropped == 1

    def test_blank_lines_are_skipped_not_dropped(self, tmp_path):
        d = self.load(tmp_path, "a,y\n1,2\n\n  \n , \t\n3,4\n\n")
        assert d.n == 2 and d.n_dropped == 0

    def test_short_and_long_rows_are_dropped(self, tmp_path):
        d = self.load(tmp_path, "a,b,y\n1,2,3\n4,5\n6,7,8,9\n10,11,12\n")
        np.testing.assert_array_equal(d.features, [[1, 2], [10, 11]])
        assert d.n_dropped == 2

    def test_column_at_half_unparseable_is_numeric(self, tmp_path):
        # two numbers, two words and a missing token: 2 >= 0.5 * 4
        d = self.load(tmp_path, "a,y\n1,1\nx,2\n2,3\ny,4\n?,5\n")
        assert d.column_kinds == (NUMERIC,)
        np.testing.assert_array_equal(d.features[:, 0], [1, 2])
        assert d.n_dropped == 3

    def test_column_above_half_unparseable_is_categorical(self, tmp_path):
        # one number, two words: 1 < 0.5 * 3, so every present cell is a category
        d = self.load(tmp_path, "a,y\n1,1\nx,2\ny,3\nNA,4\n")
        assert d.column_kinds == (CATEGORICAL,)
        assert d.categories == {"a": ("1", "x", "y")}
        np.testing.assert_array_equal(d.features[:, 0], [0, 1, 2])
        assert d.n_dropped == 1

    def test_classification_labels_need_not_parse(self, tmp_path):
        d = self.load(tmp_path, "a,y\n1,cat\n2,3.5\n3,NA\n4,dog\n5,cat\n",
                      task=CLASSIFICATION)
        np.testing.assert_array_equal(d.response, [1, 0, 2, 1])  # "3.5" < "cat" < "dog"
        assert d.n_dropped == 1

    def test_regression_response_must_parse(self, tmp_path):
        d = self.load(tmp_path, "a,y\n1,cat\n2,3.5\n")
        np.testing.assert_array_equal(d.response, [3.5])
        assert d.n_dropped == 1

    def test_column_with_only_missing_cells_is_an_error(self, tmp_path):
        with pytest.raises(DatasetError, match="'a' has no usable values"):
            self.load(tmp_path, "a,y\nNA,1\n,2\n")

    def test_all_rows_dropped_is_an_error(self, tmp_path):
        with pytest.raises(DatasetError, match="all rows dropped"):
            self.load(tmp_path, "a,y\n1,2,3\n4\n")
        with pytest.raises(DatasetError, match="all rows dropped"):
            self.load(tmp_path, "a,b,y\n1,NA,3\nNA,2,4\n")

    def test_columns_whose_squares_overflow_are_named(self, tmp_path):
        # a's squares overflow; b is 1e200 in every row, so its variance is 0
        # but its mean of squares is not finite; c's squares fit
        with pytest.raises(DatasetError, match=r"column\(s\) 'a', 'b', 'y' overflow"):
            self.load(tmp_path, "a,b,c,y\n1e200,1e200,1e150,1e200\n1,1e200,2,3\n")
        # the square of 2^512 is just above the largest double
        with pytest.raises(DatasetError, match=r"column\(s\) 'y' overflow"):
            self.load(tmp_path, "y\n1.3407807929942597e+154\n")
        d = self.load(tmp_path, "a,y\n1e150,1e200\n2,cat\n", task=CLASSIFICATION)
        np.testing.assert_array_equal(d.features, [[1e150], [2.0]])

    def test_drop_count_is_logged(self, tmp_path, caplog):
        with caplog.at_level(logging.WARNING, logger="ablatereg.dataset"):
            self.load(tmp_path, "a,y\n1,2\nx,3\n4,5\n6\n")
        assert "dropped 2 unusable row(s)" in caplog.text


# The three-pass parser load_csv replaced, kept as the reference for the
# single-pass one: every cell is stripped, tested for a missing token and
# parsed where each rule needs it.
_REF_MISSING = {"", "na", "n/a", "nan", "null", "none", "?"}


def _ref_parse_float(token):
    try:
        value = float(token)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def reference_load_csv(path, response_column, task):
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = [name.strip() for name in next(reader)]
        except StopIteration:
            raise DatasetError("empty file: no header row") from None
        raw_rows = [row for row in reader if any(cell.strip() for cell in row)]
    if response_column not in header:
        raise DatasetError(f"response column not found: {response_column!r}")
    if not raw_rows:
        raise DatasetError("empty file: no data rows")
    width = len(header)
    resp_idx = header.index(response_column)
    feat_idx = [j for j in range(width) if j != resp_idx]
    n_dropped = 0
    rows = []
    for row in raw_rows:
        if len(row) != width:
            n_dropped += 1
            continue
        rows.append([cell.strip() for cell in row])
    if not rows:
        raise DatasetError("all rows dropped during ingestion")

    def is_missing(token):
        return token.lower() in _REF_MISSING

    numeric_col = {}
    for j in feat_idx:
        values = [row[j] for row in rows if not is_missing(row[j])]
        if not values:
            raise DatasetError(f"column {header[j]!r} has no usable values")
        parsed = sum(_ref_parse_float(v) is not None for v in values)
        numeric_col[j] = parsed >= 0.5 * len(values)
    kept = []
    for row in rows:
        ok = True
        for j in feat_idx:
            if is_missing(row[j]):
                ok = False
                break
            if numeric_col[j] and _ref_parse_float(row[j]) is None:
                ok = False
                break
        if ok and is_missing(row[resp_idx]):
            ok = False
        if ok and task == REGRESSION and _ref_parse_float(row[resp_idx]) is None:
            ok = False
        if ok:
            kept.append(row)
        else:
            n_dropped += 1
    if not kept:
        raise DatasetError("all rows dropped during ingestion")
    features = np.empty((len(kept), len(feat_idx)))
    kinds, names, categories = [], [], {}
    for col, j in enumerate(feat_idx):
        names.append(header[j])
        if numeric_col[j]:
            features[:, col] = [_ref_parse_float(row[j]) for row in kept]
            kinds.append(NUMERIC)
        else:
            values = [row[j] for row in kept]
            cats = tuple(sorted(set(values)))
            code = {c: i for i, c in enumerate(cats)}
            features[:, col] = [code[v] for v in values]
            kinds.append(CATEGORICAL)
            categories[header[j]] = cats
    if task == REGRESSION:
        response = np.array([_ref_parse_float(row[resp_idx]) for row in kept])
    else:
        labels = sorted({row[resp_idx] for row in kept})
        code = {c: i for i, c in enumerate(labels)}
        response = np.array([code[row[resp_idx]] for row in kept], dtype=np.float64)
    # the overflow rule is one numeric check on the parsed columns, not a
    # parsing rule: the reference applies load_csv's own
    if task == REGRESSION:
        _check_squares(np.column_stack([features, response]), [*names, response_column])
    else:
        _check_squares(features, names)
    return Dataset(features=features, response=response, column_names=tuple(names),
                   column_kinds=tuple(kinds), task=task, categories=categories,
                   n_dropped=n_dropped)


_CELLS = st.one_of(
    st.sampled_from(["", " ", "NA", "na", "N/A", "NaN", "nan", "null", "None", "?",
                     "inf", "-inf", "1e400", "1_000", "red", "blue", "x", " 2 ",
                     "0", "-0.0", "1e-5", "\t3.25"]),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-5, 5).map(str),
    st.text(alphabet="ab1.-_ e", max_size=4),
)


def _outcome(fn, path, response, task):
    try:
        d = fn(path, response, task)
    except DatasetError as err:
        return ("error", str(err))
    return (d.features.tobytes(), d.features.shape, d.response.tobytes(), d.column_names,
            d.column_kinds, d.categories, d.n_dropped)


class TestLoadCsvMatchesThreePassReference:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        width=st.integers(1, 4),
        rows=st.lists(st.lists(_CELLS, min_size=0, max_size=5), min_size=0, max_size=12),
        data=st.data(),
    )
    def test_messy_files(self, tmp_path, width, rows, data):
        header = [f"c{j}" for j in range(width - 1)] + ["y"]
        text = "\n".join(",".join(row) for row in [header] + rows) + "\n"
        path = tmp_path / "messy.csv"
        path.write_text(text, encoding="utf-8")
        task = data.draw(st.sampled_from([REGRESSION, CLASSIFICATION]))
        logging.disable(logging.WARNING)
        try:
            assert _outcome(load_csv, path, "y", task) == _outcome(
                reference_load_csv, path, "y", task)
        finally:
            logging.disable(logging.NOTSET)


class TestOneHot:
    def test_single_categorical(self):
        d = make_dataset([[0.0], [1.0], [0.0]], [1, 2, 3],
                         kinds=["categorical"], categories={"c0": ("a", "b")})
        enc = one_hot_encode(d)
        assert enc.column_names == ("c0=a", "c0=b")
        assert enc.column_kinds == ("dummy", "dummy")
        np.testing.assert_allclose(enc.features[:, 0], [1, 0, 1])
        np.testing.assert_allclose(enc.features[:, 1], [0, 1, 0])

    def test_no_categorical_is_identity(self):
        d = make_dataset([[1.0, 2.0]], [1.0])
        assert one_hot_encode(d) is d

    def test_two_features_sorted_categories(self):
        d = Dataset(
            features=np.array([[0.0, 1.0], [1.0, 0.0]]),
            response=np.array([1.0, 2.0]),
            column_names=("f", "g"),
            column_kinds=("categorical", "categorical"),
            task="regression",
            categories={"f": ("a", "b"), "g": ("a", "b")},
        )
        enc = one_hot_encode(d)
        assert enc.column_names == ("f=a", "f=b", "g=a", "g=b")
        assert enc.k == 4

    def test_preserves_rows_and_response(self):
        d = make_dataset([[0.0], [1.0], [1.0]], [5, 6, 7],
                         kinds=["categorical"], categories={"c0": ("x", "y")})
        enc = one_hot_encode(d)
        assert enc.n == d.n
        np.testing.assert_array_equal(enc.response, d.response)

    def test_categorical_column_without_a_table_is_rejected(self):
        # load_csv always records the table; without it the codes mean nothing
        d = make_dataset([[0.0, 1.0], [1.5, 2.0]], [1, 2], kinds=["numeric", "categorical"])
        with pytest.raises(DatasetError, match="categorical column 'c1' has no category table"):
            one_hot_encode(d)

    def test_dummies_are_binary(self):
        d = make_dataset([[0.0], [2.0], [1.0]], [1, 2, 3],
                         kinds=["categorical"], categories={"c0": ("p", "q", "r")})
        enc = one_hot_encode(d)
        assert set(np.unique(enc.features)) <= {0.0, 1.0}


class TestStandardize:
    def test_hand_example(self):
        # mu=2, population v=2/3, (x-mu)/sqrt(v) = +-1.2247
        d = make_dataset([[1.0], [2.0], [3.0]], [0, 0, 0])
        out, stats = standardize(d)
        np.testing.assert_allclose(out.features[:, 0], [-1.2247, 0.0, 1.2247], atol=1e-4)
        np.testing.assert_allclose(stats.means, [2.0])
        np.testing.assert_allclose(stats.variances, [2.0 / 3.0])

    def test_idempotent(self):
        d = synth_correlated(50, 3, 0.4, (1, 2, 3), 0.5, seed=1)
        once, _ = standardize(d)
        twice, _ = standardize(once)
        np.testing.assert_allclose(twice.features, once.features, atol=1e-8)
        np.testing.assert_allclose(twice.response, once.response, atol=1e-8)

    def test_constant_column_centered_only(self):
        d = make_dataset([[5.0, 1.0], [5.0, 2.0], [5.0, 3.0]], [1, 2, 3])
        out, stats = standardize(d)
        np.testing.assert_allclose(out.features[:, 0], [0, 0, 0])
        assert stats.variances[0] == 0.0

    def test_stats_invariant_after_standardize(self):
        d = synth_correlated(200, 4, 0.5, (1, -1, 2, 0.5), 1.0, seed=3)
        out, _ = standardize(d)
        stats = feature_stats(out)
        np.testing.assert_allclose(stats.means, 0.0, atol=1e-10)
        np.testing.assert_allclose(stats.variances, 1.0, atol=1e-8)

    def test_train_stats_applied_to_test(self):
        d = synth_correlated(100, 2, 0.2, (1, 1), 1.0, seed=4)
        train, _, test = split(d, SplitSpec(0.2, 0.0, seed=0))
        _, stats = standardize(train)
        test_std, used = standardize(test, stats)
        assert used is stats
        # reverse the transform to confirm the right stats were applied
        recon = test_std.features * np.sqrt(stats.variances) + stats.means
        np.testing.assert_allclose(recon, test.features, atol=1e-10)

    def test_regression_response_centered(self):
        d = make_dataset([[1.0], [2.0]], [10.0, 20.0])
        out, stats = standardize(d)
        assert stats.response_mean == 15.0
        np.testing.assert_allclose(out.response, [-5.0, 5.0])

    def test_classification_response_untouched(self):
        d = make_dataset([[1.0], [2.0], [3.0]], [0, 1, 0], task="classification")
        out, stats = standardize(d)
        np.testing.assert_array_equal(out.response, d.response)
        assert stats.response_mean is None

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_idempotence_property(self, seed):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(20, 3)) * rng.uniform(0.1, 10, size=3) + rng.normal(size=3)
        d = make_dataset(X, rng.normal(size=20))
        once, _ = standardize(d)
        twice, _ = standardize(once)
        np.testing.assert_allclose(twice.features, once.features, atol=1e-8)


class TestSplit:
    def test_counts_without_validation(self):
        d = synth_correlated(10, 2, 0.0, (1, 1), 1.0, seed=0)
        train, val, test = split(d, SplitSpec(0.2, 0.0, seed=1))
        assert (train.n, val.n, test.n) == (8, 0, 2)

    def test_paper_ratios(self):
        d = synth_correlated(100, 2, 0.0, (1, 1), 1.0, seed=0)
        train, val, test = split(d, SplitSpec(0.2, 0.25, seed=1))
        assert (train.n, val.n, test.n) == (60, 20, 20)

    def test_same_seed_same_split(self):
        d = synth_correlated(50, 2, 0.0, (1, 1), 1.0, seed=0)
        a = split(d, SplitSpec(0.2, 0.25, seed=7))
        b = split(d, SplitSpec(0.2, 0.25, seed=7))
        for da, db in zip(a, b):
            np.testing.assert_array_equal(da.features, db.features)

    def test_disjoint_and_exhaustive(self):
        d = synth_correlated(37, 2, 0.0, (1, 1), 1.0, seed=0)
        # tag rows through a unique response so partitions can be compared
        d = make_dataset(d.features, np.arange(37))
        train, val, test = split(d, SplitSpec(0.3, 0.2, seed=3))
        merged = np.concatenate([train.response, val.response, test.response])
        assert sorted(merged.tolist()) == list(range(37))

    def test_too_small(self):
        d = make_dataset([[1.0], [2.0], [3.0]], [1, 2, 3])
        with pytest.raises(DatasetError):
            split(d, SplitSpec(0.2, 0.25, seed=0))


class TestSynthCorrelated:
    def test_noiseless_recovery(self):
        d = synth_correlated(50, 1, 0.0, (2.0,), 0.0, seed=5)
        model = fit_ols(d)
        np.testing.assert_allclose(model.beta, [2.0], atol=1e-8)

    def test_high_correlation_realized(self):
        d = synth_correlated(10_000, 2, 0.99, (1.0, 1.0), 0.0, seed=6)
        r = np.corrcoef(d.features.T)[0, 1]
        assert 0.95 <= r < 1.0

    def test_deterministic(self):
        a = synth_correlated(30, 3, 0.5, (1, 2, 3), 1.0, seed=9)
        b = synth_correlated(30, 3, 0.5, (1, 2, 3), 1.0, seed=9)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.response, b.response)

    def test_bad_correlation(self):
        with pytest.raises(DatasetError):
            synth_correlated(10, 2, 1.5, (1, 1), 1.0, seed=0)

    def test_beta_length_checked(self):
        with pytest.raises(DatasetError):
            synth_correlated(10, 3, 0.1, (1, 1), 1.0, seed=0)
