import argparse
import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ablatereg import files, harness
from ablatereg.attribution import AttributionConfig, integrated_gradients
from ablatereg.augment import BLOCK_ROWS, AugmentSpec, build_augmented
from ablatereg.cli import build_parser, main
from ablatereg.dataset import (FeatureStats, SplitSpec, load_csv, split, standardize,
                               synth_correlated)
from ablatereg.linear import fit_ols
from ablatereg.nn import MlpModel


def write_data(path):
    # all-positive coefficients on a positively correlated design keep the
    # cross-trend directions (ML2P up under mean ablation) unambiguous
    d = synth_correlated(80, 3, 0.5, (1.0, 0.8, 2.0), 0.5, seed=60)
    header = ",".join(list(d.column_names) + ["y"])
    lines = [header]
    for row, y in zip(d.features, d.response):
        lines.append(",".join(repr(float(v)) for v in row) + f",{float(y)!r}")
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.fixture()
def csv_path(tmp_path):
    return write_data(tmp_path / "data.csv")


def write_levels_data(path):
    """A 120-row CSV whose 3-level column ``c`` has dummies that sum to the
    intercept, so every depth-0 lambda = 0 (OLS) fit on it is singular."""
    d = synth_correlated(120, 2, 0.5, (1.0, -1.0), 0.5, seed=61)
    path.write_text("x0,x1,c,y\n" + "".join(
        f"{row[0]!r},{row[1]!r},{'pqr'[i % 3]},{y!r}\n"
        for i, (row, y) in enumerate(zip(d.features.tolist(), d.response.tolist()))))
    return path


def run(args):
    return main([str(a) for a in args])


# How a NaN report cell reads back from each format.
NO_VALUE = {"csv": "nan", "json": None}


def read_report(path, fmt):
    """The header and the rows of a CSV or JSON report, as read back."""
    if fmt == "json":
        payload = json.loads(path.read_text())
        return payload["columns"], payload["rows"]
    with open(path, newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    return header, rows


def head_csv(csv_path, path, n_rows):
    """The header and the first ``n_rows`` data rows of ``csv_path``, written
    to ``path``."""
    lines = csv_path.read_text().splitlines()
    path.write_text("\n".join(lines[: n_rows + 1]) + "\n")
    return path


def run_in_subprocess(args, stdout):
    """Run the CLI in a fresh interpreter with the given stdout."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    code = "import sys; from ablatereg.cli import main; sys.exit(main(sys.argv[1:]))"
    return subprocess.run([sys.executable, "-c", code, *map(str, args)], env=env,
                          stdout=stdout, stderr=subprocess.PIPE, timeout=120)


class TestFitCommand:
    def test_ols_model_json(self, csv_path, tmp_path):
        out = tmp_path / "model.json"
        assert run(["fit", "--method", "ols", "--data", csv_path,
                    "--response", "y", "--out", out]) == 0
        payload = json.loads(out.read_text())
        assert set(payload) >= {"beta", "intercept", "lambda", "penalty_kind"}
        d = load_csv(csv_path, "y")
        np.testing.assert_allclose(payload["beta"], fit_ols(d).beta, atol=1e-10)

    def test_ccp_at_zero_equals_ols(self, csv_path, tmp_path):
        out_ols = tmp_path / "ols.json"
        out_ccp = tmp_path / "ccp.json"
        run(["fit", "--method", "ols", "--data", csv_path, "--response", "y",
             "--out", out_ols])
        run(["fit", "--method", "ccp", "--lambda", "0.0", "--data", csv_path,
             "--response", "y", "--out", out_ccp])
        a = json.loads(out_ols.read_text())["beta"]
        b = json.loads(out_ccp.read_text())["beta"]
        np.testing.assert_allclose(a, b, atol=1e-8)

    def test_byte_identical_rerun(self, csv_path, tmp_path):
        out1 = tmp_path / "m1.json"
        out2 = tmp_path / "m2.json"
        args = ["fit", "--method", "ml2p", "--lambda", "0.4", "--data", csv_path,
                "--response", "y"]
        run(args + ["--out", out1])
        run(args + ["--out", out2])
        assert out1.read_bytes() == out2.read_bytes()


class TestAugmentCommand:
    def test_row_count_and_rerun_identical(self, csv_path, tmp_path):
        out1 = tmp_path / "aug1.csv"
        out2 = tmp_path / "aug2.csv"
        args = ["augment", "--mode", "mean", "--lambda", "0.5", "--n", "200",
                "--seed", "3", "--data", csv_path, "--response", "y"]
        assert run(args + ["--out", out1]) == 0
        run(args + ["--out", out2])
        lines = out1.read_text().strip().split("\n")
        assert len(lines) == 201
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("mode", ["mean", "iid"])
    def test_streamed_output_equals_materialized_set_across_blocks(
            self, csv_path, tmp_path, mode):
        n = 3 * BLOCK_ROWS + 17
        out = tmp_path / "aug.csv"
        assert run(["augment", "--mode", mode, "--lambda", "0.4", "--n", n, "--seed", "5",
                    "--data", csv_path, "--response", "y", "--out", out]) == 0
        aug = build_augmented(load_csv(csv_path, "y"), AugmentSpec(mode, 0.4, n, 5))
        rows = np.column_stack([aug.features, aug.response]).tolist()
        expected = files.csv_text(list(aug.column_names) + ["y"], rows)
        assert out.read_text() == expected

    def test_augmented_file_loads_back(self, csv_path, tmp_path):
        out = tmp_path / "aug.csv"
        run(["augment", "--mode", "iid", "--lambda", "0.3", "--n", "150",
             "--seed", "1", "--data", csv_path, "--response", "y", "--out", out])
        d = load_csv(out, "y")
        assert d.n == 150 and d.k == 3


class TestPenaltyCommand:
    def test_linear_model_report(self, csv_path, tmp_path):
        model_path = tmp_path / "model.json"
        report_path = tmp_path / "report.json"
        run(["fit", "--method", "ccp", "--lambda", "0.3", "--data", csv_path,
             "--response", "y", "--out", model_path])
        assert run(["penalty", "--model", model_path, "--data", csv_path,
                    "--response", "y", "--kind", "both", "--out", report_path]) == 0
        report = json.loads(report_path.read_text())
        assert set(report) == {"ccp", "ml2p", "n", "k", "lambda_context"}
        assert report["n"] == 80 and report["k"] == 3
        assert report["lambda_context"] == 0.3
        assert report["ccp"] is not None and report["ml2p"] is not None

    def test_checkpoint_report(self, csv_path, tmp_path):
        ckpt = tmp_path / "ckpt.json"
        report_path = tmp_path / "report.json"
        run(["train", "--depth", "1", "--mode", "none", "--data", csv_path,
             "--response", "y", "--seed", "0", "--epochs", "3",
             "--hidden-width", "8", "--out", ckpt])
        assert run(["penalty", "--model", ckpt, "--data", csv_path,
                    "--response", "y", "--kind", "ccp", "--steps", "20",
                    "--out", report_path]) == 0
        report = json.loads(report_path.read_text())
        assert report["ccp"] is not None
        assert report["ml2p"] is None


class TestTrainCommand:
    def test_checkpoint_schema(self, csv_path, tmp_path):
        out = tmp_path / "ckpt.json"
        assert run(["train", "--depth", "2", "--mode", "mean", "--lambda", "0.2",
                    "--data", csv_path, "--response", "y", "--seed", "1",
                    "--epochs", "4", "--hidden-width", "6", "--out", out]) == 0
        ckpt = json.loads(out.read_text())
        assert ckpt["dims"] == [3, 6, 6, 1]
        assert len(ckpt["weights"]) == 3
        assert len(ckpt["weights"][0]) == 3  # row-major: fan_in rows
        assert len(ckpt["weights"][0][0]) == 6
        assert ckpt["task"] == "regression"
        assert ckpt["training_log"]["epochs"]
        assert ckpt["standardization"]["columns"] == ["x0", "x1", "x2"]

    def test_rerun_byte_identical(self, csv_path, tmp_path):
        out1 = tmp_path / "c1.json"
        out2 = tmp_path / "c2.json"
        args = ["train", "--depth", "1", "--mode", "iid", "--lambda", "0.4",
                "--data", csv_path, "--response", "y", "--seed", "2",
                "--epochs", "3", "--hidden-width", "5"]
        run(args + ["--out", out1])
        run(args + ["--out", out2])
        assert out1.read_bytes() == out2.read_bytes()


class TestAttributeCommand:
    def test_csv_layout(self, csv_path, tmp_path):
        ckpt = tmp_path / "ckpt.json"
        out = tmp_path / "attr.csv"
        run(["train", "--depth", "1", "--mode", "none", "--data", csv_path,
             "--response", "y", "--seed", "0", "--epochs", "3",
             "--hidden-width", "8", "--out", ckpt])
        assert run(["attribute", "--model", ckpt, "--data", csv_path,
                    "--response", "y", "--steps", "20", "--baseline", "zeros",
                    "--out", out]) == 0
        lines = out.read_text().strip().split("\n")
        header = lines[0].split(",")
        assert len(header) == 2 * 3 + 1
        assert header[0] == "attr_x0" and header[-1] == "completeness_gap"
        assert len(lines) == 81

    def test_linear_model_attribution_exact(self, csv_path, tmp_path):
        model_path = tmp_path / "model.json"
        out = tmp_path / "attr.csv"
        run(["fit", "--method", "ols", "--data", csv_path, "--response", "y",
             "--out", model_path])
        run(["attribute", "--model", model_path, "--data", csv_path,
             "--response", "y", "--steps", "1", "--baseline", "zeros", "--out", out])
        rows = out.read_text().strip().split("\n")[1:]
        gaps = [float(r.split(",")[-1]) for r in rows]
        assert max(gaps) < 1e-10

    def test_means_baseline_is_the_standardized_column_means(self, csv_path, tmp_path):
        ckpt = tmp_path / "ckpt.json"
        out = tmp_path / "attr.csv"
        assert run(["train", "--depth", "1", "--mode", "iid", "--lambda", "0.2",
                    "--data", csv_path, "--response", "y", "--seed", "1", "--epochs", "3",
                    "--hidden-width", "6", "--out", ckpt]) == 0
        assert run(["attribute", "--model", ckpt, "--data", csv_path, "--response", "y",
                    "--steps", "7", "--baseline", "means", "--out", out]) == 0
        payload = json.loads(ckpt.read_text())
        model = MlpModel(weights=[np.asarray(w) for w in payload["weights"]],
                         biases=[np.asarray(b) for b in payload["biases"]], task="regression")
        block = payload["standardization"]
        d, _ = standardize(load_csv(csv_path, "y"), FeatureStats(
            means=block["means"], variances=block["variances"],
            response_mean=block["response_mean"]))
        result = integrated_gradients(model, d.features, AttributionConfig(
            baseline=d.features.mean(axis=0), steps=7))
        expected = np.column_stack([result.attributions, result.avg_gradients,
                                    result.completeness_gap])
        assert out.read_text().split("\n", 1)[1] == files.matrix_lines(expected)


class TestConvergeCommand:
    def test_check_passes_at_moderate_n(self, csv_path, tmp_path):
        # the default schedule and seeds (4 N x 3 seeds), which the slope band
        # is set for; a 2-point schedule can fail on the slope alone
        out = tmp_path / "conv.csv"
        code = run(["converge", "--theorem", "1", "--lambda", "0.3",
                    "--data", csv_path, "--response", "y",
                    "--check", "0.2", "--out", out])
        assert code == 0
        assert out.read_text().startswith("kind,theorem,mode,lambda,N,seed")

    def test_check_fails_with_tiny_tolerance(self, csv_path, tmp_path):
        out = tmp_path / "conv.csv"
        code = run(["converge", "--theorem", "2", "--lambda", "0.3",
                    "--n-schedule", "500,2000", "--seeds", "2",
                    "--data", csv_path, "--response", "y",
                    "--check", "1e-12", "--out", out])
        assert code == 1

    @staticmethod
    def run_singular(tmp_path, capsys, fmt):
        """``converge --check`` at N = 1 and 2, where every synthetic OLS is
        singular; the exit status, the stderr lines and the report's path."""
        out = tmp_path / f"conv.{fmt}"
        capsys.readouterr()
        code = run(["converge", "--theorem", "1", "--lambda", "0.3", "--n-schedule", "1,2",
                    "--seeds", "2", "--check", "--format", fmt, "--out", out])
        return code, capsys.readouterr().err.splitlines(), out

    def test_failed_fits_are_listed_and_fail_the_check(self, tmp_path, capsys):
        code, err, out = self.run_singular(tmp_path, capsys, "json")
        assert code == 1
        assert [line for line in err if line.startswith("CHECK FAILED:")] == [
            "CHECK FAILED: some final-N fits failed",
            "CHECK FAILED: log-log slope is undefined: fewer than two finite, positive "
            "median L2 distances"]
        failures = json.loads(out.read_text())["meta"]["failures"]
        assert [(f["N"], f["seed"]) for f in failures] == [(1, 0), (2, 0), (1, 1), (2, 1)]
        for f in failures:
            assert f["error"].startswith("OLS on the synthetic set: system matrix is singular")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_failed_fit_distances_have_no_value(self, tmp_path, capsys, fmt):
        _, _, out = self.run_singular(tmp_path, capsys, fmt)
        header, rows = read_report(out, fmt)
        assert len(rows) == 6
        for row in rows:
            assert [row[header.index(name)] for name in ("dist_l2", "dist_linf")
                    ] == [NO_VALUE[fmt]] * 2
            assert float(row[header.index("gram_resid")]) > 0.0

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_an_aggregate_with_no_finite_distance_has_no_stderr(self, tmp_path, capsys, fmt):
        _, _, out = self.run_singular(tmp_path, capsys, fmt)
        header, rows = read_report(out, fmt)
        aggregates = [row for row in rows if row[0] == "aggregate"]
        assert len(aggregates) == 2
        for row in aggregates:
            assert [row[header.index(name)] for name in ("dist_l2_stderr", "dist_linf_stderr")
                    ] == [NO_VALUE[fmt]] * 2


class TestSweepAndCrossCheck:
    def test_sweep_and_cross_check_pipeline(self, csv_path, tmp_path):
        mada = tmp_path / "mada.json"
        iid = tmp_path / "iid.json"
        cross = tmp_path / "cross.json"
        common = ["--data", csv_path, "--response", "y", "--depths", "0",
                  "--lambdas", "0.0,0.4,0.8", "--seeds", "2",
                  "--format", "json"]
        assert run(["sweep", "--mode", "mean", *common, "--out", mada]) == 0
        assert run(["sweep", "--mode", "iid", *common, "--out", iid]) == 0
        assert run(["cross-check", "--mada", mada, "--iid", iid,
                    "--check", "--out", cross]) == 0
        payload = json.loads(cross.read_text())
        assert payload["meta"]["type"] == "cross_trend"
        assert payload["meta"]["zero_contrast"] is False

    def test_cross_check_flags_a_sweep_with_a_failed_cell_against_itself(self, tmp_path,
                                                                          capsys):
        # the depth-0 lambda = 0 cell is singular and holds NaNs; identical
        # reports are still identical
        data = write_levels_data(tmp_path / "levels.csv")
        sweep = tmp_path / "sweep.json"
        assert run(["sweep", "--mode", "mean", "--data", data, "--response", "y",
                    "--depths", "0", "--lambdas", "0.0,0.5", "--seeds", "1",
                    "--format", "json", "--out", sweep]) == 0
        payload = json.loads(sweep.read_text())
        assert payload["rows"][0][-1].startswith("fit_ccp: ")
        payload["meta"]["mode"] = "iid"  # the same cells in the dropout slot
        relabelled = tmp_path / "relabelled.json"
        relabelled.write_text(json.dumps(payload))
        capsys.readouterr()
        assert run(["cross-check", "--mada", sweep, "--iid", relabelled, "--check",
                    "--out", tmp_path / "cross.json"]) == 1
        assert json.loads((tmp_path / "cross.json").read_text())["meta"]["zero_contrast"]
        assert ("CHECK FAILED: zero contrast: the two sweeps are identical"
                in capsys.readouterr().err.splitlines())

    def test_cross_check_on_the_csv_report_of_sweep_says_to_write_json(
            self, csv_path, tmp_path, capsys):
        reports = {}
        for mode in ("mean", "iid"):
            reports[mode] = tmp_path / f"{mode}.csv"
            assert run(["sweep", "--mode", mode, "--data", csv_path, "--response", "y",
                        "--depths", "0", "--lambdas", "0.0,0.5", "--seeds", "1",
                        "--out", reports[mode]]) == 0
        capsys.readouterr()
        assert run(["cross-check", "--mada", reports["mean"], "--iid", reports["iid"],
                    "--out", tmp_path / "cross.json"]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {reports['mean']} is a CSV sweep report; cross-check reads the report "
            "of sweep --format json"]
        assert not (tmp_path / "cross.json").exists()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_an_aggregate_with_no_finite_value_has_no_stderr(self, tmp_path, fmt):
        # both lambda = 0 cells fail; both lambda = 0.5 cells succeed
        data = write_levels_data(tmp_path / "levels.csv")
        out = tmp_path / f"sweep.{fmt}"
        assert run(["sweep", "--mode", "mean", "--data", data, "--response", "y",
                    "--depths", "0", "--lambdas", "0,0.5", "--seeds", "2",
                    "--format", fmt, "--out", out]) == 0
        header, rows = read_report(out, fmt)
        failed, fitted = [row for row in rows if row[0] == "aggregate"]
        stats = ["metric", "ccp", "ml2p", "metric_stderr", "ccp_stderr", "ml2p_stderr"]
        assert [failed[header.index(name)] for name in stats] == [NO_VALUE[fmt]] * 6
        for name in stats[3:]:
            assert float(fitted[header.index(name)]) > 0.0

    def test_sweep_check_threshold(self, csv_path, tmp_path):
        out = tmp_path / "sweep.csv"
        code = run(["sweep", "--mode", "mean", "--data", csv_path,
                    "--response", "y", "--depths", "0",
                    "--lambdas", "0.0,0.4,0.8", "--seeds", "2",
                    "--check", "--out", out])
        assert code == 0  # closed-form depth 0 trend is clean

    def test_report_bytes_do_not_depend_on_the_data_path(self, csv_path, tmp_path):
        outs = []
        for where in ("a", "b/c"):
            data = tmp_path / where / "data.csv"
            data.parent.mkdir(parents=True)
            data.write_bytes(csv_path.read_bytes())
            out = tmp_path / where / "sweep.json"
            assert run(["sweep", "--mode", "iid", "--data", data, "--response", "y",
                        "--depths", "0", "--lambdas", "0.0,0.5", "--seeds", "1",
                        "--format", "json", "--out", out]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        assert json.loads(outs[0])["meta"]["dataset"] == "data.csv"


class TestCsvFields:
    """A field that holds a comma, a double quote or a line break is quoted,
    so every CSV file the CLI writes reads back under its header, each
    field as it was."""

    @staticmethod
    def read_rows(path):
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert all(len(row) == len(rows[0]) for row in rows)
        return rows

    def test_a_failed_sweep_cell_and_a_data_name_with_commas(self, tmp_path):
        # the depth-0 lambda = 0 cell fails with an error that lists the
        # suspect columns
        data = write_levels_data(tmp_path / "levels, v1.csv")
        sweep = ["sweep", "--mode", "mean", "--data", data, "--response", "y", "--depths", "0",
                 "--seeds", "1", "--lambdas", "0,0.5"]
        assert run([*sweep, "--out", tmp_path / "sweep.csv"]) == 0
        assert run([*sweep, "--format", "json", "--out", tmp_path / "sweep.json"]) == 0
        header, *rows = self.read_rows(tmp_path / "sweep.csv")
        payload = json.loads((tmp_path / "sweep.json").read_text())
        assert header == payload["columns"] and len(rows) == len(payload["rows"])
        error = payload["rows"][0][-1]
        assert error.endswith("(suspect columns: c=p, c=q, c=r)")
        assert rows[0][-1] == error
        assert {row[1] for row in rows} == {"levels, v1.csv"}

    @pytest.fixture()
    def quoted_levels(self, tmp_path):
        d = synth_correlated(90, 2, 0.5, (1.0, -1.0), 0.5, seed=62)
        levels = ['"red, dark"', "blue", '"say ""hi"""']
        path = tmp_path / "levels.csv"
        path.write_text("x0,x1,colour,y\n" + "".join(
            f"{row[0]!r},{row[1]!r},{levels[i % 3]},{y!r}\n"
            for i, (row, y) in enumerate(zip(d.features.tolist(), d.response.tolist()))))
        return path

    def test_augment_header_with_a_quoted_category(self, quoted_levels, tmp_path):
        out = tmp_path / "aug.csv"
        assert run(["augment", "--mode", "mean", "--lambda", "0.3", "--n", "3",
                    "--data", quoted_levels, "--response", "y", "--out", out]) == 0
        header, *rows = self.read_rows(out)
        assert header == ["x0", "x1", "colour=blue", "colour=red, dark", 'colour=say "hi"', "y"]
        assert len(rows) == 3

    def test_attribute_header_with_a_quoted_category(self, quoted_levels, tmp_path):
        data = ["--data", quoted_levels, "--response", "y"]
        checkpoint = tmp_path / "checkpoint.json"
        assert run(["train", *data, "--epochs", "1", "--hidden-width", "3",
                    "--out", checkpoint]) == 0
        out = tmp_path / "attributions.csv"
        assert run(["attribute", "--model", checkpoint, "--steps", "3", *data,
                    "--out", out]) == 0
        header, *rows = self.read_rows(out)
        names = ["x0", "x1", "colour=blue", "colour=red, dark", 'colour=say "hi"']
        assert header == ([f"attr_{c}" for c in names] + [f"avggrad_{c}" for c in names]
                          + ["completeness_gap"])
        assert len(rows) == 90


class TestOutputCount:
    """A network has one output per class of the whole file, so a class that
    a split leaves out of the training rows keeps its output."""

    @pytest.fixture()
    def rare_class_csv(self, tmp_path):
        # 60 rows of classes a and b, and one row of c, which the splits of
        # seeds 0 and 1 put outside the training rows
        rng = np.random.default_rng(61)
        X = rng.normal(size=(60, 2))
        labels = np.where(X[:, 0] > 0, "a", "b")
        labels[7] = "c"
        path = tmp_path / "classes.csv"
        path.write_text("x0,x1,label\n" + "".join(
            f"{a!r},{b!r},{label}\n" for (a, b), label in zip(X.tolist(), labels)))
        d = load_csv(path, "label", "classification")
        assert d.response.max() == 2
        for seed in (0, 1):
            assert split(d, SplitSpec(seed=seed))[0].response.max() == 1
        return path

    def test_train_keeps_the_output_of_a_class_missing_from_training(self, rare_class_csv,
                                                                       tmp_path):
        out = tmp_path / "ckpt.json"
        assert run(["train", "--task", "classification", "--data", rare_class_csv,
                    "--response", "label", "--seed", "1", "--epochs", "2",
                    "--hidden-width", "3", "--out", out]) == 0
        assert json.loads(out.read_text())["dims"] == [2, 3, 3]

    def test_sweep_emits_every_class(self, rare_class_csv, tmp_path):
        out = tmp_path / "sweep.json"
        assert run(["sweep", "--task", "classification", "--mode", "mean",
                    "--data", rare_class_csv, "--response", "label", "--depths", "0",
                    "--lambdas", "0,0.5", "--seeds", "0,1", "--epochs", "2", "--steps", "5",
                    "--format", "json", "--out", out]) == 0
        payload = json.loads(out.read_text())
        column = payload["columns"].index("output_index")
        cells = [row for row in payload["rows"] if row[0] == "cell"]
        assert len(cells) == 2 * 2 * 3
        assert sorted({row[column] for row in cells}) == [0, 1, 2]


class TestInertLambda:
    """A nonzero lambda that the command would ignore is a usage error."""

    COMMANDS = {"fit": ["fit", "--method", "ols"],
                "train": ["train", "--mode", "none", "--epochs", "1", "--hidden-width", "3"]}

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_nonzero_lambda_is_rejected(self, csv_path, tmp_path, capsys, command, source):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"lambda": 0.3}))
        given = ["--lambda", "0.3"] if source == "flag" else ["--config", config]
        out = tmp_path / "out.json"
        with pytest.raises(SystemExit) as exc:
            run([*self.COMMANDS[command], *given, "--data", csv_path, "--response", "y",
                 "--out", out])
        assert exc.value.code == 2
        flag, value = self.COMMANDS[command][1:3]
        assert capsys.readouterr().err.splitlines() == [
            f"ablatereg {command}: error: --lambda 0.3 has no effect with {flag} {value}"]
        assert not out.exists()

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_zero_lambda_is_accepted(self, csv_path, tmp_path, command):
        base = [*self.COMMANDS[command], "--data", csv_path, "--response", "y"]
        assert run([*base, "--out", tmp_path / "plain.json"]) == 0
        assert run([*base, "--lambda", "0", "--out", tmp_path / "zero.json"]) == 0
        assert (tmp_path / "zero.json").read_bytes() == (tmp_path / "plain.json").read_bytes()


class TestDataFlagsWithoutData:
    """``--response`` and ``--task classification`` change nothing without
    ``--data``: the built-in data set has its own response and task."""

    COMMANDS = [["fit"], ["augment", "--mode", "mean"], ["penalty", "--model", "m.json"],
                ["train"], ["attribute", "--model", "m.json"], ["converge", "--theorem", "1"],
                ["sweep", "--mode", "mean"]]

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("flag, value", [("response", "nosuch"), ("task", "classification")])
    @pytest.mark.parametrize("command", COMMANDS, ids=lambda command: command[0])
    def test_is_a_usage_error(self, tmp_path, capsys, command, flag, value, source):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({flag: value}))
        given = [f"--{flag}", value] if source == "flag" else ["--config", config]
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            run([*command, *given, "--out", out])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines() == [
            f"ablatereg {command[0]}: error: --{flag} {value} has no effect without --data"]
        assert not out.exists()

    def test_regression_task_is_accepted(self, tmp_path):
        assert run(["fit", "--out", tmp_path / "plain.json"]) == 0
        assert run(["fit", "--task", "regression", "--out", tmp_path / "task.json"]) == 0
        assert (tmp_path / "task.json").read_bytes() == (tmp_path / "plain.json").read_bytes()


class TestLeastSquaresTask:
    """``fit`` and ``converge`` fit least squares, which would treat the
    codes of a classification response as numbers."""

    @pytest.fixture()
    def labels_csv(self, tmp_path):
        d = synth_correlated(60, 2, 0.3, (1.0, -1.0), 0.5, seed=62)
        path = tmp_path / "labels.csv"
        path.write_text("x0,x1,label\n" + "".join(
            f"{x0!r},{x1!r},{'abc'[i % 3]}\n" for i, (x0, x1) in enumerate(d.features.tolist())))
        return path

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("command", [["fit"], ["converge", "--theorem", "1"]],
                             ids=lambda command: command[0])
    def test_classification_is_a_usage_error(self, labels_csv, tmp_path, capsys, command,
                                             source):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"task": "classification"}))
        given = ["--task", "classification"] if source == "flag" else ["--config", config]
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            run([*command, "--data", labels_csv, "--response", "label", *given, "--out", out])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines() == [
            f"ablatereg {command[0]}: error: --task classification does not apply: "
            f"{command[0]} fits least squares to the response"]
        assert not out.exists()


class TestSplitFlags:
    def train(self, csv_path, out, *extra):
        assert run(["train", "--data", csv_path, "--response", "y", "--epochs", "2",
                    "--hidden-width", "4", *extra, "--out", out]) == 0
        return out.read_bytes()

    def test_train_reads_the_split_fractions(self, csv_path, tmp_path):
        default = self.train(csv_path, tmp_path / "default.json")
        explicit = self.train(csv_path, tmp_path / "explicit.json",
                              "--test-frac", "0.2", "--val-frac", "0.25")
        assert explicit == default
        assert self.train(csv_path, tmp_path / "test.json", "--test-frac", "0.5") != default
        assert self.train(csv_path, tmp_path / "val.json", "--val-frac", "0.5") != default

    @pytest.mark.parametrize("command", [
        ["fit"], ["augment", "--mode", "mean"], ["penalty", "--model", "m.json"],
        ["attribute", "--model", "m.json"], ["converge", "--theorem", "1"],
        ["sweep", "--mode", "mean"],
    ])
    def test_commands_without_a_split_reject_the_flags(self, csv_path, tmp_path, command):
        for flag in ("--test-frac", "--val-frac"):
            with pytest.raises(SystemExit) as exc:
                run([*command, "--data", csv_path, "--response", "y", flag, "0.9",
                     "--out", tmp_path / "out"])
            assert exc.value.code == 2
        assert not (tmp_path / "out").exists()


class TestOutToStdout:
    def fit(self, csv_path, out):
        return ["fit", "--method", "ccp", "--lambda", "0.1", "--data", csv_path,
                "--response", "y", "--out", out]

    def test_a_pipe_receives_the_file_bytes(self, csv_path, tmp_path):
        assert run(self.fit(csv_path, tmp_path / "model.json")) == 0
        done = run_in_subprocess(self.fit(csv_path, "/dev/stdout"), subprocess.PIPE)
        assert done.returncode == 0, done.stderr.decode()
        assert done.stdout == (tmp_path / "model.json").read_bytes()

    def test_a_redirected_file_is_written_not_replaced(self, csv_path, tmp_path):
        assert run(self.fit(csv_path, tmp_path / "model.json")) == 0
        log = tmp_path / "log"
        log.write_text("earlier\n")
        inode = log.stat().st_ino
        with open(log, "ab") as fh:
            done = run_in_subprocess(self.fit(csv_path, "/dev/stdout"), fh)
        assert done.returncode == 0, done.stderr.decode()
        # the descriptor the caller holds still names the file; opening it for
        # writing truncates it, as a plain open always did
        assert log.stat().st_ino == inode
        assert log.read_bytes() == (tmp_path / "model.json").read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data.csv", "log", "model.json"]


class TestConfigFile:
    def test_config_supplies_flags_and_cli_overrides(self, csv_path, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "data": str(csv_path), "response": "y", "method": "ccp", "lambda": 0.5,
        }))
        out1 = tmp_path / "from_config.json"
        run(["fit", "--config", config, "--out", out1])
        assert json.loads(out1.read_text())["lambda"] == 0.5
        out2 = tmp_path / "override.json"
        run(["fit", "--config", config, "--lambda", "0.2", "--out", out2])
        assert json.loads(out2.read_text())["lambda"] == 0.2


class TestConfigStrictness:
    CONVERGE = ["converge", "--theorem", "1", "--lambda", "0.3",
                "--n-schedule", "1000,10000", "--seeds", "2", "--response", "y"]

    def test_config_check_takes_effect(self, csv_path, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"check": 1e-9}))
        base = self.CONVERGE + ["--data", csv_path]
        assert run(base + ["--check", "1e-9", "--out", tmp_path / "a.csv"]) == 1
        assert run(base + ["--config", config, "--out", tmp_path / "b.csv"]) == 1
        assert run(base + ["--out", tmp_path / "c.csv"]) == 0

    def test_unknown_config_key_is_rejected_by_name(self, csv_path, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"check": 0.1, "lamda": 0.3}))
        with pytest.raises(SystemExit) as exc:
            run(self.CONVERGE + ["--data", csv_path, "--config", config,
                                 "--out", tmp_path / "out.csv"])
        assert exc.value.code == 2
        assert "'lamda'" in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()

    TRAIN = ["train", "--depth", "1", "--mode", "iid", "--lambda", "0.4", "--response", "y",
             "--seed", "2", "--hidden-width", "5"]

    @pytest.mark.parametrize("epochs", ["3", 3])
    def test_config_values_go_through_the_flag_type(self, csv_path, tmp_path, epochs):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"epochs": epochs}))
        base = self.TRAIN + ["--data", csv_path]
        assert run(base + ["--epochs", "3", "--out", tmp_path / "flag.json"]) == 0
        assert run(base + ["--config", config, "--out", tmp_path / "config.json.out"]) == 0
        assert (tmp_path / "config.json.out").read_bytes() == (tmp_path / "flag.json").read_bytes()

    @pytest.mark.parametrize("text", ['{"epochs": 3', '[["epochs", 3]]'])
    def test_config_file_that_is_no_json_object_is_a_usage_error(self, csv_path, tmp_path,
                                                                 capsys, text):
        config = tmp_path / "config.json"
        config.write_text(text)
        with pytest.raises(SystemExit) as exc:
            run(["train", "--response", "y", "--data", csv_path, "--config", config,
                 "--out", tmp_path / "ckpt.json"])
        assert exc.value.code == 2
        assert f"config file {config}" in capsys.readouterr().err

    @pytest.mark.parametrize("config_values, named", [
        ({"epochs": "three"}, "'epochs'"),
        ({"epochs": 2.5}, "'epochs'"),
        ({"epochs": True}, "'epochs'"),
        ({"mode": "cutout"}, "'mode'"),
    ])
    def test_config_value_the_flag_rejects_is_a_usage_error(self, csv_path, tmp_path, capsys,
                                                            config_values, named):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(config_values))
        with pytest.raises(SystemExit) as exc:
            run(["train", "--response", "y", "--data", csv_path, "--config", config,
                 "--out", tmp_path / "ckpt.json"])
        assert exc.value.code == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "ckpt.json").exists()


class TestErrorReporting:
    def test_singular_fit_is_one_error_line(self, tmp_path, capsys):
        # every level of a categorical column gets a dummy, so the dummies
        # sum to one and the centered Gram matrix is singular
        path = tmp_path / "cat.csv"
        rows = ["x,grp,y"] + [f"{i * 0.5},{'ab'[i % 2]},{i * 0.3 + i % 2}" for i in range(20)]
        path.write_text("\n".join(rows) + "\n")
        out = tmp_path / "model.json"
        code = run(["fit", "--method", "ols", "--data", path, "--response", "y", "--out", out])
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: fit_ols:")
        assert not out.exists()

    def one_error_line(self, capsys, code, message):
        assert code == 1
        assert capsys.readouterr().err.strip().splitlines() == [f"error: {message}"]

    def test_missing_response_column(self, csv_path, tmp_path, capsys):
        code = run(["fit", "--data", csv_path, "--response", "nope", "--out", tmp_path / "m"])
        self.one_error_line(capsys, code, "response column not found: 'nope'")

    def test_column_without_usable_values(self, tmp_path, capsys):
        path = tmp_path / "na.csv"
        path.write_text("a,b,y\nNA,1,2\nNA,2,3\nNA,3,5\n")
        code = run(["fit", "--data", path, "--response", "y", "--out", tmp_path / "m"])
        self.one_error_line(capsys, code, "column 'a' has no usable values")

    def test_test_fraction_out_of_range(self, csv_path, tmp_path, capsys):
        code = run(["train", "--data", csv_path, "--response", "y", "--test-frac", "1.5",
                    "--out", tmp_path / "ckpt.json"])
        self.one_error_line(capsys, code, "test_fraction must be in (0, 1)")
        assert not (tmp_path / "ckpt.json").exists()

    def test_augment_lambda_out_of_range(self, csv_path, tmp_path, capsys):
        code = run(["augment", "--mode", "mean", "--lambda", "1.0", "--data", csv_path,
                    "--response", "y", "--out", tmp_path / "aug.csv"])
        self.one_error_line(capsys, code, "lambda must be in [0, 1), got 1.0")
        assert not (tmp_path / "aug.csv").exists()

    @pytest.mark.parametrize("method,lam", [("ccp", "1.0"), ("ml2p", "-0.1")])
    def test_fit_lambda_out_of_range(self, csv_path, tmp_path, capsys, method, lam):
        code = run(["fit", "--method", method, "--lambda", lam, "--data", csv_path,
                    "--response", "y", "--out", tmp_path / "model.json"])
        self.one_error_line(capsys, code, f"lambda must be in [0, 1), got {float(lam)}")
        assert not (tmp_path / "model.json").exists()

    def test_sweep_lambda_out_of_range(self, csv_path, tmp_path, capsys):
        code = run(["sweep", "--mode", "mean", "--lambdas", "0.5,1.0", "--data", csv_path,
                    "--response", "y", "--out", tmp_path / "sweep.csv"])
        self.one_error_line(capsys, code, "lambda must be in [0, 1), got 1.0")
        assert not (tmp_path / "sweep.csv").exists()

    def test_cross_check_on_different_grids(self, csv_path, tmp_path, capsys):
        for mode, lambdas in (("mean", "0,0.5"), ("iid", "0,0.3")):
            assert run(["sweep", "--mode", mode, "--depths", "0", "--lambdas", lambdas,
                        "--seeds", "1", "--data", csv_path, "--response", "y",
                        "--format", "json", "--out", tmp_path / f"{mode}.json"]) == 0
        capsys.readouterr()
        code = run(["cross-check", "--mada", tmp_path / "mean.json", "--iid",
                    tmp_path / "iid.json", "--out", tmp_path / "cross.json"])
        self.one_error_line(capsys, code, "sweeps must share depths, lambda grid and seeds")
        assert not (tmp_path / "cross.json").exists()

    @pytest.mark.parametrize("slots", [("iid", "mean"), ("mean", "mean"), ("iid", "iid")])
    def test_cross_check_on_sweeps_in_the_wrong_slots(self, csv_path, tmp_path, capsys, slots):
        for mode in ("mean", "iid"):
            assert run(["sweep", "--mode", mode, "--depths", "0", "--lambdas", "0,0.5,0.9",
                        "--seeds", "2", "--data", csv_path, "--response", "y",
                        "--format", "json", "--out", tmp_path / f"{mode}.json"]) == 0
        capsys.readouterr()
        mada, iid = slots
        code = run(["cross-check", "--mada", tmp_path / f"{mada}.json", "--iid",
                    tmp_path / f"{iid}.json", "--check", "--out", tmp_path / "cross.json"])
        self.one_error_line(capsys, code, f"cross-check needs a 'mean' (mean-ablation) sweep "
                                          f"and an 'iid' (inverted-dropout) sweep, in that "
                                          f"order; got {mada!r} and {iid!r}")
        assert not (tmp_path / "cross.json").exists()

    def test_cross_check_on_different_outputs(self, csv_path, tmp_path, capsys):
        # a regression sweep has one output, a two-class sweep two
        labelled = tmp_path / "labelled.csv"
        header, *rows = csv_path.read_text().split()
        labelled.write_text("\n".join([header] + [
            row.rsplit(",", 1)[0] + ("," + ("hi" if float(row.rsplit(",", 1)[1]) > 0 else "lo"))
            for row in rows]) + "\n")
        common = ["--depths", "0", "--lambdas", "0,0.5", "--seeds", "1", "--epochs", "2",
                  "--hidden-width", "3", "--steps", "5", "--format", "json"]
        assert run(["sweep", "--mode", "mean", *common, "--data", csv_path, "--response", "y",
                    "--out", tmp_path / "mean.json"]) == 0
        assert run(["sweep", "--mode", "iid", *common, "--data", labelled, "--response", "y",
                    "--task", "classification", "--out", tmp_path / "iid.json"]) == 0
        capsys.readouterr()
        code = run(["cross-check", "--mada", tmp_path / "mean.json", "--iid",
                    tmp_path / "iid.json", "--check", "--out", tmp_path / "cross.json"])
        self.one_error_line(capsys, code, "sweeps must share output indices: the mean-ablation "
                                          "sweep has [0], the dropout sweep [0, 1]")
        assert not (tmp_path / "cross.json").exists()

    def test_diverged_training_is_one_error_line(self, tmp_path, capsys):
        code = run(["train", "--depth", "0", "--learning-rate", "1e200",
                    "--out", tmp_path / "ckpt.json"])
        self.one_error_line(capsys, code,
                            "diverged at epoch 0, step 1: overflow encountered in square")
        assert not (tmp_path / "ckpt.json").exists()

    def test_train_without_a_validation_split(self, csv_path, tmp_path, capsys):
        code = run(["train", "--data", csv_path, "--response", "y", "--val-frac", "0",
                    "--out", tmp_path / "ckpt.json"])
        self.one_error_line(capsys, code,
                            "train and validation splits must be non-empty, got 64 and 0 rows")
        assert not (tmp_path / "ckpt.json").exists()

    @pytest.mark.parametrize("kind", ["ccp", "both"])
    @pytest.mark.parametrize("maker", [["fit"], ["train", "--epochs", "1", "--hidden-width", "3"]],
                             ids=["fit", "train"])
    def test_ccp_on_one_row(self, csv_path, tmp_path, capsys, maker, kind):
        """CCP needs 2 rows; ML2P alone is still reported on 1."""
        model = tmp_path / "model.json"
        assert run([*maker, "--data", csv_path, "--response", "y", "--out", model]) == 0
        capsys.readouterr()
        penalty = ["penalty", "--model", model, "--data",
                   head_csv(csv_path, tmp_path / "one.csv", 1), "--response", "y"]
        code = run([*penalty, "--kind", kind, "--out", tmp_path / "penalty.json"])
        self.one_error_line(capsys, code,
                            "CCP needs at least 2 rows to estimate covariances, got 1")
        assert not (tmp_path / "penalty.json").exists()
        assert run([*penalty, "--kind", "ml2p", "--out", tmp_path / "ml2p.json"]) == 0
        report = json.loads((tmp_path / "ml2p.json").read_text())
        assert report["n"] == 1 and report["ccp"] is None and report["ml2p"] >= 0

    @pytest.mark.parametrize("n_rows", [5, 7])
    def test_sweep_with_one_test_row(self, csv_path, tmp_path, capsys, n_rows):
        code = run(["sweep", "--mode", "mean", "--depths", "0,1", "--lambdas", "0,0.5",
                    "--seeds", "1", "--epochs", "1", "--hidden-width", "3", "--steps", "5",
                    "--data", head_csv(csv_path, tmp_path / "few.csv", n_rows),
                    "--response", "y", "--out", tmp_path / "sweep.csv"])
        self.one_error_line(capsys, code,
                            f"the test split holds 1 of the {n_rows} rows; CCP needs at least 2")
        assert not (tmp_path / "sweep.csv").exists()

    def test_diverged_training_writes_no_warning(self, tmp_path):
        # numpy's warnings go to stderr outside pytest's capture, so run it alone
        result = run_in_subprocess(["train", "--depth", "0", "--learning-rate", "1e200",
                                    "--out", tmp_path / "ckpt.json"], subprocess.DEVNULL)
        assert result.returncode == 1
        assert result.stderr == (b"error: diverged at epoch 0, step 1: "
                                 b"overflow encountered in square\n")

    def test_deeper_diverged_training_writes_no_warning(self, tmp_path):
        # the hidden layers' overflow raises in the forward pass, before any
        # numpy warning and whatever the ReLU would make of it
        result = run_in_subprocess(["train", "--depth", "2", "--learning-rate", "1e200",
                                    "--out", tmp_path / "ckpt.json"], subprocess.DEVNULL)
        assert result.returncode == 1
        assert result.stderr == (b"error: diverged at epoch 0, step 1: "
                                 b"overflow encountered in matmul\n")
        assert not (tmp_path / "ckpt.json").exists()

    def test_diverged_epoch_pass_writes_no_warning(self, tmp_path):
        # every step's loss stays finite; the epoch's validation pass overflows
        result = run_in_subprocess(["train", "--depth", "0", "--learning-rate", "1e152",
                                    "--epochs", "3", "--out", tmp_path / "ckpt.json"],
                                   subprocess.DEVNULL)
        assert result.returncode == 1
        assert result.stderr == (b"error: diverged at epoch 0, step 5: "
                                 b"overflow encountered in reduce\n")
        assert not (tmp_path / "ckpt.json").exists()

    @pytest.mark.parametrize("command", [
        ["train"],
        ["sweep", "--mode", "mean", "--depths", "0", "--seeds", "2"],
        ["fit", "--method", "ols"],
        ["fit", "--method", "ml2p", "--lambda", "0.3"],
        ["converge", "--theorem", "1"],
    ])
    def test_column_whose_squares_overflow_is_one_error_line(self, tmp_path, command):
        # one value of 1e200 in column a: its scale and second moment overflow
        rng = np.random.default_rng(4)
        rows = rng.normal(size=(100, 3))
        rows[7, 0] = 1e200
        path = tmp_path / "big.csv"
        path.write_text("a,b,y\n" + "".join(f"{a!r},{b!r},{y!r}\n" for a, b, y in rows.tolist()))
        result = run_in_subprocess([*command, "--data", path, "--response", "y",
                                    "--out", tmp_path / "out"], subprocess.DEVNULL)
        assert result.returncode == 1
        assert result.stderr == (b"error: the squares of column(s) 'a' overflow float64: "
                                 b"their mean of squares or variance is not finite\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, model, message", [
        # a depth-1 net whose outputs overflow on the built-in 8-column data
        ("attribute", {"weights": [[[1e200] * 4] * 8, [[1e200]] * 4],
                       "biases": [[0.0] * 4, [0.0]], "task": "regression"},
         "overflow encountered in matmul"),
        # a linear model whose penalties overflow on the built-in 3-column data
        ("penalty", {"beta": [1e300] * 3, "intercept": 0.0}, "overflow encountered in square"),
    ])
    def test_model_that_overflows_is_one_error_line(self, tmp_path, command, model, message):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model))
        result = run_in_subprocess([command, "--model", path, "--out", tmp_path / "out"],
                                   subprocess.DEVNULL)
        assert result.returncode == 1
        assert result.stderr == (f"error: model file {path} overflows on the data: "
                                 f"{message}\n").encode()
        assert not (tmp_path / "out").exists()

    def test_out_in_a_missing_directory_names_the_target(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = run(["fit", "--out", "nodir/m.json"])
        self.one_error_line(capsys, code, "[Errno 2] No such file or directory: 'nodir/m.json'")
        assert list(tmp_path.iterdir()) == []

    def test_cross_check_on_a_report_that_is_no_sweep(self, tmp_path, capsys):
        report = tmp_path / "converge.json"
        report.write_text(json.dumps({"meta": {"type": "convergence"}}))
        code = run(["cross-check", "--mada", report, "--iid", report,
                    "--out", tmp_path / "cross.json"])
        self.one_error_line(capsys, code, "payload is not a sweep report")

    @pytest.mark.parametrize("payload, message", [
        ({}, "payload is not a sweep report"),
        ([], "payload is not a sweep report"),
        ({"meta": {}}, "payload is not a sweep report"),
        ({"meta": {"type": "sweep"}}, "sweep report needs a 'columns' list and a 'rows' list"),
        ("not json", "is not a JSON report: Expecting value: line 1 column 1 (char 0)"),
    ])
    def test_cross_check_on_a_malformed_report(self, tmp_path, capsys, payload, message):
        report = tmp_path / "bad.json"
        report.write_text(payload if isinstance(payload, str) else json.dumps(payload))
        if payload == "not json":
            message = f"{report} {message}"
        code = run(["cross-check", "--mada", report, "--iid", report,
                    "--out", tmp_path / "cross.json"])
        self.one_error_line(capsys, code, message)
        assert not (tmp_path / "cross.json").exists()


class TestInputFiles:
    """A file that cannot be read is one error line and exit 1; a config
    file that cannot be read is a usage error (exit 2)."""

    @pytest.mark.parametrize("command", [
        ["fit", "--data", "{missing}", "--response", "y"],
        ["penalty", "--model", "{missing}"],
        ["attribute", "--model", "{missing}"],
        ["attribute", "--model", "{model}", "--baseline", "{missing}"],
        ["cross-check", "--mada", "{missing}", "--iid", "{missing}"],
    ])
    def test_missing_file_is_one_error_line(self, csv_path, tmp_path, capsys, command):
        model = tmp_path / "model.json"
        assert run(["fit", "--data", csv_path, "--response", "y", "--out", model]) == 0
        capsys.readouterr()
        missing = tmp_path / "nofile.json"
        argv = [a.format(missing=missing, model=model) for a in command]
        code = run(argv + ["--out", tmp_path / "out"])
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and str(missing) in err[0]
        assert not (tmp_path / "out").exists()

    FITTED = "{model} was fitted on the columns ['x0', 'x1', 'x2'], but the data has "
    DATA = ["--data", "{data}", "--response", "y"]

    @pytest.mark.parametrize("command, bad, message", [
        (["penalty", "--model", "{bad}"], "{not json", "{bad} is not a JSON model: "),
        (["penalty", "--model", "{bad}"], {"beta": [1.0, 2.0, 3.0]},
         "model file {bad} lacks the key 'intercept'"),
        (["attribute", "--model", "{bad}"], [1.0, 2.0, 3.0], "{bad} is not a model file: "),
        (["attribute", "--model", "{model}"], None,
         FITTED + str([f"x{j}" for j in range(8)])),
        (["penalty", "--model", "{model}", "--data", "{reordered}", "--response", "y"], None,
         FITTED + "['x2', 'x1', 'x0']"),
        (["attribute", "--model", "{model}", *DATA, "--baseline", "{bad}"], "[0.0, 0.0",
         "{bad} is not a JSON baseline: "),
        (["attribute", "--model", "{model}", *DATA, "--baseline", "{bad}"], [0.0, 0.0],
         "baseline {bad} must be a list of 3 finite numbers"),
        (["attribute", "--model", "{model}", *DATA, "--baseline", "{bad}"], ["a", "b", "c"],
         "baseline {bad} must be a list of 3 finite numbers, one per model input"),
        (["attribute", "--model", "{model}", *DATA, "--baseline", "{bad}"], [[1, 2], [3, 4]],
         "baseline {bad} must be a list of 3 finite numbers, one per model input"),
        (["attribute", "--model", "{bad}"], {"beta": [1.0, 2.0, 3.0], "intercept": 0.0},
         "{bad} takes 3 columns, but the data has 8: " + str([f"x{j}" for j in range(8)])),
        (["penalty", "--model", "{bad}", *DATA], {"beta": [1.0, 2.0], "intercept": 0.0},
         "{bad} takes 2 columns, but the data has 3: ['x0', 'x1', 'x2']"),
        (["penalty", "--model", "{model}", *DATA, "--class", "3"], None,
         "--class 3 is out of range: {model} has 1 output(s)"),
        (["attribute", "--model", "{model}", *DATA, "--class", "3"], None,
         "--class 3 is out of range: {model} has 1 output(s)"),
    ], ids=["model-not-json", "linear-model-without-intercept", "model-is-a-list",
            "model-and-default-data-differ", "columns-reordered", "baseline-not-json",
            "baseline-wrong-length", "baseline-of-strings", "baseline-of-rows",
            "attribute-model-without-columns",
            "penalty-model-without-columns", "penalty-class-3", "attribute-class-3"])
    def test_unusable_input_is_one_error_line(self, csv_path, tmp_path, capsys, command, bad,
                                              message):
        """A model or baseline file that is malformed or does not match the
        data: one error line naming the file, exit 1, and no output."""
        model = tmp_path / "model.json"
        assert run(["fit", "--data", csv_path, "--response", "y", "--out", model]) == 0
        capsys.readouterr()
        reordered = tmp_path / "reordered.csv"
        reordered.write_text("".join(",".join(cells[2::-1] + cells[3:]) + "\n" for cells in
                                     (line.split(",") for line in csv_path.read_text().split())))
        paths = dict(bad=tmp_path / "bad.json", model=model, data=csv_path, reordered=reordered)
        if bad is not None:
            paths["bad"].write_text(bad if isinstance(bad, str) else json.dumps(bad))
        code = run([a.format(**paths) for a in command] + ["--out", tmp_path / "out"])
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: " + message.format(**paths))
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["penalty", "attribute"])
    @pytest.mark.parametrize("corrupt, message", [
        (lambda p: p["biases"].pop(), "need one bias vector per weight matrix"),
        (lambda p: p.update(weights=[], biases=[]), "model needs at least one layer"),
        (lambda p: p["weights"][0][0].__setitem__(0, float("nan")),
         "layer 0: non-finite parameters"),
        (lambda p: p.update(task="ranking"), "unknown task 'ranking'"),
        (lambda p: p["biases"][0].append(0.0), "layer 0: weight/bias shapes are inconsistent"),
        (lambda p: p["weights"][1].pop(), "layer 1: input dim does not match previous layer"),
    ], ids=["bias-short", "no-layers", "nan-weight", "task-ranking", "bias-too-long",
            "input-width"])
    def test_checkpoint_that_breaks_the_model_rules(self, csv_path, tmp_path, capsys, command,
                                                    corrupt, message):
        """Each rule of :class:`~ablatereg.nn.MlpModel` on a ``train``
        checkpoint: one error line naming the file, exit 1, and no output."""
        data = ["--data", csv_path, "--response", "y"]
        checkpoint = tmp_path / "checkpoint.json"
        assert run(["train", *data, "--epochs", "1", "--hidden-width", "3",
                    "--out", checkpoint]) == 0
        payload = json.loads(checkpoint.read_text())
        corrupt(payload)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))  # a NaN goes out as JSON's NaN token
        capsys.readouterr()
        code = run([command, "--model", bad, *data, "--out", tmp_path / "out"])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {bad} is not a model file: {message}"]
        assert not (tmp_path / "out").exists()

    def test_missing_config_file_is_a_usage_error(self, tmp_path, capsys):
        missing = tmp_path / "nofile.json"
        with pytest.raises(SystemExit) as exc:
            run(["fit", "--config", missing, "--out", tmp_path / "model.json"])
        assert exc.value.code == 2
        assert f"config file {missing}" in capsys.readouterr().err
        assert not (tmp_path / "model.json").exists()


class TestFlagValues:
    """A flag value that no run could use is a usage error at parse time."""

    @pytest.mark.parametrize("command", [
        "converge --theorem 1 --n-schedule 1e3",
        "converge --theorem 1 --n-schedule 1000,100",
        "converge --theorem 1 --check --seeds 0",
        "converge --theorem 1 --seeds 1,-2",
        "converge --theorem 1 --check nan",
        "converge --theorem 1 --check inf",
        "converge --theorem 1 --check -0.01",
        "converge --theorem 1 --check x",
        "sweep --mode mean --seeds x",
        "sweep --mode mean --lambdas 0:0.5:0",
        "sweep --mode mean --lambdas 0.5:0:0.1",
        "sweep --mode mean --lambdas 0,x",
        "sweep --mode mean --lambdas 0.9,0.0",
        "sweep --mode mean --lambdas 0.9:0:-0.3",
        "sweep --mode mean --lambdas 0.3,0.3",
        "sweep --mode mean --seeds 1,1",
        "converge --theorem 1 --seeds 4,4,4",
        "sweep --mode mean --depths 0,-1",
        "sweep --mode mean --steps 0",
        "sweep --mode mean --check nan",
        "sweep --mode mean --check -1.01",
        "sweep --mode mean --check 1.5",
        "train --epochs 0",
        "train --batch-size 0",
        "train --hidden-width 0",
        "train --depth -1",
        "train --learning-rate 0",
        "train --learning-rate -0.001",
        "train --learning-rate nan",
        "train --learning-rate inf",
        "fit --seed -1",
        "augment --mode mean --n 0",
        "penalty --class -1",
        "attribute --class -1",
    ])
    def test_rejected_at_parse_time(self, csv_path, tmp_path, capsys, command):
        argv = command.split()
        with pytest.raises(SystemExit) as exc:
            run(argv + ["--data", csv_path, "--response", "y", "--out", tmp_path / "out"])
        assert exc.value.code == 2
        assert f"argument {argv[-2]}:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_data_without_response_is_a_usage_error(self, csv_path, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["fit", "--data", csv_path, "--out", tmp_path / "model.json"])
        assert exc.value.code == 2
        assert capsys.readouterr().err == ("ablatereg fit: error: --response is required "
                                           "with --data\n")

    @pytest.mark.parametrize("config_values, named", [
        ({"n_schedule": "1000,100"}, "'n_schedule'"),
        ({"lambda": 0.3, "lam": 0.4}, "'lam'"),
        ({"check": "nan"}, "'check'"),
        ({"check": -1}, "'check'"),
        ({"check": True, "tolerance": 0.1}, "unknown key 'tolerance'"),
    ])
    def test_config_file_is_checked_as_the_flags(self, csv_path, tmp_path, capsys,
                                                 config_values, named):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(config_values))
        with pytest.raises(SystemExit) as exc:
            run(["converge", "--theorem", "1", "--data", csv_path, "--response", "y",
                 "--config", config, "--out", tmp_path / "out"])
        assert exc.value.code == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", ["false", 0, None])
    def test_config_switch_takes_true_or_false(self, tmp_path, capsys, value):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"check": value}))
        with pytest.raises(SystemExit) as exc:
            run(["cross-check", "--mada", "m.json", "--iid", "i.json", "--config", config,
                 "--out", tmp_path / "out"])
        assert exc.value.code == 2
        assert f"config key 'check' in {config}: {value!r} is not true or false" in (
            capsys.readouterr().err)


def subcommands():
    (action,) = (a for a in build_parser()._actions
                 if isinstance(a, argparse._SubParsersAction))
    return action.choices


class TestOptionDeclarations:
    """Each option's default is declared on its flag, and a config file's
    values act as the flags' defaults."""

    # (dest, type name, default, const, choices, nargs, required) of each
    # command's options: what the command line and config files rely on,
    # however build_parser declares them
    COMMON = {
        "--config": ("config", None, None, None, None, None, False),
        "--seed": ("seed", "_non_negative", 0, None, None, None, False),
        "--data": ("data", None, None, None, None, None, False),
        "--response": ("response", None, None, None, None, None, False),
        "--task": ("task", None, "regression", None, ("regression", "classification"), None,
                   False),
        "--out": ("out", None, None, None, None, None, True),
    }
    LAMBDA = ("lam", "float", 0.0, None, None, None, False)
    MODEL = ("model", None, None, None, None, None, True)
    CLASS = ("class_index", "_non_negative", 0, None, None, None, False)
    STEPS = ("steps", "_count", 100, None, None, None, False)
    EPOCHS = ("epochs", "_count", 200, None, None, None, False)
    BATCH_SIZE = ("batch_size", "_count", 256, None, None, None, False)
    HIDDEN_WIDTH = ("hidden_width", "_count", 100, None, None, None, False)
    CSV_FORMAT = ("fmt", None, "csv", None, ("csv", "json"), None, False)
    OPTIONS = {
        "fit": {**COMMON, "--lambda": LAMBDA,
                "--method": ("method", None, "ols", None, ("ols", "ccp", "ml2p"), None, False)},
        "augment": {**COMMON, "--lambda": LAMBDA,
                    "--mode": ("mode", None, None, None, ("mean", "iid"), None, True),
                    "--n": ("n", "_count", 10000, None, None, None, False)},
        "penalty": {**COMMON, "--model": MODEL, "--class": CLASS, "--steps": STEPS,
                    "--kind": ("kind", None, "both", None, ("ccp", "ml2p", "both"), None,
                               False)},
        "train": {**COMMON, "--lambda": LAMBDA, "--epochs": EPOCHS, "--batch-size": BATCH_SIZE,
                  "--hidden-width": HIDDEN_WIDTH,
                  "--test-frac": ("test_frac", "float", 0.2, None, None, None, False),
                  "--val-frac": ("val_frac", "float", 0.25, None, None, None, False),
                  "--depth": ("depth", "_non_negative", 1, None, None, None, False),
                  "--mode": ("mode", None, "none", None, ("none", "mean", "iid"), None, False),
                  "--learning-rate": ("learning_rate", "_positive", 0.001, None, None, None,
                                      False)},
        "attribute": {**COMMON, "--model": MODEL, "--class": CLASS, "--steps": STEPS,
                      "--baseline": ("baseline", None, "zeros", None, None, None, False)},
        "converge": {**COMMON, "--format": CSV_FORMAT,
                     "--lambda": ("lam", "float", 0.5, None, None, None, False),
                     "--theorem": ("theorem", "int", None, None, (1, 2), None, True),
                     "--n-schedule": ("n_schedule", "_parse_schedule", "1000,10000,100000,1000000",
                                      None, None, None, False),
                     "--seeds": ("seeds", "_parse_seeds", "3", None, None, None, False),
                     "--check": ("check", "_tolerance", False, 0.02, None, "?", False)},
        "sweep": {**COMMON, "--epochs": EPOCHS, "--batch-size": BATCH_SIZE,
                  "--hidden-width": HIDDEN_WIDTH, "--steps": STEPS, "--format": CSV_FORMAT,
                  "--mode": ("mode", None, None, None, ("mean", "iid"), None, True),
                  "--depths": ("depths", "_parse_ints", "0,1,3", None, None, None, False),
                  "--lambdas": ("lambdas", "_parse_lambdas", "0:0.9:0.1", None, None, None,
                                False),
                  "--seeds": ("seeds", "_parse_seeds", "5", None, None, None, False),
                  "--check": ("check", "_correlation", False, -0.8, None, "?", False)},
        "cross-check": {"--config": COMMON["--config"], "--out": COMMON["--out"],
                        "--mada": ("mada", None, None, None, None, None, True),
                        "--iid": ("iid", None, None, None, None, None, True),
                        "--format": ("fmt", None, "json", None, ("csv", "json"), None, False),
                        "--check": ("check", None, False, True, None, 0, False)},
    }

    def test_each_command_declares_its_pinned_options(self):
        # compared by repr, so that a default of 0 no longer equals False
        declared = {
            name: {option: repr((action.dest, action.type and action.type.__name__,
                                 action.default, action.const,
                                 None if action.choices is None else tuple(action.choices),
                                 action.nargs, action.required))
                   for option, action in parser._option_string_actions.items()
                   if action.dest != "help"}
            for name, parser in subcommands().items()
        }
        assert declared == {name: {option: repr(value) for option, value in options.items()}
                            for name, options in self.OPTIONS.items()}

    def test_every_optional_flag_has_a_default(self):
        commands = subcommands()
        assert len(commands) == 8
        for name, parser in commands.items():
            for action in parser._actions:
                if action.required or action.dest in ("help", "config", "data", "response"):
                    continue
                assert action.default is not None, f"{name} {action.option_strings}"

    @pytest.mark.parametrize("command", sorted(subcommands()))
    def test_help_exits_zero(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            run([command, "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage:")

    @pytest.mark.parametrize("command, usage, default", [
        ("converge", "--check [TOLERANCE]", harness.LINF_TOLERANCE),
        ("sweep", "--check [THRESHOLD]", harness.SPEARMAN_THRESHOLD),
    ])
    def test_check_carries_its_threshold(self, capsys, command, usage, default):
        with pytest.raises(SystemExit):
            run([command, "--help"])
        text = " ".join(capsys.readouterr().out.split())
        assert usage in text and f"(default {default})" in text
        assert "--tolerance" not in text and "--spearman-threshold" not in text

    @pytest.mark.parametrize("command", ["converge --theorem 1 --tolerance 0.001",
                                         "sweep --mode mean --spearman-threshold 0.99"])
    def test_removed_gate_flags_are_usage_errors(self, csv_path, tmp_path, capsys, command):
        with pytest.raises(SystemExit) as exc:
            run(command.split() + ["--data", csv_path, "--response", "y",
                                   "--out", tmp_path / "out"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {command.split()[-2]}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_check_spellings_of_one_gate_agree(self, csv_path, tmp_path, capsys):
        """``--check`` alone, ``--check`` with the default threshold and a
        config ``true`` gate alike; ``--check 0`` gates at 0."""
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"check": True}))
        base = TestConfigStrictness.CONVERGE + ["--data", csv_path, "--n-schedule", "50,100"]
        outcomes = []
        for extra in (["--check"], ["--check", str(harness.LINF_TOLERANCE)],
                      ["--config", config], ["--check", "0"]):
            code = run(base + extra + ["--out", tmp_path / "out.csv"])
            outcomes.append((code, capsys.readouterr().err.splitlines()))
        assert outcomes[0] == outcomes[1] == outcomes[2]
        assert outcomes[0][0] == 1 and outcomes[0][1][0].endswith(" exceeds 0.02")
        assert outcomes[3][0] == 1 and outcomes[3][1][0].endswith(" exceeds 0.0")

    def test_config_list_equals_the_flag(self, csv_path, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"depths": "0,1"}))
        base = ["sweep", "--mode", "mean", "--data", csv_path, "--response", "y",
                "--lambdas", "0.0,0.5", "--seeds", "1", "--epochs", "2", "--hidden-width", "3",
                "--steps", "5"]
        assert run(base + ["--depths", "0,1", "--out", tmp_path / "flag.csv"]) == 0
        assert run(base + ["--config", config, "--out", tmp_path / "config.csv"]) == 0
        assert (tmp_path / "config.csv").read_bytes() == (tmp_path / "flag.csv").read_bytes()

    def test_check_flag_overrides_a_config_false(self, csv_path, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"check": False}))
        base = TestConfigStrictness.CONVERGE + ["--data", csv_path, "--config", config]
        assert run(base + ["--out", tmp_path / "a.csv"]) == 0
        assert run(base + ["--check", "1e-9", "--out", tmp_path / "b.csv"]) == 1


@pytest.fixture(scope="module")
def tiny_inputs(tmp_path_factory):
    """A fit model and a checkpoint made on the 80 rows of ``write_data``,
    and those rows (``rows80``) and their first 1, 2 and 6 as CSV files."""
    root = tmp_path_factory.mktemp("tiny")
    paths = {"rows80": write_data(root / "rows80.csv"),
             "model": root / "model.json", "checkpoint": root / "checkpoint.json"}
    data = ["--data", paths["rows80"], "--response", "y"]
    assert run(["fit", *data, "--out", paths["model"]]) == 0
    assert run(["train", *data, "--epochs", "1", "--hidden-width", "3",
                "--out", paths["checkpoint"]]) == 0
    for n_rows in (1, 2, 6):
        paths[f"rows{n_rows}"] = head_csv(paths["rows80"], root / f"rows{n_rows}.csv", n_rows)
    return paths


TINY_COMMANDS = {
    "fit-ols": ["fit", "--method", "ols"],
    "fit-ccp": ["fit", "--method", "ccp", "--lambda", "0.5"],
    "fit-ml2p": ["fit", "--method", "ml2p", "--lambda", "0.5"],
    "augment-mean": ["augment", "--mode", "mean", "--lambda", "0.5", "--n", "20"],
    "augment-iid": ["augment", "--mode", "iid", "--lambda", "0.5", "--n", "20"],
    "penalty-fit": ["penalty", "--model", "{model}"],
    "penalty-checkpoint": ["penalty", "--model", "{checkpoint}", "--steps", "5"],
    "train": ["train", "--epochs", "1", "--hidden-width", "3"],
    "attribute": ["attribute", "--model", "{checkpoint}", "--steps", "5"],
    "converge-1": ["converge", "--theorem", "1", "--n-schedule", "50,100", "--seeds", "1"],
    "converge-2": ["converge", "--theorem", "2", "--n-schedule", "50,100", "--seeds", "1"],
    **{f"sweep-{mode}": ["sweep", "--mode", mode, "--depths", "0,1", "--lambdas", "0,0.5",
                         "--seeds", "1", "--epochs", "1", "--hidden-width", "3", "--steps", "5"]
       for mode in ("mean", "iid")},
}


@pytest.mark.parametrize("n_rows, command", [
    *((n_rows, name) for n_rows in (1, 2, 6) for name in TINY_COMMANDS),
    (80, "train-val-frac-0"),
])
def test_tiny_inputs_exit_cleanly(tiny_inputs, tmp_path, capsys, n_rows, command):
    """Every command on 1, 2 or 6 rows, and ``train --val-frac 0``, either
    succeeds, or exits 1 with one ``error:`` line, or is a usage error
    (exit 2); it raises nothing else and leaves no output on failure."""
    argv = (["train", "--epochs", "1", "--hidden-width", "3", "--val-frac", "0"]
            if command == "train-val-frac-0" else TINY_COMMANDS[command])
    out = tmp_path / "out"
    argv = [a.format(**tiny_inputs) for a in argv] + [
        "--data", tiny_inputs[f"rows{n_rows}"], "--response", "y", "--out", out]
    capsys.readouterr()
    try:
        code = run(argv)
    except SystemExit as exc:
        assert exc.code == 2
        code = 2
    assert code in (0, 1, 2)
    if code:
        err = capsys.readouterr().err.splitlines()
        assert len([line for line in err if "error:" in line]) == 1, err
        if code == 1:
            assert len(err) == 1 and err[0].startswith("error: "), err
        assert not out.exists()


def test_importing_the_package_loads_no_scipy():
    code = ("import sys, ablatereg, ablatereg.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
