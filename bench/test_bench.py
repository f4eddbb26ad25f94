"""Tests of the benchmark itself: smoke runs of every workload, the trace
arithmetic, and each output check fed a wrong reference.

    python3 -m pytest bench -q
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import ablatereg  # noqa: E402
import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
CLI_COMMANDS = len(workloads.cli_commands(
    {"reg": "r", "cls": "c", "fixed": "f", "seed": 0, "out": "o"},
    workloads.SCALES["smoke"]["cli"]))


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


# ---------------------------------------------------------------------------
# Smoke runs
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_reports_every_metric(workload, trace):
    done = _run("--workload", workload, "--seed", "5", "--seconds", "0.1",
                "--trace", str(trace), "--scale", "smoke")
    assert done.returncode == 0, done.stderr[-3000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, done.stderr[-3000:]
    # cli keeps one command that fails on every pass (workloads.KNOWN_FAILURES)
    known = len(workloads.KNOWN_FAILURES) if workload == "cli" else 0
    per_pass = CLI_COMMANDS if workload == "cli" else 1
    assert result["attempted"] > 0 and result["failed"] * per_pass == result["attempted"] * known
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    start = time.perf_counter()
    done = _run("--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
    assert time.perf_counter() - start < 60


def test_importtime_parsing():
    report = ("import time: self [us] | cumulative | imported package\n"
              "import time:       120 |        450 |     scipy.stats._stats\n"
              "import time:      2000 |     651234 |   scipy.stats\n")
    assert run.importtime_cumulative(report, "scipy.stats") == pytest.approx(0.651234)
    assert run.importtime_cumulative(report, "numpy") == 0.0


# ---------------------------------------------------------------------------
# Trace arithmetic
# ---------------------------------------------------------------------------

# root harness span [0, 10] with children nn [1, 4] (itself holding nn [2, 3])
# and augment [5, 6]; a second root streams span [11, 12]; the pass lasts 13.
TREE = [
    ["harness.lambda_sweep", 0.0, 10.0, -1],
    ["nn.train", 1.0, 4.0, 0],
    ["nn.forward", 2.0, 3.0, 1],
    ["augment.batch_masks", 5.0, 6.0, 0],
    ["streams.stream", 11.0, 12.0, -1],
]


def test_self_times_and_layer_identity():
    assert spans.self_times(TREE) == [6.0, 2.0, 1.0, 1.0, 1.0]
    per_layer, outside = spans.layer_times(TREE, 13.0)
    assert per_layer["harness"] == 6.0 and per_layer["nn"] == 3.0
    assert per_layer["augment"] == 1.0 and per_layer["streams"] == 1.0
    assert outside == 2.0
    m = spans.pass_metrics(TREE, {}, 13.0)
    assert spans.identity_error(m) == 0.0


def test_inclusive_counts_nested_spans_once():
    assert spans.inclusive(TREE, ["nn.train", "nn.forward"]) == 3.0
    assert spans.inclusive(TREE, ["nn.forward"]) == 1.0
    assert spans.self_of(TREE, ["nn.train"]) == 2.0
    assert spans.count(TREE, "nn.forward", "nn.train") == 1
    assert spans.child_time(TREE, "nn.forward", "nn.train") == 1.0
    assert spans.child_time(TREE, "nn.forward", "harness.lambda_sweep") == 0.0


def test_tracer_wraps_every_lookup_site_and_restores():
    from ablatereg import harness, linear

    original = linear.fit_ols
    d = ablatereg.synth_correlated(50, 2, 0.3, (1.0, 2.0), 0.5, seed=1)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert harness.fit_ols is not original and harness.fit_ols is linear.fit_ols
        harness.check_moment_limits(d, "mean", 0.3, 1000, seed=1)
        harness.converge_theorem1(d, 0.3, (100, 200), (0,))
    finally:
        tracer.uninstall()
    assert harness.fit_ols is original and ablatereg.fit_ols is original
    names = [s[0] for s in tracer.spans]
    assert names.count("linear.fit_ols") == 2
    assert names.count("augment.build_augmented") == 3
    m = spans.pass_metrics(tracer.spans, tracer.counts, 1.0)
    assert m["augment.rows_materialized"] == 1300
    assert m["linear.fit_ols_calls"] == 2
    assert spans.identity_error(m) < 1e-12


def test_flop_counts_follow_the_shapes():
    from ablatereg import nn

    model = nn.init([3, 4, 2], seed=0)
    counts = {"flop": 0.0}
    X = np.zeros((5, 3))
    spans._count_forward(counts, (model, X), {}, None)
    assert counts["flop"] == 2 * 5 * (3 * 4 + 4 * 2)
    counts["flop"] = 0.0
    spans._count_param_gradients(counts, (model, X, None, None), {}, None)
    assert counts["flop"] == 2 * 5 * (3 * 4 + 2 * 4 * 2)
    counts["flop"] = 0.0
    spans._count_input_gradients(counts, (model, X), {}, None)
    assert counts["flop"] == 4 * 5 * (3 * 4 + 4 * 2)


# ---------------------------------------------------------------------------
# Each check passes on the right reference and fails on a wrong one
# ---------------------------------------------------------------------------


def _data():
    return ablatereg.synth_correlated(200, 3, 0.8, (1.0, -2.0, 3.0), 1.0, seed=7)


def test_closed_forms_match_the_program_and_reject_a_wrong_beta():
    d = _data()
    X, y = d.features, d.response
    for lam in (0.2, 0.6):
        ccp = ablatereg.fit_ccp(d, lam).model.beta
        ml2p = ablatereg.fit_ml2p(d, lam).model.beta
        assert checks.check_close("ccp", ccp, checks.ccp_beta(X, y, lam), 1e-9) == []
        assert checks.check_close("ml2p", ml2p, checks.ml2p_beta(X, y, lam), 1e-9) == []
        assert checks.check_close("ccp", ccp, checks.ml2p_beta(X, y, lam), 1e-9) != []
        assert checks.check_close("ccp", ccp, checks.ccp_beta(X, y, lam) + 1e-6, 1e-9) != []


def test_final_linf_and_sigma_bound():
    dist = np.array([[0.5, 0.1, 0.01]])
    assert checks.check_final_linf("t", dist, 0.02) == []
    assert checks.check_final_linf("t", dist, 0.005) != []
    assert checks.check_final_linf("t", np.array([[0.5, np.nan]]), 0.02) != []
    assert checks.check_sigma_bound("m", [0.5, 2.9, 5.9], 6.0) == []
    assert checks.check_sigma_bound("m", [0.5, 2.9, 5.9], 3.0) != []


def test_penalty_values_match_the_program_on_a_linear_model():
    d = _data()
    beta = np.array([0.5, -1.0, 2.0])
    model = ablatereg.LinearModel(beta=beta, intercept=0.3)
    contrib = ablatereg.contributions_linear(model, d.features)
    ccp = ablatereg.ccp_variance_form(contrib)
    ml2p = ablatereg.ml2p(beta, ablatereg.feature_stats(d.features))
    assert checks.check_close("ccp", ccp, checks.ccp_value(d.features, beta), 1e-9,
                              scale=abs(ccp) + 1) == []
    assert checks.check_close("ml2p", ml2p, checks.ml2p_value(d.features, beta), 1e-9) == []
    assert checks.check_close("ml2p", ml2p, checks.ml2p_value(d.features, 2 * beta), 1e-9) != []


def test_completeness_against_own_forward_pass():
    from ablatereg.attribution import AttributionConfig, integrated_gradients
    from ablatereg.nn import init

    net = init([4, 16, 16, 1], seed=3)
    X = np.random.default_rng(0).normal(size=(50, 4))
    result = integrated_gradients(net, X, AttributionConfig(steps=100))
    f_x = checks.mlp_forward(net.weights, net.biases, X)[:, 0]
    f_b = float(checks.mlp_forward(net.weights, net.biases, np.zeros(4))[0, 0])
    assert checks.check_completeness("ig", result.attributions, f_x, f_b, 100) == []
    assert checks.check_completeness("ig", result.attributions, f_x + 1.0, f_b, 100) != []
    assert checks.check_completeness("ig", result.attributions * 1.5, f_x, f_b, 100) != []


def test_cell_errors_and_identical_sweeps_are_caught():
    from ablatereg.harness import SweepCell

    good = SweepCell(depth=0, lam=0.1, seed=0, output_index=0, metric=1.0, ccp=2.0, ml2p=3.0)
    bad = SweepCell(depth=1, lam=0.1, seed=0, output_index=0, metric=float("nan"),
                    ccp=float("nan"), ml2p=float("nan"), error="diverged")
    assert checks.check_no_cell_errors("s", [good]) == []
    assert checks.check_no_cell_errors("s", [good, bad]) != []
    assert checks.check_differ("s", [(1.0, 2.0)], [(1.0, 2.5)]) == []
    assert checks.check_differ("s", [(1.0, 2.0)], [(1.0, 2.0)]) != []
    assert checks.check_identical("r", ["a", "a"], "a") == []
    assert checks.check_identical("r", ["a", "b"], "a") != []


def test_csv_parse_fit_and_augment_checks(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("a,grp,b,y\n"
                    "1.0,u,2.0,3.0\n"
                    "2.0,v,1.0,1.0\n"
                    "NA,u,1.0,2.0\n"        # missing token
                    "3.0,w,abc,2.0\n"       # unreadable number
                    "1.0,u,2.0\n"           # wrong cell count
                    "4.0,w,0.5,5.0\n"
                    "0.5,v,3.0,0.0\n"
                    "2.5,u,1.5,4.0\n")
    X, y_tokens, names = checks.parse_csv(path, "y", "grp", True)
    assert names == ["a", "grp=u", "grp=v", "grp=w", "b"]
    assert X.shape == (5, 5) and y_tokens == ["3.0", "1.0", "5.0", "0.0", "4.0"]
    d = ablatereg.one_hot_encode(ablatereg.load_csv(path, "y"))
    assert np.array_equal(d.features, X)

    y = np.array([float(t) for t in y_tokens])
    fit = ablatereg.fit_ccp(d, 0.3).model
    payload = {"beta": fit.beta.tolist(), "intercept": fit.intercept, "columns": names}
    beta = checks.ccp_beta(X, y, 0.3)
    intercept = y.mean() - X.mean(axis=0) @ beta
    assert checks.check_fit("fit", payload, names, beta, intercept) == []
    assert checks.check_fit("fit", payload, names, beta, intercept + 0.1) != []
    assert checks.check_fit("fit", payload, names[::-1], beta, intercept) != []

    aug = ablatereg.build_augmented(d, ablatereg.AugmentSpec("mean", 0.3, 20000, 1))
    means = X.mean(axis=0)
    assert checks.check_augment("aug", aug.features, X, means, "mean", 0.3) == []
    assert checks.check_augment("aug", aug.features, X, means + 0.01, "mean", 0.3) != []
    assert checks.check_augment("aug", aug.features, X, means, "mean", 0.1) != []
    iid = ablatereg.build_augmented(d, ablatereg.AugmentSpec("iid", 0.3, 20000, 1))
    assert checks.check_augment("aug", iid.features, X, means, "iid", 0.3) == []
    assert checks.check_augment("aug", iid.features, X, means, "iid", 0.5) != []
