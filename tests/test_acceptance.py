"""Acceptance suite.

One test per acceptance criterion; each prints a single
``[ACCEPTANCE n] <name>: PASS|FAIL`` line (run with ``-s`` to see the lines on
success).  The Monte-Carlo equivalence checks and the trend sweep are the
long-running parts; they are marked ``slow`` so they can be deselected during
development (``-m "not slow"``), but they run in a plain ``pytest`` call.
"""

import json
import time

import numpy as np
import pytest

import ablatereg as ar
from ablatereg.attribution import AttributionConfig, integrated_gradients
from ablatereg.cli import main as cli_main
from ablatereg.nn import TrainConfig, init, input_gradients, loss, param_gradients, predict

THEOREM_DATA = ar.synth_correlated(
    n=200, k=3, correlation=0.8, true_beta=(1.0, -2.0, 3.0), noise_sd=1.0, seed=12
)
TREND_DATA = ar.synth_correlated(
    n=2000, k=8, correlation=0.6, true_beta=np.linspace(0.5, 2.0, 8), noise_sd=1.0, seed=42
)
N_SCHEDULE = (10**3, 10**4, 10**5, 10**6, 10**7)
SEEDS = (0, 1, 2, 3, 4)


def _finish(num, name, problems):
    status = "PASS" if not problems else "FAIL"
    print(f"\n[ACCEPTANCE {num}] {name}: {status}")
    for p in problems:
        print(f"  - {p}")
    assert not problems, f"criterion {num} failed: {problems}"


def preactivations(net, X):
    """Each hidden layer's pre-activations for the rows ``X``."""
    act, preacts = X, []
    for w, b in zip(net.weights[:-1], net.biases[:-1]):
        preacts.append(act @ w + b)
        act = np.maximum(preacts[-1], 0.0)
    return preacts


def _labelled(label, outcome):
    """A library gate's problems, each prefixed with ``label``."""
    _, problems = outcome
    return [f"{label}: {p}" for p in problems]


@pytest.mark.slow
def test_criterion_1_theorem1_equivalence():
    start = time.time()
    problems = []
    for lam in (0.1, 0.3, 0.5, 0.7):
        run = ar.converge_theorem1(THEOREM_DATA, lam, N_SCHEDULE, SEEDS)
        problems += _labelled(f"lambda={lam}", run.check())
    elapsed = time.time() - start
    print(f"  theorem 1 runtime: {elapsed:.1f}s")
    if elapsed > 300:
        problems.append(f"runtime {elapsed:.0f}s exceeds 5 minutes")
    _finish(1, "mean ablation converges to the CCP closed form", problems)


@pytest.mark.slow
def test_criterion_2_theorem2_equivalence():
    start = time.time()
    problems = []
    for lam in (0.1, 0.3, 0.5, 0.7):
        run = ar.converge_theorem2(THEOREM_DATA, lam, N_SCHEDULE, SEEDS)
        problems += _labelled(f"lambda={lam}", run.check())
    elapsed = time.time() - start
    print(f"  theorem 2 runtime: {elapsed:.1f}s")
    if elapsed > 300:
        problems.append(f"runtime {elapsed:.0f}s exceeds 5 minutes")

    # on standardized data the ML2P solve must match an independent
    # classical-ridge oracle (eigendecomposition spectral filter)
    ds, _ = ar.standardize(THEOREM_DATA)
    Xc = ds.features - ds.features.mean(axis=0)
    yc = ds.response - ds.response.mean()
    for lam in (0.1, 0.3, 0.5, 0.7):
        fit = ar.fit_ml2p(ds, lam)
        alpha = ds.n * lam / (1.0 - lam)
        w, v = np.linalg.eigh(Xc.T @ Xc)
        ridge = v @ ((v.T @ (Xc.T @ yc)) / (w + alpha))
        err = np.abs(fit.model.beta - ridge).max()
        if err > 1e-8:
            problems.append(f"ridge oracle mismatch at lambda={lam}: {err:.2e}")
    _finish(2, "inverted dropout converges to the ML2P closed form", problems)


@pytest.mark.slow
def test_criterion_3_moment_limits():
    problems = []
    for mode in ("mean", "iid"):
        for lam in (0.3, 0.6):
            check = ar.check_moment_limits(THEOREM_DATA, mode, lam, 10**6, seed=7)
            if not check.ok:
                problems.append(
                    f"{mode} lambda={lam}: worst deviation {check.worst_sigma:.2f} sigma"
                )
    _finish(3, "augmented moments match the almost-sure limits within 3 sigma", problems)


def test_criterion_4_penalty_identities():
    problems = []
    rng = np.random.default_rng(99)
    for trial in range(100):
        n = int(rng.integers(3, 60))
        k = int(rng.integers(1, 7))
        X = rng.normal(size=(n, k)) * rng.uniform(0.2, 4.0)
        beta = rng.normal(size=k)
        model = ar.LinearModel(beta=beta, intercept=float(rng.normal()))
        c = ar.contributions_linear(model, X)
        pw = ar.ccp_pairwise(c)
        vf = ar.ccp_variance_form(c)
        Xc = X - X.mean(axis=0)
        gram = Xc.T @ Xc
        quad = beta @ (np.diag(np.diag(gram)) - gram) @ beta
        scale = max(1.0, abs(pw), abs(quad))
        if abs(pw - vf) > 1e-8 * scale or abs(pw - quad) > 1e-8 * scale:
            problems.append(
                f"trial {trial}: pairwise={pw!r} varform={vf!r} matrix={quad!r}"
            )
            break

    single = np.array([[1.0], [2.0], [4.0]])
    if ar.ccp_pairwise(single) != 0.0:
        problems.append("single-feature CCP is not exactly 0")

    raw = rng.normal(size=(50, 4))
    raw -= raw.mean(axis=0)
    q, _ = np.linalg.qr(raw)
    d = ar.Dataset(features=q, response=q @ np.array([1.0, -1.0, 2.0, 0.5]),
                   column_names=("a", "b", "c", "d"), column_kinds=("numeric",) * 4,
                   task="regression")
    ols_beta = ar.fit_ols(d).beta
    for lam in (0.2, 0.5, 0.9):
        err = np.abs(ar.fit_ccp(d, lam).model.beta - ols_beta).max()
        if err > 1e-8:
            problems.append(f"uncorrelated design: fit_ccp(lambda={lam}) differs by {err:.2e}")
    _finish(4, "CCP pairwise = variance form = quadratic form; orthogonal edge cases", problems)


def test_criterion_5_lambda_to_one_limits():
    problems = []
    d = THEOREM_DATA
    Xc = d.features - d.features.mean(axis=0)
    yc = d.response - d.response.mean()
    univariate = np.array([(Xc[:, j] @ yc) / (Xc[:, j] @ Xc[:, j]) for j in range(d.k)])
    ccp_beta = ar.fit_ccp(d, 1.0 - 1e-9).model.beta
    err = np.abs(ccp_beta - univariate).max()
    if err > 1e-4:
        problems.append(f"fit_ccp at 1-1e-9 vs univariate regressions: {err:.2e}")
    ml2p_norm = float(np.linalg.norm(ar.fit_ml2p(d, 1.0 - 1e-9).model.beta))
    if ml2p_norm >= 1e-6:
        problems.append(f"fit_ml2p at 1-1e-9 has |beta| = {ml2p_norm:.2e}")
    _finish(5, "lambda -> 1 limits (univariate regressions; crushed coefficients)", problems)


def test_criterion_6_integrated_gradients():
    problems = []
    rng = np.random.default_rng(61)

    beta = rng.normal(size=5)
    intercept = 0.37
    lin = ar.linear_as_mlp(beta, intercept)
    X = rng.normal(size=(25, 5))
    baseline = rng.normal(size=5)
    for steps in (1, 2, 100):
        res = integrated_gradients(lin, X, AttributionConfig(baseline=baseline, steps=steps))
        if res.completeness_gap.max() > 1e-10:
            problems.append(f"affine gap {res.completeness_gap.max():.2e} at m={steps}")
        if np.abs(res.attributions - (X - baseline) * beta).max() > 1e-10:
            problems.append(f"affine attributions not exact at m={steps}")

    for trial in range(5):
        net = init([6, 100, 100, 100, 1], seed=600 + trial)
        Xn = rng.normal(size=(20, 6))
        res = integrated_gradients(net, Xn, AttributionConfig(steps=100))
        delta = np.abs(res.outputs - res.baseline_output)
        if not np.all(res.completeness_gap <= 1e-3 * delta + 1e-6):
            problems.append(f"depth-3 net {trial}: completeness gap exceeds 1e-3 relative")
        ref = integrated_gradients(net, Xn, AttributionConfig(steps=10_000))
        if np.abs(ref.attributions - res.attributions).max() > 1e-6:
            problems.append(f"depth-3 net {trial}: m=100 differs from m=1e4 reference")
        if not np.array_equal(res.attributions, (Xn - 0.0) * res.avg_gradients):
            problems.append(f"depth-3 net {trial}: construction identity broken")

    res = integrated_gradients(lin, X, AttributionConfig(steps=100))
    if np.abs(res.avg_gradients - beta).max() > 1e-6:
        problems.append("average gradients on a linear model differ from beta")
    _finish(6, "integrated gradients exactness, completeness and identities", problems)


def test_criterion_7_nn_numerics():
    problems = []
    rng = np.random.default_rng(71)

    # backprop vs central differences: parameters
    net = init([5, 12, 12, 1], seed=72)
    X = rng.normal(size=(16, 5))
    y = rng.normal(size=16)
    grads_w, grads_b = param_gradients(net, X, y, "regression")
    h = 1e-4
    for layer in range(3):
        for _ in range(10):
            i = int(rng.integers(net.weights[layer].shape[0]))
            j = int(rng.integers(net.weights[layer].shape[1]))
            orig = net.weights[layer][i, j]
            net.weights[layer][i, j] = orig + h
            up = loss(predict(net, X), y, "regression")
            net.weights[layer][i, j] = orig - h
            down = loss(predict(net, X), y, "regression")
            net.weights[layer][i, j] = orig
            fd = (up - down) / (2 * h)
            scale = max(abs(fd), abs(grads_w[layer][i, j]), 1e-8)
            if abs(fd - grads_w[layer][i, j]) / scale > 1e-4:
                problems.append(f"param gradient mismatch at layer {layer}")
                break

    # backprop vs central differences: inputs, away from ReLU kinks
    margins = np.minimum.reduce([np.abs(z).min(axis=1) for z in preactivations(net, X)])
    safe = np.flatnonzero(margins > 1e-3)
    gin = input_gradients(net, X, 0)
    for r in safe[:6]:
        for c in range(5):
            up = X.copy(); up[r, c] += h
            down = X.copy(); down[r, c] -= h
            fd = (predict(net, up)[r, 0] - predict(net, down)[r, 0]) / (2 * h)
            scale = max(abs(fd), abs(gin[r, c]), 1e-8)
            if abs(fd - gin[r, c]) / scale > 1e-4:
                problems.append(f"input gradient mismatch at row {r}")
                break

    # depth-0 training reaches the closed form
    d = ar.synth_correlated(200, 3, 0.3, (1.0, -2.0, 3.0), 0.1, seed=73)
    ds, _ = ar.standardize(d)
    target = ar.fit_ols(ds)
    cfg = TrainConfig(learning_rate=0.01, epochs=400, batch_size=32,
                      early_stop_patience=400, seed=0)
    model, _ = ar.train(init([3, 1], seed=0), ds, ds, cfg)
    beta_err = np.abs(model.weights[0].ravel() - target.beta).max()
    if beta_err > 1e-2:
        problems.append(f"depth-0 training missed OLS by {beta_err:.2e}")
    _finish(7, "backprop matches finite differences; depth-0 training reaches OLS", problems)


@pytest.fixture(scope="module")
def trend_sweeps():
    cfg = TrainConfig()
    grid = tuple(round(0.1 * i, 10) for i in range(10))
    start = time.time()
    mada = ar.lambda_sweep(TREND_DATA, (0, 1, 3), "mean", grid, SEEDS, cfg=cfg,
                           dataset_id="equicorrelated")
    iid = ar.lambda_sweep(TREND_DATA, (0, 1, 3), "iid", grid, SEEDS, cfg=cfg,
                          dataset_id="equicorrelated")
    return mada, iid, time.time() - start


@pytest.mark.slow
def test_criterion_8_penalty_trends(trend_sweeps):
    mada, iid, elapsed = trend_sweeps
    problems = []
    print(f"  sweep runtime: {elapsed:.0f}s")
    if elapsed > 1800:
        problems.append(f"runtime {elapsed:.0f}s exceeds 30 minutes")
    problems += _labelled("MADA", mada.check())
    problems += _labelled("IID", iid.check())
    for entry in ar.penalty_trend(mada, "ccp")["per_depth"]:
        print(f"  MADA Spearman(lambda, CCP) depth {entry.depth}: {entry.spearman:.3f}")
    for entry in ar.penalty_trend(iid, "ml2p")["per_depth"]:
        print(f"  IID Spearman(lambda, ML2P) depth {entry.depth}: {entry.spearman:.3f}")

    report = ar.cross_trend_check(mada, iid)
    problems += _labelled("cross", report.check())
    for entry in report.ml2p_under_mean_ablation:
        print(f"  MADA Spearman(lambda, ML2P) depth {entry.depth}: {entry.spearman:.3f}")
    _finish(8, "lambda sweeps reproduce the penalty trends at desk scale", problems)


def test_criterion_9_cli_reproducibility(tmp_path):
    problems = []
    d = ar.synth_correlated(60, 3, 0.5, (1.0, 0.8, 2.0), 0.5, seed=90)
    data = tmp_path / "data.csv"
    lines = [",".join(list(d.column_names) + ["y"])]
    for row, y in zip(d.features, d.response):
        lines.append(",".join(repr(float(v)) for v in row) + f",{float(y)!r}")
    data.write_text("\n".join(lines) + "\n")

    model = tmp_path / "model.json"
    cli_main(["fit", "--method", "ccp", "--lambda", "0.3", "--data", str(data),
              "--response", "y", "--out", str(model)])
    ckpt = tmp_path / "ckpt.json"
    cli_main(["train", "--depth", "1", "--mode", "mean", "--lambda", "0.3",
              "--data", str(data), "--response", "y", "--seed", "4",
              "--epochs", "3", "--hidden-width", "6", "--out", str(ckpt)])

    commands = {
        "fit": ["fit", "--method", "ml2p", "--lambda", "0.4", "--data", str(data),
                "--response", "y"],
        "augment": ["augment", "--mode", "iid", "--lambda", "0.5", "--n", "100",
                    "--seed", "2", "--data", str(data), "--response", "y"],
        "penalty": ["penalty", "--model", str(model), "--data", str(data),
                    "--response", "y", "--kind", "both"],
        "train": ["train", "--depth", "1", "--mode", "iid", "--lambda", "0.2",
                  "--data", str(data), "--response", "y", "--seed", "3",
                  "--epochs", "3", "--hidden-width", "5"],
        "attribute": ["attribute", "--model", str(ckpt), "--data", str(data),
                      "--response", "y", "--steps", "25", "--baseline", "zeros"],
        "converge": ["converge", "--theorem", "1", "--lambda", "0.3",
                     "--n-schedule", "500,5000", "--seeds", "2", "--data", str(data),
                     "--response", "y"],
        "sweep": ["sweep", "--mode", "mean", "--data", str(data), "--response", "y",
                  "--depths", "0", "--lambdas", "0.0,0.5", "--seeds", "2",
                  "--format", "json"],
    }
    for name, args in commands.items():
        out1 = tmp_path / f"{name}_1.out"
        out2 = tmp_path / f"{name}_2.out"
        code1 = cli_main(args + ["--out", str(out1)])
        code2 = cli_main(args + ["--out", str(out2)])
        if code1 != 0 or code2 != 0:
            problems.append(f"{name}: nonzero exit code")
        elif out1.read_bytes() != out2.read_bytes():
            problems.append(f"{name}: reruns are not byte-identical")

    # cross-check consumes two sweep reports
    mada_json = tmp_path / "sweep_1.out"
    iid_json = tmp_path / "iid.json"
    cli_main(["sweep", "--mode", "iid", "--data", str(data), "--response", "y",
              "--depths", "0", "--lambdas", "0.0,0.5", "--seeds", "2",
              "--format", "json", "--out", str(iid_json)])
    c1 = tmp_path / "cross1.json"
    c2 = tmp_path / "cross2.json"
    cli_main(["cross-check", "--mada", str(mada_json), "--iid", str(iid_json),
              "--out", str(c1)])
    cli_main(["cross-check", "--mada", str(mada_json), "--iid", str(iid_json),
              "--out", str(c2)])
    if c1.read_bytes() != c2.read_bytes():
        problems.append("cross-check: reruns are not byte-identical")
    else:
        payload = json.loads(c1.read_text())
        if payload["meta"]["type"] != "cross_trend":
            problems.append("cross-check: unexpected report type")
    _finish(9, "fixed-seed CLI reruns emit byte-identical reports", problems)
