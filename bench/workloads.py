"""Inputs and passes of the three workloads.

A workload's inputs are made from the benchmark's ``--seed`` alone; the
program receives only those inputs.  A pass is the workload's whole fixed
work, run from the start.  It returns the operations it attempted and
failed, a digest of everything it produced (equal digests on every pass of a
run show that re-runs are identical), and the outputs the checks read.

Calls go through module attributes (``harness.lambda_sweep``, ``cli.main``)
so that a tracer wrapping those attributes sees them.
"""

from __future__ import annotations

import hashlib
import os
import sys
from dataclasses import dataclass, field

import numpy as np

import ablatereg
from ablatereg import cli, harness
from ablatereg.nn import TrainConfig

WORKLOADS = ("converge", "sweep", "cli")

# Fixed work per pass.  "smoke" runs the same code and checks on small inputs.
SCALES = {
    "full": {
        "converge": dict(n=200, k=3, rho=0.8, beta=(1.0, -2.0, 3.0), lam=0.5,
                         schedule=(10**3, 10**4, 10**5, 10**6, 10**7),
                         moment_n=10**6, linf_tol=0.02),
        "sweep": dict(n=2000, k=8, rho=0.6, depths=(0, 1, 3), width=100, steps=100,
                      grid=(0.0, 0.3, 0.6, 0.9), epochs=10),
        "cli": dict(rows=20000, augment_n=100000, train_epochs=3, width=100,
                    attribute_steps=16, converge_schedule="1000,10000",
                    sweep_depths="0,1", sweep_lambdas="0.2,0.6", sweep_epochs=3,
                    sweep_width=32, sweep_steps=20),
    },
    "smoke": {
        # the final-N tolerance scales as 1/sqrt(N): 0.02 at 1e7 is 0.2 at 1e5
        "converge": dict(n=200, k=3, rho=0.8, beta=(1.0, -2.0, 3.0), lam=0.5,
                         schedule=(10**3, 10**4, 10**5), moment_n=10**4, linf_tol=0.2),
        "sweep": dict(n=300, k=8, rho=0.6, depths=(0, 1), width=16, steps=20,
                      grid=(0.0, 0.5), epochs=2),
        "cli": dict(rows=600, augment_n=2000, train_epochs=2, width=8,
                    attribute_steps=10, converge_schedule="300,1000",
                    sweep_depths="0,1", sweep_lambdas="0.2,0.6", sweep_epochs=2,
                    sweep_width=8, sweep_steps=5),
    },
}


@dataclass
class PassResult:
    attempted: int
    failed: int
    digest: str
    outputs: dict = field(default_factory=dict)
    bytes_written: int = 0


def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload)])


def _equicorrelated(rng, n, k, rho, beta, noise_sd=1.0):
    cov = np.full((k, k), rho)
    np.fill_diagonal(cov, 1.0)
    X = rng.standard_normal((n, k)) @ np.linalg.cholesky(cov).T
    y = X @ np.asarray(beta, dtype=np.float64) + noise_sd * rng.standard_normal(n)
    return X, y


def _dataset(X, y) -> ablatereg.Dataset:
    k = X.shape[1]
    return ablatereg.Dataset(features=X, response=y,
                             column_names=tuple(f"x{j}" for j in range(k)),
                             column_kinds=("numeric",) * k, task="regression")


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else str(part).encode())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# converge
# ---------------------------------------------------------------------------


def converge_inputs(seed: int, cfg: dict, workdir: str) -> dict:
    X, y = _equicorrelated(_rng(seed, "converge"), cfg["n"], cfg["k"], cfg["rho"], cfg["beta"])
    return {"data": _dataset(X, y), "seed": seed}


def converge_pass(inputs: dict, cfg: dict) -> PassResult:
    d, seed, lam = inputs["data"], inputs["seed"], cfg["lam"]
    runs = [harness.converge_theorem1(d, lam, cfg["schedule"], (seed,)),
            harness.converge_theorem2(d, lam, cfg["schedule"], (seed,))]
    moments = [harness.check_moment_limits(d, mode, lam, cfg["moment_n"], seed)
               for mode in ("mean", "iid")]
    attempted = sum(r.dist_l2.size for r in runs) + len(moments)
    failed = sum(int(np.isnan(r.dist_l2).sum()) for r in runs)
    digest = _digest(*(harness.render_report(r, "csv") for r in runs),
                     *(m.gram_sigmas.tobytes() + m.cross_sigmas.tobytes() for m in moments))
    return PassResult(attempted, failed, digest, {"runs": runs, "moments": moments})


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def sweep_inputs(seed: int, cfg: dict, workdir: str) -> dict:
    X, y = _equicorrelated(_rng(seed, "sweep"), cfg["n"], cfg["k"], cfg["rho"],
                           np.linspace(0.5, 2.0, cfg["k"]))
    return {"data": _dataset(X, y), "seed": seed}


def sweep_pass(inputs: dict, cfg: dict) -> PassResult:
    # patience equal to epochs: every cell trains the same number of epochs
    train_cfg = TrainConfig(epochs=cfg["epochs"], early_stop_patience=cfg["epochs"])
    sweeps = [harness.lambda_sweep(inputs["data"], cfg["depths"], mode, cfg["grid"],
                                   (inputs["seed"],), cfg=train_cfg, dataset_id="bench",
                                   hidden_width=cfg["width"],
                                   attribution_steps=cfg["steps"])
              for mode in ("mean", "iid")]
    mada, iid = sweeps
    trends = [harness.penalty_trend(mada, "ccp"), harness.penalty_trend(iid, "ml2p")]
    cross = harness.cross_trend_check(mada, iid)
    reports = [harness.render_report(r, "csv") for r in (mada, iid, cross)]
    cells = mada.cells + iid.cells
    failed = sum(c.error is not None for c in cells)
    digest = _digest(*reports, *(t["pooled_spearman"] for t in trends))
    return PassResult(len(cells), failed, digest, {"sweeps": sweeps, "cross": cross})


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------

CATEGORIES = ("gamma", "alpha", "delta", "beta")  # encoded in sorted order
CLASS_LABELS = ("low", "mid", "high")
MISSING_TOKENS = ("NA", "", "?", "null", "n/a")
BAD_NUMBERS = ("1.2.3", "abc", "inf")
N_NUMERIC = 5


# One command fails on every run, whatever the seed: one_hot_encode keeps every
# level of a categorical column, so the dummies sum to 1 and OLS on them meets a
# singular Gram matrix.  It stays in the pass and counts as failed.
KNOWN_FAILURES = ("fit_ols",)


def _defect_counts(rows: int) -> list[int]:
    counts = [round(rows * share) for share in (0.015, 0.008, 0.007)]
    return [rows - sum(counts)] + counts


def _csv_text(header, X, grp, response, defect, rng) -> str:
    """CSV text with missing-value tokens and malformed rows where
    ``defect`` says so: 1 = missing token, 2 = unparseable number,
    3 = wrong cell count."""
    lines = [",".join(header)]
    width = len(header)
    for i in range(X.shape[0]):
        cells = [repr(float(v)) for v in X[i]] + [CATEGORIES[grp[i]], response[i]]
        kind = defect[i]
        if kind == 1:
            cells[int(rng.integers(width))] = MISSING_TOKENS[int(rng.integers(len(MISSING_TOKENS)))]
        elif kind == 2:
            cells[int(rng.integers(N_NUMERIC))] = BAD_NUMBERS[int(rng.integers(len(BAD_NUMBERS)))]
        elif kind == 3:
            cells = cells[:-1] if rng.random() < 0.5 else cells + ["7"]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _cli_csv(path, rng, rows, response_name, defect_counts) -> int:
    """Write one generated CSV; returns the number of rows written clean."""
    X = rng.standard_normal((rows, N_NUMERIC)) * [1.0, 2.0, 0.5, 3.0, 1.0] + [0.0, 5.0, -1.0, 10.0, 2.0]
    grp = rng.integers(0, len(CATEGORIES), rows)
    score = (X - X.mean(axis=0)) @ [1.0, -0.5, 2.0, 0.3, 0.0] + np.array([0.0, 1.0, -0.5, 2.0])[grp]
    score = score + rng.standard_normal(rows)
    if response_name == "y":
        response = [repr(float(v)) for v in score]
    else:
        cuts = np.quantile(score, [1 / 3, 2 / 3])
        response = [CLASS_LABELS[c] for c in np.searchsorted(cuts, score)]
    defect = rng.permutation(np.repeat([0, 1, 2, 3], defect_counts))
    header = [f"x{j}" for j in range(N_NUMERIC)] + ["grp", response_name]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(_csv_text(header, X, grp, response, defect, rng))
    return int((defect == 0).sum())


def cli_inputs(seed: int, cfg: dict, workdir: str) -> dict:
    """Two CSV files of the same make-up, one with a numeric response ``y``
    and one with a three-class response ``label``, plus a small clean file
    that does not depend on the seed, for the one command that always fails."""
    rng = _rng(seed, "cli")
    inputs = {"seed": seed, "clean_rows": {}, "out": os.path.join(workdir, "out")}
    for key, response_name in (("reg", "y"), ("cls", "label")):
        inputs[key] = os.path.join(workdir, f"{key}.csv")
        # a fixed share of each defect kind, so every seed parses the same amount
        inputs["clean_rows"][key] = _cli_csv(inputs[key], rng, cfg["rows"], response_name,
                                             _defect_counts(cfg["rows"]))
    inputs["fixed"] = os.path.join(workdir, "fixed.csv")
    _cli_csv(inputs["fixed"], np.random.default_rng([0, len(WORKLOADS)]), 500, "y", [500, 0, 0, 0])
    os.makedirs(inputs["out"], exist_ok=True)
    return inputs


def cli_commands(inputs: dict, cfg: dict) -> list[tuple[str, list[str]]]:
    """The pass's commands in order; each writes the file named ``<key>.out``."""
    reg = ["--data", inputs["reg"], "--response", "y"]
    cls = ["--data", inputs["cls"], "--response", "label", "--task", "classification"]
    seed = str(inputs["seed"])
    out = inputs["out"]

    def path(key):
        return os.path.join(out, f"{key}.out")

    train = ["--depth", "1", "--epochs", str(cfg["train_epochs"]),
             "--hidden-width", str(cfg["width"]), "--seed", seed]
    sweep = ["--depths", cfg["sweep_depths"], "--lambdas", cfg["sweep_lambdas"],
             "--seeds", "1", "--epochs", str(cfg["sweep_epochs"]),
             "--hidden-width", str(cfg["sweep_width"]), "--steps", str(cfg["sweep_steps"]),
             "--format", "json", "--seed", seed]
    return [
        ("fit", ["fit", "--method", "ccp", "--lambda", "0.3", *reg]),
        ("fit_ols", ["fit", "--method", "ols", "--data", inputs["fixed"], "--response", "y"]),
        ("augment_mean", ["augment", "--mode", "mean", "--lambda", "0.3",
                          "--n", str(cfg["augment_n"]), "--seed", seed, *reg]),
        ("augment_iid", ["augment", "--mode", "iid", "--lambda", "0.3",
                         "--n", str(cfg["augment_n"]), "--seed", seed, *reg]),
        ("penalty", ["penalty", "--model", path("fit"), "--kind", "both", *reg]),
        ("train", ["train", "--mode", "mean", "--lambda", "0.2", *train, *reg]),
        ("attribute", ["attribute", "--model", path("train"),
                       "--steps", str(cfg["attribute_steps"]), *reg]),
        ("train_cls", ["train", "--mode", "iid", "--lambda", "0.2", *train, *cls]),
        ("attribute_cls", ["attribute", "--model", path("train_cls"), "--class", "1",
                           "--steps", str(cfg["attribute_steps"]), *cls]),
        ("converge", ["converge", "--theorem", "1", "--lambda", "0.3",
                      "--n-schedule", cfg["converge_schedule"], "--seeds", "2",
                      "--seed", seed, *reg]),
        ("sweep_mean", ["sweep", "--mode", "mean", *sweep, *reg]),
        ("sweep_iid", ["sweep", "--mode", "iid", *sweep, *reg]),
        ("cross", ["cross-check", "--mada", path("sweep_mean"), "--iid", path("sweep_iid")]),
    ]


def cli_pass(inputs: dict, cfg: dict) -> PassResult:
    commands = cli_commands(inputs, cfg)
    failed = 0
    codes = {}
    for key, argv in commands:
        target = os.path.join(inputs["out"], f"{key}.out")
        if os.path.exists(target):
            os.remove(target)
        try:
            code = cli.main(argv + ["--out", target])
        except SystemExit as exc:  # argparse and usage errors exit this way
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # uncaught, it ends the command line with status 1
            print(f"cli {key}: {type(exc).__name__}: {exc}", file=sys.stderr)
            code = 1
        codes[key] = code
        failed += code != 0 or not os.path.exists(target)
    h = hashlib.sha256()
    written = 0
    for key, _ in commands:
        target = os.path.join(inputs["out"], f"{key}.out")
        if os.path.exists(target):
            with open(target, "rb") as fh:
                data = fh.read()
            written += len(data)
            h.update(key.encode() + b"\0" + data)
    checked = {key: code for key, code in codes.items() if key not in KNOWN_FAILURES}
    return PassResult(len(commands), failed, h.hexdigest(), {"codes": checked},
                      bytes_written=written)


INPUTS = {"converge": converge_inputs, "sweep": sweep_inputs, "cli": cli_inputs}
PASSES = {"converge": converge_pass, "sweep": sweep_pass, "cli": cli_pass}


def make_inputs(workload: str, seed: int, scale: str, workdir: str) -> dict:
    return INPUTS[workload](seed, SCALES[scale][workload], workdir)


def run_pass(workload: str, inputs: dict, scale: str) -> PassResult:
    return PASSES[workload](inputs, SCALES[scale][workload])

