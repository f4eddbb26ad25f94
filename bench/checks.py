"""Output checks made apart from the program.

Every reference here is computed with numpy from the benchmark's own inputs,
or is a property the method must have; none is a stored copy of an earlier
output.  Each ``check_*`` function takes its reference as an argument and
returns a list of problems (empty when the check passes), so a test can feed
it a wrong reference and see it fail.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import os

import numpy as np
from ablatereg import SplitSpec, attribution, split

from spans import patch_everywhere, restore

# ---------------------------------------------------------------------------
# Generic comparisons
# ---------------------------------------------------------------------------


def check_close(label, observed, reference, rtol, scale=None) -> list[str]:
    """|observed - reference| <= rtol * scale elementwise; ``scale`` defaults
    to max(1, max|reference|)."""
    observed = np.asarray(observed, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    if observed.shape != reference.shape:
        return [f"{label}: shape {observed.shape} != reference shape {reference.shape}"]
    if scale is None:
        scale = max(1.0, float(np.abs(reference).max(initial=0.0)))
    err = float(np.abs(observed - reference).max(initial=0.0))
    if not err <= rtol * scale:
        return [f"{label}: differs from the reference by {err:.3g} (allowed {rtol * scale:.3g})"]
    return []


def check_identical(label, digests, reference) -> list[str]:
    """Every pass produced the same bytes as the reference pass."""
    bad = [i for i, d in enumerate(digests) if d != reference]
    return [f"{label}: pass {i} output differs from the first pass" for i in bad]


# ---------------------------------------------------------------------------
# Closed forms, written independently of ablatereg.linear
# ---------------------------------------------------------------------------


def centered(X, y):
    return X - X.mean(axis=0), y - y.mean()


def ccp_beta(X, y, lam):
    """argmin |yc - Xc b|^2 + lam b'(nV - Xc'Xc) b."""
    Xc, yc = centered(X, y)
    G = Xc.T @ Xc
    return np.linalg.solve((1.0 - lam) * G + lam * np.diag(np.diag(G)), Xc.T @ yc)


def ml2p_beta(X, y, lam):
    """argmin |yc - Xc b|^2 + n lam/(1-lam) sum_j (v_j + mu_j^2) b_j^2."""
    Xc, yc = centered(X, y)
    G = Xc.T @ Xc
    second = X.var(axis=0) + X.mean(axis=0) ** 2
    return np.linalg.solve(G + X.shape[0] * lam / (1.0 - lam) * np.diag(second), Xc.T @ yc)


def ols_beta(X, y):
    Xc, yc = centered(X, y)
    return np.linalg.solve(Xc.T @ Xc, Xc.T @ yc)


def ccp_value(X, beta):
    """beta'(nV - Xc'Xc)beta with population variances."""
    Xc = X - X.mean(axis=0)
    G = Xc.T @ Xc
    return float(beta @ (np.diag(np.diag(G)) - G) @ beta)


def ml2p_value(X, beta):
    return float(np.sum((X.var(axis=0) + X.mean(axis=0) ** 2) * beta**2))


# ---------------------------------------------------------------------------
# converge
# ---------------------------------------------------------------------------


def check_final_linf(label, dist_linf, tolerance) -> list[str]:
    final = np.asarray(dist_linf)[:, -1]
    if not np.all(np.isfinite(final)):
        return [f"{label}: a final-N fit failed"]
    if final.max() > tolerance:
        return [f"{label}: final-N Linf distance {final.max():.4g} exceeds {tolerance}"]
    return []


def check_sigma_bound(label, sigmas, bound) -> list[str]:
    """Moment residuals in Monte-Carlo standard errors stay within ``bound``.
    A 6-sigma bound over nine entries raises a false alarm about once in
    10^7 runs, where the program's own 3-sigma verdict does so about once
    in 40."""
    worst = float(np.max(sigmas))
    if not worst <= bound:
        return [f"{label}: moment residual {worst:.2f} sigma exceeds {bound} sigma"]
    return []


def converge_problems(inputs, outputs, cfg) -> list[str]:
    d = inputs["data"]
    X, y = np.asarray(d.features), np.asarray(d.response)
    lam = cfg["lam"]
    problems = []
    for run, reference in zip(outputs["runs"], (ccp_beta(X, y, lam), ml2p_beta(X, y, lam))):
        label = f"theorem {run.theorem}"
        problems += check_close(f"{label} target beta", run.target_beta, reference, 1e-9)
        problems += check_final_linf(label, run.dist_linf, cfg["linf_tol"])
    for m in outputs["moments"]:
        problems += check_sigma_bound(f"{m.mode} moments", np.concatenate(
            [np.ravel(m.gram_sigmas), np.ravel(m.cross_sigmas)]), 6.0)
    return problems


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def mlp_forward(weights, biases, X) -> np.ndarray:
    """ReLU stack with an affine output layer."""
    act = np.atleast_2d(np.asarray(X, dtype=np.float64))
    for w, b in zip(weights[:-1], biases[:-1]):
        act = np.maximum(act @ w + b, 0.0)
    return act @ weights[-1] + biases[-1]


def check_completeness(label, attributions, f_x, f_baseline, steps) -> list[str]:
    """Attributions of each row sum to F(x) - F(baseline).

    The path integral is a ``steps``-point Riemann sum over a
    piecewise-linear network, so a row whose path crosses ReLU kinks keeps a
    quadrature gap that shrinks as 1/steps.  Two bounds, each several times
    the gaps seen on trained networks: the summed gap within 1/steps of the
    summed |F(x) - F(b)|, and each row's gap within 10/steps of
    (|F(x) - F(b)| of the row + its mean over rows)."""
    delta = np.asarray(f_x, dtype=np.float64) - f_baseline
    gaps = np.abs(np.asarray(attributions).sum(axis=1) - delta)
    mass = np.abs(delta)
    problems = []
    if not gaps.sum() <= mass.sum() / steps:
        problems.append(f"{label}: summed completeness gap {gaps.sum():.3g} exceeds "
                        f"1/{steps} of summed |F(x) - F(b)| {mass.sum():.3g}")
    allowed = 10.0 / steps * (mass + mass.mean())
    worst = int(np.argmax(gaps - allowed))
    if gaps[worst] > allowed[worst]:
        problems.append(f"{label}: row {worst} completeness gap {gaps[worst]:.3g} "
                        f"with |F(x) - F(b)| = {mass[worst]:.3g}")
    return problems


def check_no_cell_errors(label, cells) -> list[str]:
    bad = [c for c in cells if c.error is not None]
    return [f"{label}: cell depth={c.depth} lam={c.lam} failed: {c.error}" for c in bad]


def check_differ(label, values, reference) -> list[str]:
    if np.array_equal(np.asarray(values, dtype=np.float64), np.asarray(reference, dtype=np.float64)):
        return [f"{label}: the two sweeps are identical"]
    return []


def standardized_split(d, seed):
    """Train and test features of the sweep's split, standardized with the
    training statistics the way the sweep does it, and the centered train
    response."""
    train, _, test = split(d, SplitSpec(seed=seed))
    Xtr, Xte = np.asarray(train.features), np.asarray(test.features)
    mu, sd = Xtr.mean(axis=0), Xtr.std(axis=0)
    sd = np.where(sd > 0, sd, 1.0)
    ytr = np.asarray(train.response)
    return (Xtr - mu) / sd, ytr - ytr.mean(), (Xte - mu) / sd


def depth0_reference(Xtr, ytr, Xte, mode, lam) -> tuple[float, float]:
    """(CCP, ML2P) on the test split of the depth-0 closed-form model fitted
    to the training split."""
    if lam == 0.0:
        beta = ols_beta(Xtr, ytr)
    elif mode == "mean":
        beta = ccp_beta(Xtr, ytr, lam)
    else:
        beta = ml2p_beta(Xtr, ytr, lam)
    return ccp_value(Xte, beta), ml2p_value(Xte, beta)


def sweep_problems(inputs, outputs, captured) -> list[str]:
    d, seed = inputs["data"], inputs["seed"]
    mada, iid = outputs["sweeps"]
    problems = check_no_cell_errors("sweep", mada.cells + iid.cells)
    Xtr, ytr, Xte = standardized_split(d, seed)
    for sweep in (mada, iid):
        for cell in sweep.cells:
            if cell.depth != 0 or cell.error is not None:
                continue
            ccp_ref, ml2p_ref = depth0_reference(Xtr, ytr, Xte, sweep.mode, cell.lam)
            label = f"{sweep.mode} depth-0 lam={cell.lam}"
            problems += check_close(f"{label} ML2P", cell.ml2p, ml2p_ref, 1e-8)
            # CCP is a difference of terms of size n * sum_j v_j b_j^2
            problems += check_close(f"{label} CCP", cell.ccp, ccp_ref, 1e-8,
                                    scale=max(1.0, Xte.shape[0] * ml2p_ref))
    n_cells = len(mada.cells) + len(iid.cells)
    if len(captured) != n_cells:
        problems.append(f"sweep: captured {len(captured)} attribution calls for {n_cells} cells")
    for i, (model, X, cfg, result) in enumerate(captured):
        oi = cfg.output_index
        baseline = np.zeros(X.shape[1]) if cfg.baseline is None else cfg.baseline
        f_x = mlp_forward(model.weights, model.biases, X)[:, oi]
        f_b = float(mlp_forward(model.weights, model.biases, baseline)[0, oi])
        problems += check_completeness(f"sweep cell {i} (depth {model.depth})",
                                       result.attributions, f_x, f_b, cfg.steps)
    problems += check_differ("sweep modes", [(c.ccp, c.ml2p) for c in mada.cells],
                             [(c.ccp, c.ml2p) for c in iid.cells])
    return problems


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------

MISSING = {"", "na", "n/a", "nan", "null", "none", "?"}


def _number(token):
    try:
        value = float(token)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def parse_csv(path, response, categorical, numeric_response):
    """Independent reading of a generated CSV: rows with the wrong cell
    count, a missing token or an unreadable number are dropped; the
    categorical column becomes one 0/1 column per sorted category, in place.
    Returns (features, response tokens, feature names)."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [r for r in reader if len(r) == len(header)]
    cat = header.index(categorical)
    resp = header.index(response)
    numeric = [j for j in range(len(header)) if j not in (cat, resp)]
    kept = []
    for r in rows:
        cells = [c.strip() for c in r]
        if any(c.lower() in MISSING for c in cells):
            continue
        if any(_number(cells[j]) is None for j in numeric):
            continue
        if numeric_response and _number(cells[resp]) is None:
            continue
        kept.append(cells)
    levels = sorted({r[cat] for r in kept})
    columns, names = [], []
    for j in range(len(header)):
        if j == resp:
            continue
        if j == cat:
            for level in levels:
                columns.append([float(r[cat] == level) for r in kept])
                names.append(f"{categorical}={level}")
        else:
            columns.append([float(r[j]) for r in kept])
            names.append(header[j])
    return np.array(columns).T, [r[resp] for r in kept], names


def check_fit(label, payload, names, beta_ref, intercept_ref) -> list[str]:
    problems = []
    if payload.get("columns") != names:
        problems.append(f"{label}: columns {payload.get('columns')} != {names}")
    problems += check_close(f"{label} beta", payload["beta"], beta_ref, 1e-8)
    problems += check_close(f"{label} intercept", payload["intercept"], intercept_ref, 1e-8)
    return problems


def check_augment(label, values, source, means, mode, lam) -> list[str]:
    """Each entry of column j is the column mean or one of the column's source
    values (mean ablation), or 0 or a source value / (1 - lam) (inverted
    dropout)."""
    problems = []
    for j in range(source.shape[1]):
        col = values[:, j]
        if mode == "mean":
            kept = source[:, j]
            ablated = np.isclose(col, means[j], rtol=1e-12, atol=1e-12)
            looks_ablated = np.isclose(kept, means[j], rtol=1e-12, atol=1e-12)
        else:
            kept = source[:, j] / (1.0 - lam)
            ablated = col == 0.0
            looks_ablated = kept == 0.0
        ok = ablated | np.isin(col, kept)
        if not ok.all():
            i = int(np.flatnonzero(~ok)[0])
            problems.append(f"{label}: column {j} row {i} value {col[i]!r} is neither "
                            f"ablated nor a source value")
        # Each entry is ablated with probability lam, or looks ablated because
        # its bootstrapped source value already is the ablated value.
        p = lam + (1.0 - lam) * float(looks_ablated.mean())
        share = float(ablated.mean())
        if abs(share - p) > 6.0 * math.sqrt(p * (1.0 - p) / col.size) + 1e-3:
            problems.append(f"{label}: column {j} ablated share {share:.4f}, expected {p:.4f}")
    return problems


def standardize_with(X, block):
    means = np.asarray(block["means"])
    sd = np.sqrt(np.asarray(block["variances"]))
    return (X - means) / np.where(sd > 0, sd, 1.0)


def cli_problems(inputs, outputs, cfg) -> list[str]:
    out = inputs["out"]

    def path(key):
        return os.path.join(out, f"{key}.out")

    problems = [f"cli {k}: exit code {c}" for k, c in outputs["codes"].items() if c != 0]
    if problems:
        return problems

    X, y_tokens, names = parse_csv(inputs["reg"], "y", "grp", True)
    y = np.array([float(t) for t in y_tokens])
    if X.shape[0] != inputs["clean_rows"]["reg"]:
        problems.append(f"cli: independent parse kept {X.shape[0]} rows, "
                        f"generator wrote {inputs['clean_rows']['reg']} clean rows")
    with open(path("fit"), encoding="utf-8") as fh:
        fit = json.load(fh)
    beta = ccp_beta(X, y, 0.3)
    problems += check_fit("cli fit", fit, names, beta, y.mean() - X.mean(axis=0) @ beta)

    means = X.mean(axis=0)
    for mode in ("mean", "iid"):
        header, rows = read_csv(path(f"augment_{mode}"))
        values = np.array(rows, dtype=np.float64)
        if header != names + ["y"] or values.shape[0] != cfg["augment_n"]:
            problems.append(f"cli augment {mode}: header or row count is wrong")
            continue
        problems += check_augment(f"cli augment {mode}", values[:, :-1], X, means, mode, 0.3)
        if not np.isin(values[:, -1], y).all():
            problems.append(f"cli augment {mode}: a response is not a source response")

    for key, data, response in (("attribute", inputs["reg"], "y"),
                                ("attribute_cls", inputs["cls"], "label")):
        with open(path(key.replace("attribute", "train")), encoding="utf-8") as fh:
            ckpt = json.load(fh)
        Xa, _, _ = parse_csv(data, response, "grp", response == "y")
        Z = standardize_with(Xa, ckpt["standardization"])
        weights = [np.asarray(w) for w in ckpt["weights"]]
        biases = [np.asarray(b) for b in ckpt["biases"]]
        oi = 1 if key == "attribute_cls" else 0
        f_x = mlp_forward(weights, biases, Z)[:, oi]
        f_b = float(mlp_forward(weights, biases, np.zeros(Z.shape[1]))[0, oi])
        header, rows = read_csv(path(key))
        values = np.array(rows, dtype=np.float64)
        k = Z.shape[1]
        if values.shape != (Z.shape[0], 2 * k + 1):
            problems.append(f"cli {key}: output shape {values.shape} for {Z.shape[0]} rows")
            continue
        problems += check_completeness(f"cli {key}", values[:, :k], f_x, f_b,
                                       cfg["attribute_steps"])
        problems += check_close(f"cli {key} attribution = displacement x avg gradient",
                                values[:, :k], Z * values[:, k:2 * k], 1e-9)
    return problems


def read_csv(path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        return next(reader), list(reader)


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def capture_attributions():
    """Record (model, X, config, result) of every integrated-gradients call
    the program makes while the block runs, so completeness can be checked
    against the benchmark's own forward pass."""
    original = attribution.integrated_gradients
    captured = []

    def capturing(m, X, cfg=None):
        result = original(m, X, cfg)
        used = cfg if cfg is not None else attribution.AttributionConfig()
        captured.append((m, np.array(X, dtype=np.float64), used, result))
        return result

    changed = patch_everywhere(original, capturing)
    try:
        yield captured
    finally:
        restore(changed, original)


def workload_problems(workload, inputs, warm, last, cfg, captured) -> list[str]:
    """Checks of one run: converge and sweep read the warm-up pass's results,
    cli reads the files the last pass wrote."""
    if workload == "converge":
        return converge_problems(inputs, warm.outputs, cfg)
    if workload == "sweep":
        return sweep_problems(inputs, warm.outputs, captured)
    return cli_problems(inputs, last.outputs, cfg)
