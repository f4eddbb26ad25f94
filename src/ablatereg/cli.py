"""Command-line interface.

Subcommands mirror the library surface: ``fit``, ``augment``, ``penalty``,
``train``, ``attribute``, ``converge``, ``sweep`` and ``cross-check``.  Every
command accepts ``--config file.json`` whose keys are the long flag names
with dashes replaced by underscores; explicit flags override config values,
and a key that names no option of the command is rejected.  A numerically
singular model, an unusable data file or split, an invalid augmentation or
ablation rate, and sweep reports that cannot be compared are each reported as
one ``error:`` line and exit status 1.
All outputs are deterministic given a seed: rerunning a command reproduces
the emitted file byte for byte.
"""

from __future__ import annotations

import argparse
import itertools
import json
import logging
import os
import sys

import numpy as np

from . import harness, nn, penalty as penalty_mod
from .attribution import AttributionConfig, as_contributions, integrated_gradients
from .augment import AugmentError, AugmentSpec, augmented_chunks
from .dataset import (
    Dataset,
    DatasetError,
    FeatureStats,
    SplitSpec,
    feature_stats,
    load_csv,
    one_hot_encode,
    split,
    standardize,
    synth_correlated,
)
from .linear import LinearModel, SingularModelError, fit_ccp, fit_ml2p, fit_ols
from .nn import TrainConfig, evaluate, init, linear_as_mlp, train

logger = logging.getLogger("ablatereg")


# --------------------------------------------------------------------------
# Shared helpers
# --------------------------------------------------------------------------


def _add_data_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--data", help="CSV file with a header row (default: built-in synthetic set)")
    sub.add_argument("--response", help="name of the response column")
    sub.add_argument("--task", choices=["regression", "classification"])


_CONFIG_ALIASES = {"lambda": "lam", "class": "class_index", "format": "fmt"}


def _apply_config(args: argparse.Namespace, parser: argparse.ArgumentParser) -> argparse.Namespace:
    """Fill unset (None) options from the JSON config file, if any.  A value
    goes through its flag's argparse ``type`` and ``choices`` as if it had
    been typed on the command line; a key that names no option of the
    command, or a value its flag would reject, is a usage error."""
    path = getattr(args, "config", None)
    if not path:
        return args
    with open(path, encoding="utf-8") as fh:
        try:
            config = json.load(fh)
        except json.JSONDecodeError as err:
            parser.error(f"config file {path} is not JSON: {err}")
    if not isinstance(config, dict):
        parser.error(f"config file {path} must hold a JSON object")
    (commands,) = (a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    options = {a.dest: a for a in commands[args.command]._actions}
    known = set(vars(args)) - {"command", "func", "config"}
    for key, value in config.items():
        attr = key.replace("-", "_")
        attr = _CONFIG_ALIASES.get(attr, attr)
        if attr not in known:
            parser.error(f"unknown key {key!r} in config file {path}")
        if getattr(args, attr) is None:
            setattr(args, attr, _config_value(options[attr], key, value, path, parser))
    return args


def _config_value(action: argparse.Action, key: str, value, path, parser):
    """A config file's value for ``action``, converted as argparse converts
    the flag's text.  Switches (``--check``) take the JSON value as it is."""
    if action.nargs == 0:
        return value
    # a number or other JSON value is converted from its JSON text, so 3.5
    # or true is rejected where an int is expected, as on the command line
    text = value if isinstance(value, str) else json.dumps(value)
    try:
        converted = (action.type or str)(text)
    except ValueError:
        parser.error(f"config key {key!r} in {path}: invalid value {value!r}")
    if action.choices is not None and converted not in action.choices:
        parser.error(f"config key {key!r} in {path}: {value!r} is not one of "
                     f"{', '.join(map(repr, action.choices))}")
    return converted


def _defaults(args, **fallbacks) -> None:
    for key, value in fallbacks.items():
        if getattr(args, key, None) is None:
            setattr(args, key, value)


def _parse_lambdas(text: str) -> tuple[float, ...]:
    if ":" in text:
        start, stop, step = (float(v) for v in text.split(":"))
        count = int(round((stop - start) / step)) + 1
        return tuple(round(start + i * step, 10) for i in range(count))
    return tuple(float(v) for v in text.split(","))


def _parse_seeds(text: str) -> tuple[int, ...]:
    if "," in text:
        return tuple(int(v) for v in text.split(","))
    return tuple(range(int(text)))


def _parse_ints(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(","))


def _load_dataset(args, default_builder) -> Dataset:
    if args.data:
        if not args.response:
            raise SystemExit("--response is required with --data")
        d = load_csv(args.data, args.response, args.task or "regression")
        return one_hot_encode(d)
    return default_builder()


def _default_theorem_data(seed: int) -> Dataset:
    return synth_correlated(n=200, k=3, correlation=0.8,
                            true_beta=(1.0, -2.0, 3.0), noise_sd=1.0, seed=seed)


def _default_sweep_data(seed: int) -> Dataset:
    return synth_correlated(n=2000, k=8, correlation=0.6,
                            true_beta=np.linspace(0.5, 2.0, 8), noise_sd=1.0, seed=seed)


def _write_json(obj, path) -> None:
    harness.write_text(path, json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _check_exit(outcome: tuple[bool, list[str]]) -> int:
    """Print a ``--check`` gate's problems to stderr; the exit status."""
    ok, problems = outcome
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    return 0 if ok else 1


def _model_from_json(payload: dict) -> nn.MlpModel:
    if "beta" in payload:
        return linear_as_mlp(np.asarray(payload["beta"], dtype=np.float64),
                             float(payload["intercept"]),
                             payload.get("task", "regression"))
    weights = [np.asarray(w, dtype=np.float64) for w in payload["weights"]]
    biases = [np.asarray(b, dtype=np.float64) for b in payload["biases"]]
    return nn.MlpModel(weights=weights, biases=biases, task=payload["task"])


def _stats_from_json(payload: dict) -> FeatureStats | None:
    block = payload.get("standardization")
    if not block:
        return None
    return FeatureStats(
        means=np.asarray(block["means"], dtype=np.float64),
        variances=np.asarray(block["variances"], dtype=np.float64),
        response_mean=block.get("response_mean"),
    )


# --------------------------------------------------------------------------
# Commands
# --------------------------------------------------------------------------


def cmd_fit(args) -> int:
    _defaults(args, method="ols", lam=0.0, seed=0)
    d = _load_dataset(args, lambda: _default_theorem_data(args.seed))
    if args.method == "ols":
        model = fit_ols(d)
        lam, kind, objective = None, "ols", None
    elif args.method == "ccp":
        fit = fit_ccp(d, args.lam)
        model, lam, kind, objective = fit.model, fit.lam, fit.penalty_kind, fit.objective_value
    else:
        fit = fit_ml2p(d, args.lam)
        model, lam, kind, objective = fit.model, fit.lam, fit.penalty_kind, fit.objective_value
    _write_json({
        "beta": model.beta.tolist(),
        "intercept": model.intercept,
        "lambda": lam,
        "penalty_kind": kind,
        "objective_value": objective,
        "columns": list(d.column_names),
        "task": d.task,
    }, args.out)
    logger.info("wrote model to %s", args.out)
    return 0


def cmd_augment(args) -> int:
    _defaults(args, lam=0.0, n=10000, seed=0)
    d = _load_dataset(args, lambda: _default_theorem_data(args.seed))
    spec = AugmentSpec(mode=args.mode, lam=args.lam, n_synthetic=args.n, seed=args.seed)
    header = ",".join(list(d.column_names) + [args.response or "y"]) + "\n"
    # One block of draws in memory at a time, written as it is formatted.
    blocks = (harness._matrix_lines(np.column_stack(block))
              for block in augmented_chunks(d, spec))
    harness.write_text(args.out, itertools.chain([header], blocks))
    logger.info("wrote %d augmented rows to %s", spec.n_synthetic, args.out)
    return 0


def cmd_penalty(args) -> int:
    _defaults(args, kind="both", seed=0, steps=100)
    with open(args.model, encoding="utf-8") as fh:
        payload = json.load(fh)
    d = _load_dataset(args, lambda: _default_theorem_data(args.seed))
    stats_from_model = _stats_from_json(payload)
    if stats_from_model is not None:
        d, _ = standardize(d, stats_from_model)
    stats = feature_stats(d.features)

    ccp_value = None
    ml2p_value = None
    if "beta" in payload:
        model = LinearModel(beta=np.asarray(payload["beta"], dtype=np.float64),
                            intercept=float(payload["intercept"]))
        contrib = penalty_mod.contributions_linear(model, d.features)
        if args.kind in ("ccp", "both"):
            ccp_value = penalty_mod.ccp_variance_form(contrib)
        if args.kind in ("ml2p", "both"):
            ml2p_value = penalty_mod.ml2p(model.beta, stats)
    else:
        model = _model_from_json(payload)
        attr = integrated_gradients(
            model, d.features,
            AttributionConfig(steps=args.steps, output_index=args.class_index or 0),
        )
        if args.kind in ("ccp", "both"):
            ccp_value = penalty_mod.ccp_variance_form(as_contributions(attr))
        if args.kind in ("ml2p", "both"):
            ml2p_value = penalty_mod.ml2p_from_avg_gradients(attr.avg_gradients, stats)

    _write_json({
        "ccp": ccp_value,
        "ml2p": ml2p_value,
        "n": d.n,
        "k": d.k,
        "lambda_context": payload.get("lambda"),
    }, args.out)
    logger.info("wrote penalty report to %s", args.out)
    return 0


def cmd_train(args) -> int:
    _defaults(args, depth=1, lam=0.0, mode="none", seed=0,
              epochs=200, batch_size=256, hidden_width=100, learning_rate=1e-3)
    d = _load_dataset(args, lambda: _default_sweep_data(args.seed))
    # fractions not given keep SplitSpec's defaults
    given = {"test_fraction": args.test_frac, "validation_fraction_of_train": args.val_frac}
    spec = SplitSpec(seed=args.seed, **{k: v for k, v in given.items() if v is not None})
    d_train, d_val, d_test = split(d, spec)
    d_train, stats = standardize(d_train)
    d_val, _ = standardize(d_val, stats)
    d_test, _ = standardize(d_test, stats)

    n_out = 1 if d.task == "regression" else int(d.response.max()) + 1
    dims = [d.k] + [args.hidden_width] * args.depth + [n_out]
    model = init(dims, seed=args.seed, task=d.task)
    augment = None
    if args.mode != "none":
        augment = AugmentSpec(mode=args.mode, lam=args.lam, n_synthetic=1, seed=args.seed)
    cfg = TrainConfig(learning_rate=args.learning_rate, epochs=args.epochs,
                      batch_size=args.batch_size, augment=augment, seed=args.seed)
    trained, log = train(model, d_train, d_val, cfg)
    metrics = evaluate(trained, d_test)

    _write_json({
        "dims": list(trained.layer_dims),
        "weights": [w.tolist() for w in trained.weights],   # row-major per layer
        "biases": [b.tolist() for b in trained.biases],
        "task": trained.task,
        "training_log": {
            "epochs": log.epochs,
            "best_epoch": log.best_epoch,
            "best_val_loss": log.best_val_loss,
            "stopped_early": log.stopped_early,
        },
        "test_metrics": metrics,
        "mode": args.mode,
        "lambda": args.lam if args.mode != "none" else None,
        "standardization": {
            "means": stats.means.tolist(),
            "variances": stats.variances.tolist(),
            "response_mean": stats.response_mean,
            "columns": list(d.column_names),
        },
    }, args.out)
    logger.info("wrote checkpoint to %s (best epoch %d)", args.out, log.best_epoch)
    return 0


def cmd_attribute(args) -> int:
    _defaults(args, steps=100, baseline="zeros", class_index=0, seed=0)
    with open(args.model, encoding="utf-8") as fh:
        payload = json.load(fh)
    model = _model_from_json(payload)
    d = _load_dataset(args, lambda: _default_sweep_data(args.seed))
    stats = _stats_from_json(payload)
    if stats is not None:
        d, _ = standardize(d, stats)

    if args.baseline == "zeros":
        baseline = np.zeros(d.k)
    elif args.baseline == "means":
        baseline = d.features.mean(axis=0)
    else:
        with open(args.baseline, encoding="utf-8") as fh:
            baseline = np.asarray(json.load(fh), dtype=np.float64)
    cfg = AttributionConfig(baseline=baseline, steps=args.steps,
                            output_index=args.class_index)
    result = integrated_gradients(model, d.features, cfg)

    header = ([f"attr_{c}" for c in d.column_names]
              + [f"avggrad_{c}" for c in d.column_names] + ["completeness_gap"])
    matrix = np.column_stack([result.attributions, result.avg_gradients,
                              result.completeness_gap])
    harness.write_text(args.out, [",".join(header) + "\n", harness._matrix_lines(matrix)])
    logger.info("wrote attributions for %d rows to %s", d.n, args.out)
    return 0


def cmd_converge(args) -> int:
    _defaults(args, lam=0.5, n_schedule="1000,10000,100000,1000000",
              seeds="3", seed=0, fmt="csv", tolerance=0.02)
    d = _load_dataset(args, lambda: _default_theorem_data(args.seed))
    schedule = _parse_ints(args.n_schedule)
    seeds = _parse_seeds(args.seeds)
    run_fn = harness.converge_theorem1 if args.theorem == 1 else harness.converge_theorem2
    run = run_fn(d, args.lam, schedule, seeds)
    harness.emit_report(run, args.fmt, args.out)
    logger.info("wrote convergence report to %s", args.out)
    return _check_exit(run.check(args.tolerance)) if args.check else 0


def cmd_sweep(args) -> int:
    _defaults(args, depths="0,1,3", lambdas="0:0.9:0.1", seeds="5", seed=0, fmt="csv",
              epochs=200, batch_size=256, hidden_width=100, steps=100,
              spearman_threshold=-0.8)
    d = _load_dataset(args, lambda: _default_sweep_data(args.seed))
    cfg = TrainConfig(epochs=args.epochs, batch_size=args.batch_size)
    sweep = harness.lambda_sweep(
        d,
        depths=_parse_ints(args.depths),
        mode=args.mode,
        lambda_grid=_parse_lambdas(args.lambdas),
        seeds=_parse_seeds(args.seeds),
        cfg=cfg,
        dataset_id=os.path.basename(args.data) if args.data else "synthetic",
        hidden_width=args.hidden_width,
        attribution_steps=args.steps,
    )
    harness.emit_report(sweep, args.fmt, args.out)
    logger.info("wrote sweep report to %s", args.out)
    return _check_exit(sweep.check(args.spearman_threshold)) if args.check else 0


def _read_sweep(path) -> harness.SweepResult:
    with open(path, encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as err:
            raise harness.ReportError(f"{path} is not a JSON report: {err}") from None
    return harness.sweep_from_payload(payload)


def cmd_cross_check(args) -> int:
    _defaults(args, fmt="json")
    report = harness.cross_trend_check(_read_sweep(args.mada), _read_sweep(args.iid))
    harness.emit_report(report, args.fmt, args.out)
    logger.info("wrote cross-trend report to %s", args.out)
    return _check_exit(report.check()) if args.check else 0


# --------------------------------------------------------------------------
# Parser
# --------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ablatereg",
        description="Ablated data augmentation, closed-form penalty solvers, "
                    "and attribution-based penalty diagnostics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON file of flag values (flags override it)")
        p.add_argument("--seed", type=int)
        _add_data_flags(p)

    p = sub.add_parser("fit", help="closed-form linear fit")
    common(p)
    p.add_argument("--method", choices=["ols", "ccp", "ml2p"])
    p.add_argument("--lambda", type=float, dest="lam")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("augment", help="write a bootstrap-ablated synthetic CSV")
    common(p)
    p.add_argument("--mode", choices=["mean", "iid"], required=True)
    p.add_argument("--lambda", type=float, dest="lam")
    p.add_argument("--n", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_augment)

    p = sub.add_parser("penalty", help="penalty report for a model on a dataset")
    common(p)
    p.add_argument("--model", required=True, help="model.json or checkpoint.json")
    p.add_argument("--kind", choices=["ccp", "ml2p", "both"])
    p.add_argument("--class", type=int, dest="class_index")
    p.add_argument("--steps", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_penalty)

    p = sub.add_parser("train", help="train a feed-forward network")
    common(p)
    p.add_argument("--test-frac", type=float, dest="test_frac",
                   help=f"share of rows held out for testing (default {SplitSpec.test_fraction})")
    p.add_argument("--val-frac", type=float, dest="val_frac",
                   help="share of the other rows held out for validation "
                        f"(default {SplitSpec.validation_fraction_of_train})")
    p.add_argument("--depth", type=int)
    p.add_argument("--mode", choices=["none", "mean", "iid"])
    p.add_argument("--lambda", type=float, dest="lam")
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", type=int, dest="batch_size")
    p.add_argument("--hidden-width", type=int, dest="hidden_width")
    p.add_argument("--learning-rate", type=float, dest="learning_rate")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("attribute", help="integrated-gradients attributions to CSV")
    common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--steps", type=int)
    p.add_argument("--baseline", help="zeros | means | path to a JSON vector")
    p.add_argument("--class", type=int, dest="class_index")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_attribute)

    p = sub.add_parser("converge", help="Monte-Carlo equivalence check")
    common(p)
    p.add_argument("--theorem", type=int, choices=[1, 2], required=True)
    p.add_argument("--lambda", type=float, dest="lam")
    p.add_argument("--n-schedule", dest="n_schedule", help="comma list of synthetic sizes")
    p.add_argument("--seeds", help="count or comma list")
    p.add_argument("--format", dest="fmt", choices=["csv", "json"])
    p.add_argument("--tolerance", type=float)
    p.add_argument("--check", action="store_true", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_converge)

    p = sub.add_parser("sweep", help="lambda sweep of penalties on trained models")
    common(p)
    p.add_argument("--mode", choices=["mean", "iid"], required=True)
    p.add_argument("--depths", help="comma list of hidden-layer counts")
    p.add_argument("--lambdas", help="start:stop:step or comma list")
    p.add_argument("--seeds", help="count or comma list")
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", type=int, dest="batch_size")
    p.add_argument("--hidden-width", type=int, dest="hidden_width")
    p.add_argument("--steps", type=int)
    p.add_argument("--format", dest="fmt", choices=["csv", "json"])
    p.add_argument("--spearman-threshold", type=float, dest="spearman_threshold")
    p.add_argument("--check", action="store_true", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("cross-check", help="compare a mean-ablation sweep with a dropout sweep")
    p.add_argument("--config", help="JSON file of flag values (flags override it)")
    p.add_argument("--mada", required=True, help="JSON sweep report for mean ablation")
    p.add_argument("--iid", required=True, help="JSON sweep report for inverted dropout")
    p.add_argument("--format", dest="fmt", choices=["csv", "json"])
    p.add_argument("--check", action="store_true", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_cross_check)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = _apply_config(parser.parse_args(argv), parser)
    try:
        return args.func(args)
    except (SingularModelError, DatasetError, AugmentError, harness.ReportError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
