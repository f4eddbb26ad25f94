"""Command-line interface.

Subcommands mirror the library surface: ``fit``, ``augment``, ``penalty``,
``train``, ``attribute``, ``converge``, ``sweep`` and ``cross-check``.

Each option's type and default live on its flag in :func:`build_parser`.
Every command accepts ``--config file.json``, a JSON object keyed by the
options' long names or dests (dashes or underscores alike).  Its values
become the command's defaults, so a flag given on the command line wins.

Exit status 2 is a usage error: a bad flag or flag value, a bad config key or
value, or a config file that cannot be read.  Exit status 1 with one
``error:`` line on stderr is a data, model, report or file error: a
numerically singular model, an unusable data file or split, an invalid
augmentation or ablation rate, training that diverged (at an epoch and
step, with numpy's message), sweep reports that cannot be compared, a
malformed model, checkpoint or baseline file, one that does not match the
data (its column names, width or output count for ``--class``) or whose
model overflows on it, or a file that cannot be read or written.
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
from .augment import AugmentError, AugmentSpec
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
    sub.add_argument("--task", choices=["regression", "classification"], default="regression")


def _config_defaults(path, command: argparse.ArgumentParser, parser) -> dict:
    """The JSON config file's values by option dest, to become ``command``'s
    defaults.  A value goes through its flag's argparse ``type`` and
    ``choices`` as if it had been typed on the command line; an unreadable
    file, a key that names no option of the command or repeats one, or a
    value its flag would reject, is a usage error."""
    try:
        with open(path, encoding="utf-8") as fh:
            config = json.load(fh)
    except OSError as err:
        parser.error(f"cannot read config file {path}: {err.strerror}")
    except ValueError as err:
        parser.error(f"config file {path} is not JSON: {err}")
    if not isinstance(config, dict):
        parser.error(f"config file {path} must hold a JSON object")
    options = {}
    for action in command._actions:
        if action.dest not in ("help", "config"):
            for name in [action.dest, *(s[2:] for s in action.option_strings if s[:2] == "--")]:
                options[name.replace("-", "_")] = action
    defaults = {}
    for key, value in config.items():
        action = options.get(key.replace("-", "_"))
        if action is None:
            parser.error(f"unknown key {key!r} in config file {path}")
        if action.dest in defaults:
            parser.error(f"config key {key!r} in {path} repeats an earlier key")
        defaults[action.dest] = _config_value(action, key, value, path, parser)
    return defaults


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
    except argparse.ArgumentTypeError as err:
        parser.error(f"config key {key!r} in {path}: {err}")
    if action.choices is not None and converted not in action.choices:
        parser.error(f"config key {key!r} in {path}: {value!r} is not one of "
                     f"{', '.join(map(repr, action.choices))}")
    return converted


# Argparse ``type`` functions: a value they reject is a usage error (exit 2).


def _integer(text: str, minimum: int) -> int:
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or value < minimum:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer >= {minimum}")
    return value


def _count(text: str) -> int:
    return _integer(text, 1)


def _non_negative(text: str) -> int:
    return _integer(text, 0)


def _parse_lambdas(text: str) -> tuple[float, ...]:
    """``start:stop:step`` or a comma list; the range of each λ is left to
    :func:`~ablatereg.augment.check_lambda`."""
    try:
        if ":" not in text:
            return tuple(float(v) for v in text.split(","))
        start, stop, step = (float(v) for v in text.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{text!r} is neither start:stop:step nor a comma list of numbers") from None
    try:
        count = int(round((stop - start) / step)) + 1
    except (ArithmeticError, ValueError):  # a zero, infinite or NaN step or bound
        count = 0
    if count < 1:
        raise argparse.ArgumentTypeError(f"the range {text!r} holds no lambda")
    return tuple(round(start + i * step, 10) for i in range(count))


def _parse_seeds(text: str) -> tuple[int, ...]:
    """A seed count, or a comma list of non-negative seeds."""
    if "," in text:
        return tuple(_non_negative(v) for v in text.split(","))
    return tuple(range(_count(text)))


def _parse_ints(text: str) -> tuple[int, ...]:
    return tuple(_non_negative(v) for v in text.split(","))


def _parse_schedule(text: str) -> tuple[int, ...]:
    sizes = tuple(_count(v) for v in text.split(","))
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise argparse.ArgumentTypeError(f"N schedule must be strictly increasing, got {text!r}")
    return sizes


def _load_dataset(args, default_builder) -> Dataset:
    if args.data:
        d = load_csv(args.data, args.response, args.task)
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


def _read_json(path, what: str):
    """The JSON value in ``path``; a file that is not JSON raises
    :class:`~ablatereg.harness.ReportError` naming it."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as err:
            raise harness.ReportError(f"{path} is not a JSON {what}: {err}") from None


def _read_model(path):
    """A ``fit`` model or ``train`` checkpoint file as (network, linear model
    or None, standardization or None, recorded lambda, recorded column names
    or None): the one reader of the files' keys.  A file that is not one
    raises :class:`~ablatereg.harness.ReportError` naming it."""
    payload = _read_json(path, "model")
    try:
        linear = None
        if "beta" in payload:
            linear = LinearModel(beta=payload["beta"], intercept=payload["intercept"])
            model = linear_as_mlp(linear.beta, linear.intercept, payload.get("task", "regression"))
        else:
            weights, biases = ([np.asarray(a, dtype=np.float64) for a in payload[key]]
                               for key in ("weights", "biases"))
            model = nn.MlpModel(weights=weights, biases=biases, task=payload["task"])
        block = payload.get("standardization")
        stats = None
        if block:
            stats = FeatureStats(means=block["means"], variances=block["variances"],
                                 response_mean=block.get("response_mean"))
        columns = (block or payload).get("columns")
        return (model, linear, stats, payload.get("lambda"),
                None if columns is None else list(columns))
    except KeyError as err:
        raise harness.ReportError(f"model file {path} lacks the key {err}") from None
    except (TypeError, ValueError, AttributeError) as err:
        raise harness.ReportError(f"{path} is not a model file: {err}") from None


def _evaluating(path):
    """Training's overflow rule for evaluating the model file ``path``."""
    return nn.float_errors_as(
        lambda message: harness.ReportError(f"model file {path} overflows on the data: {message}"))


def _check_inputs(args, model: nn.MlpModel, columns, d: Dataset, baseline=None) -> None:
    """Check the model file's recorded ``columns`` (else its width), the
    ``--baseline`` file's vector and ``--class`` against the data ``d``."""
    width, n_out = model.layer_dims[0], model.layer_dims[-1]
    if columns is not None and columns != list(d.column_names):
        raise harness.ReportError(f"{args.model} was fitted on the columns {columns}, "
                                  f"but the data has {list(d.column_names)}")
    if width != d.k:
        raise harness.ReportError(f"{args.model} takes {width} columns, "
                                  f"but the data has {d.k}: {list(d.column_names)}")
    if baseline is not None:
        try:
            vector = np.asarray(baseline, dtype=np.float64)
            usable = vector.shape == (width,) and np.isfinite(vector).all()
        except (TypeError, ValueError):
            usable = False
        if not usable:
            raise harness.ReportError(f"baseline {args.baseline} must be a list of "
                                      f"{width} finite numbers, one per model input")
    if not 0 <= args.class_index < n_out:
        raise harness.ReportError(f"--class {args.class_index} is out of range: "
                                  f"{args.model} has {n_out} output(s)")


# --------------------------------------------------------------------------
# Commands
# --------------------------------------------------------------------------


def cmd_fit(args) -> int:
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
    d = _load_dataset(args, lambda: _default_theorem_data(args.seed))
    spec = AugmentSpec(mode=args.mode, lam=args.lam, n_synthetic=args.n, seed=args.seed)
    header = ",".join(list(d.column_names) + [args.response or "y"]) + "\n"
    # One block of draws in memory at a time, each value formatted once per
    # run, and the rows written a chunk at a time as they are formatted.
    harness.write_text(args.out, itertools.chain([header], harness.augmented_lines(d, spec)))
    logger.info("wrote %d augmented rows to %s", spec.n_synthetic, args.out)
    return 0


def cmd_penalty(args) -> int:
    model, linear, stats_from_model, lam, columns = _read_model(args.model)
    d = _load_dataset(args, lambda: _default_theorem_data(args.seed))
    _check_inputs(args, model, columns, d)
    if stats_from_model is not None:
        d, _ = standardize(d, stats_from_model)
    stats = feature_stats(d.features)

    ccp_value = None
    ml2p_value = None
    with _evaluating(args.model):
        if linear is not None:
            contrib = penalty_mod.contributions_linear(linear, d.features)
            if args.kind in ("ccp", "both"):
                ccp_value = penalty_mod.ccp_variance_form(contrib)
            if args.kind in ("ml2p", "both"):
                ml2p_value = penalty_mod.ml2p(linear.beta, stats)
        else:
            attr = integrated_gradients(
                model, d.features,
                AttributionConfig(steps=args.steps, output_index=args.class_index),
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
        "lambda_context": lam,
    }, args.out)
    logger.info("wrote penalty report to %s", args.out)
    return 0


def cmd_train(args) -> int:
    d = _load_dataset(args, lambda: _default_sweep_data(args.seed))
    spec = SplitSpec(test_fraction=args.test_frac, validation_fraction_of_train=args.val_frac,
                     seed=args.seed)
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
    model, _, stats, _, columns = _read_model(args.model)
    baseline = None
    if args.baseline not in ("zeros", "means"):
        baseline = _read_json(args.baseline, "baseline")
    d = _load_dataset(args, lambda: _default_sweep_data(args.seed))
    _check_inputs(args, model, columns, d, baseline)
    if stats is not None:
        d, _ = standardize(d, stats)

    if args.baseline == "zeros":
        baseline = np.zeros(d.k)
    elif args.baseline == "means":
        baseline = d.features.mean(axis=0)
    cfg = AttributionConfig(baseline=baseline, steps=args.steps,
                            output_index=args.class_index)
    with _evaluating(args.model):
        result = integrated_gradients(model, d.features, cfg)

    header = ([f"attr_{c}" for c in d.column_names]
              + [f"avggrad_{c}" for c in d.column_names] + ["completeness_gap"])
    matrix = np.column_stack([result.attributions, result.avg_gradients,
                              result.completeness_gap])
    harness.write_text(args.out, [",".join(header) + "\n", harness._matrix_lines(matrix)])
    logger.info("wrote attributions for %d rows to %s", d.n, args.out)
    return 0


def cmd_converge(args) -> int:
    d = _load_dataset(args, lambda: _default_theorem_data(args.seed))
    run_fn = harness.converge_theorem1 if args.theorem == 1 else harness.converge_theorem2
    run = run_fn(d, args.lam, args.n_schedule, args.seeds)
    harness.emit_report(run, args.fmt, args.out)
    logger.info("wrote convergence report to %s", args.out)
    return _check_exit(run.check(args.tolerance)) if args.check else 0


def cmd_sweep(args) -> int:
    d = _load_dataset(args, lambda: _default_sweep_data(args.seed))
    cfg = TrainConfig(epochs=args.epochs, batch_size=args.batch_size)
    sweep = harness.lambda_sweep(
        d,
        depths=args.depths,
        mode=args.mode,
        lambda_grid=args.lambdas,
        seeds=args.seeds,
        cfg=cfg,
        dataset_id=os.path.basename(args.data) if args.data else "synthetic",
        hidden_width=args.hidden_width,
        attribution_steps=args.steps,
    )
    harness.emit_report(sweep, args.fmt, args.out)
    logger.info("wrote sweep report to %s", args.out)
    return _check_exit(sweep.check(args.spearman_threshold)) if args.check else 0


def cmd_cross_check(args) -> int:
    mada, iid = (harness.sweep_from_payload(_read_json(path, "report"))
                 for path in (args.mada, args.iid))
    report = harness.cross_trend_check(mada, iid)
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
        p.add_argument("--seed", type=_non_negative, default=0)
        _add_data_flags(p)

    p = sub.add_parser("fit", help="closed-form linear fit")
    common(p)
    p.add_argument("--method", choices=["ols", "ccp", "ml2p"], default="ols")
    p.add_argument("--lambda", type=float, dest="lam", default=0.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("augment", help="write a bootstrap-ablated synthetic CSV")
    common(p)
    p.add_argument("--mode", choices=["mean", "iid"], required=True)
    p.add_argument("--lambda", type=float, dest="lam", default=0.0)
    p.add_argument("--n", type=int, default=10000)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_augment)

    p = sub.add_parser("penalty", help="penalty report for a model on a dataset")
    common(p)
    p.add_argument("--model", required=True, help="model.json or checkpoint.json")
    p.add_argument("--kind", choices=["ccp", "ml2p", "both"], default="both")
    p.add_argument("--class", type=int, dest="class_index", default=0)
    p.add_argument("--steps", type=_count, default=AttributionConfig.steps)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_penalty)

    p = sub.add_parser("train", help="train a feed-forward network")
    common(p)
    p.add_argument("--test-frac", type=float, default=SplitSpec.test_fraction,
                   help="share of rows held out for testing (default %(default)s)")
    p.add_argument("--val-frac", type=float, default=SplitSpec.validation_fraction_of_train,
                   help="share of the other rows held out for validation (default %(default)s)")
    p.add_argument("--depth", type=_non_negative, default=1)
    p.add_argument("--mode", choices=["none", "mean", "iid"], default="none")
    p.add_argument("--lambda", type=float, dest="lam", default=0.0)
    p.add_argument("--epochs", type=_count, default=TrainConfig.epochs)
    p.add_argument("--batch-size", type=_count, default=TrainConfig.batch_size)
    p.add_argument("--hidden-width", type=_count, default=100)
    p.add_argument("--learning-rate", type=float, default=TrainConfig.learning_rate)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("attribute", help="integrated-gradients attributions to CSV")
    common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--steps", type=_count, default=AttributionConfig.steps)
    p.add_argument("--baseline", default="zeros", help="zeros | means | path to a JSON vector")
    p.add_argument("--class", type=int, dest="class_index", default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_attribute)

    p = sub.add_parser("converge", help="Monte-Carlo equivalence check")
    common(p)
    p.add_argument("--theorem", type=int, choices=[1, 2], required=True)
    p.add_argument("--lambda", type=float, dest="lam", default=0.5)
    p.add_argument("--n-schedule", type=_parse_schedule, default="1000,10000,100000,1000000",
                   help="increasing comma list of synthetic sizes")
    p.add_argument("--seeds", type=_parse_seeds, default="3", help="count or comma list")
    p.add_argument("--format", dest="fmt", choices=["csv", "json"], default="csv")
    p.add_argument("--tolerance", type=float, default=0.02)
    p.add_argument("--check", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_converge)

    p = sub.add_parser("sweep", help="lambda sweep of penalties on trained models")
    common(p)
    p.add_argument("--mode", choices=["mean", "iid"], required=True)
    p.add_argument("--depths", type=_parse_ints, default="0,1,3",
                   help="comma list of hidden-layer counts")
    p.add_argument("--lambdas", type=_parse_lambdas, default="0:0.9:0.1",
                   help="start:stop:step or comma list")
    p.add_argument("--seeds", type=_parse_seeds, default="5", help="count or comma list")
    p.add_argument("--epochs", type=_count, default=TrainConfig.epochs)
    p.add_argument("--batch-size", type=_count, default=TrainConfig.batch_size)
    p.add_argument("--hidden-width", type=_count, default=100)
    p.add_argument("--steps", type=_count, default=AttributionConfig.steps)
    p.add_argument("--format", dest="fmt", choices=["csv", "json"], default="csv")
    p.add_argument("--spearman-threshold", type=float, default=-0.8)
    p.add_argument("--check", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("cross-check", help="compare a mean-ablation sweep with a dropout sweep")
    p.add_argument("--config", help="JSON file of flag values (flags override it)")
    p.add_argument("--mada", required=True, help="JSON sweep report for mean ablation")
    p.add_argument("--iid", required=True, help="JSON sweep report for inverted dropout")
    p.add_argument("--format", dest="fmt", choices=["csv", "json"], default="json")
    p.add_argument("--check", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_cross_check)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.config:
        # the file's values become the command's defaults, so flags win
        (commands,) = (a.choices for a in parser._actions
                       if isinstance(a, argparse._SubParsersAction))
        command = commands[args.command]
        command.set_defaults(**_config_defaults(args.config, command, parser))
        args = parser.parse_args(argv)
    if getattr(args, "data", None) and not args.response:
        parser.error("--response is required with --data")
    try:
        return args.func(args)
    except (SingularModelError, DatasetError, AugmentError, harness.ReportError,
            nn.TrainingDivergedError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
