"""Command-line interface.

Subcommands mirror the library surface: ``fit``, ``augment``, ``penalty``,
``train``, ``attribute``, ``converge``, ``sweep`` and ``cross-check``.

Each option's type and default live on its flag in :func:`build_parser`.
Every command accepts ``--config file.json``, a JSON object keyed by the
options' long names or dests (dashes or underscores alike).  Its values
become the command's defaults, so a flag given on the command line wins.

Without ``--data`` a command runs on a built-in set drawn from ``--seed``, of
3 columns for ``fit``, ``augment``, ``penalty`` and ``converge`` and of 8 for
``train``, ``attribute`` and ``sweep``, so a model file made on one family's
set does not fit the other's.  ``--seed`` also draws ``augment``'s set and
seeds ``train``; with ``--data`` the other commands accept it and ignore it.

Exit status 2 is a usage error: a bad flag or flag value, a bad config key or
value, a config file that cannot be read, ``--data`` without ``--response``,
``--task classification`` for the least-squares ``fit`` and ``converge``, or
a flag that would change nothing, from the command line or the config file:
a nonzero ``--lambda`` that ``--method ols`` or ``--mode none`` ignores, or
``--response`` or ``--task classification`` without ``--data``.
``--hidden-width``, ``--epochs`` and ``--batch-size`` are settings of the
whole sweep, so a sweep of depth 0 alone ignores them without an error.

Exit status 1 with one ``error:`` line on stderr is a data, model, report
or file error: a numerically singular model, an unusable data file or
split, an invalid augmentation or ablation rate, training that diverged (at
an epoch and step, with numpy's message), sweep reports that cannot be
compared (their depths, lambda grids, seeds or outputs differ, or they sit
in the wrong slots), a malformed model, checkpoint or baseline file, one
that does not match the data (its column names, width or output count for
``--class``) or whose model overflows on it, or a file that cannot be read
or written.

``converge``, ``sweep`` and ``cross-check`` take ``--check``.  The report is
written first; then each problem the gate finds is printed to stderr as a
``CHECK FAILED:`` line, and any problem makes the exit status 1.  The gates
are the library's ``check()`` methods, with the thresholds in
:mod:`~ablatereg.harness`; ``converge --check [TOLERANCE]`` and ``sweep
--check [THRESHOLD]`` take their own, and a config file's ``check`` is
``true`` (the default threshold), ``false`` or a threshold:

- ``converge``: every final-N fit within TOLERANCE of the closed form in
  L-infinity, a median L2 distance that never grows with N, and a log-log
  slope of that median against N in ``harness.SLOPE_BAND``; a slope that
  cannot be fitted fails.  The band is set for schedules of at least 4 N
  values and 3 seeds: on a 2-point schedule the fitted slope is noisy
  enough to fail on its own where the Monte-Carlo rate holds;
- ``sweep``: no failed cell, and Spearman(lambda, the mode's own penalty) at
  or below THRESHOLD at every depth;
- ``cross-check``: the two sweeps differ, Spearman(lambda, ML2P) under mean
  ablation is at least ``harness.ML2P_RISE_MIN``, and |CCP| under inverted
  dropout is no larger at the last lambda than at the first, at every depth
  and output.  Its ``--mada`` report must be a mean-ablation sweep and its
  ``--iid`` report an inverted-dropout sweep, each written by ``sweep
  --format json``, or it exits 1 before writing; the CSV report that
  ``sweep`` writes by default is named as such.

Outputs are deterministic given a seed and a BLAS thread count: a rerun
writes the same bytes, but ``train``, ``attribute`` and ``sweep`` bytes can
change with ``OPENBLAS_NUM_THREADS``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import logging
import math
import os
import sys

import numpy as np

from . import files, harness, nn, penalty as penalty_mod
from .attribution import AttributionConfig, integrated_gradients
from .augment import MODES, AugmentError, AugmentSpec
from .dataset import (
    Dataset,
    DatasetError,
    SplitSpec,
    feature_stats,
    load_csv,
    one_hot_encode,
    standardize,
    synth_correlated,
)
from .linear import SingularModelError, fit_ccp, fit_ml2p, fit_ols
from .nn import TrainConfig, evaluate

logger = logging.getLogger("ablatereg")


# --------------------------------------------------------------------------
# Shared helpers
# --------------------------------------------------------------------------


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
    the flag's text.  A switch (``--check``) takes ``true`` or ``false``, and
    one that carries a threshold also the threshold."""
    if action.nargs in (0, "?") and isinstance(value, bool):
        return action.const if value else action.default
    if action.nargs == 0:
        parser.error(f"config key {key!r} in {path}: {value!r} is not true or false")
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


def _number(text: str, low: float, high: float, what: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and low <= value <= high):
        raise argparse.ArgumentTypeError(f"{text!r} is not {what}")
    return value


def _tolerance(text: str) -> float:
    return _number(text, 0.0, math.inf, "a finite number >= 0")


def _positive(text: str) -> float:
    return _number(text, math.ulp(0.0), math.inf, "a finite number > 0")


def _correlation(text: str) -> float:
    return _number(text, -1.0, 1.0, "a number in [-1, 1]")


def _checked(check, values, *args):
    """``values``, once the library's ``check`` passes them; its error is a
    usage error."""
    try:
        check(values, *args)
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err)) from None
    return values


def _parse_lambdas(text: str) -> tuple[float, ...]:
    """``start:stop:step`` or a comma list, strictly increasing; the range
    of each λ is left to :func:`~ablatereg.augment.check_lambda`."""
    try:
        if ":" in text:
            start, stop, step = (float(v) for v in text.split(":"))
        else:
            grid = tuple(float(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{text!r} is neither start:stop:step nor a comma list of numbers") from None
    if ":" in text:
        try:
            count = int(round((stop - start) / step)) + 1
        except (ArithmeticError, ValueError):  # a zero, infinite or NaN step or bound
            count = 0
        if count < 1:
            raise argparse.ArgumentTypeError(f"the range {text!r} holds no lambda")
        grid = tuple(round(start + i * step, 10) for i in range(count))
    return _checked(harness.check_increasing, grid, "lambda grid")


def _parse_seeds(text: str) -> tuple[int, ...]:
    """A seed count, or a comma list of distinct non-negative seeds."""
    if "," in text:
        return _checked(harness.check_distinct, tuple(_non_negative(v) for v in text.split(",")))
    return tuple(range(_count(text)))


def _parse_ints(text: str) -> tuple[int, ...]:
    return tuple(_non_negative(v) for v in text.split(","))


def _parse_schedule(text: str) -> tuple[int, ...]:
    return _checked(harness.check_increasing, tuple(_count(v) for v in text.split(",")),
                    "N schedule")


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


def _check_exit(outcome: tuple[bool, list[str]]) -> int:
    """Print a ``--check`` gate's problems to stderr; the exit status."""
    ok, problems = outcome
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    return 0 if ok else 1


def _read_sweep(path) -> harness.SweepResult:
    """The sweep of the JSON report ``path``.  The CSV report that ``sweep``
    writes by default is named as such, with the flag that writes JSON."""
    try:
        return harness.sweep_from_payload(files.read_json(path, "report"))
    except files.ReportError:
        if files.first_line(path) != files.csv_text(harness.SWEEP_HEADER):
            raise
    raise files.ReportError(f"{path} is a CSV sweep report; cross-check reads the report of "
                            "sweep --format json")


def _evaluating(path):
    """Training's overflow rule for evaluating the model file ``path``."""
    return nn.float_errors_as(
        lambda message: files.ReportError(f"model file {path} overflows on the data: {message}"))


def _check_inputs(args, model: nn.MlpModel, columns, d: Dataset, baseline=None) -> None:
    """Check the model file's recorded ``columns`` (else its width), the
    ``--baseline`` file's vector and ``--class`` against the data ``d``."""
    width, n_out = model.layer_dims[0], model.layer_dims[-1]
    if columns is not None and columns != list(d.column_names):
        raise files.ReportError(f"{args.model} was fitted on the columns {columns}, "
                                f"but the data has {list(d.column_names)}")
    if width != d.k:
        raise files.ReportError(f"{args.model} takes {width} columns, "
                                f"but the data has {d.k}: {list(d.column_names)}")
    if baseline is not None:
        try:
            vector = np.asarray(baseline, dtype=np.float64)
            usable = vector.shape == (width,) and np.isfinite(vector).all()
        except (TypeError, ValueError):
            usable = False
        if not usable:
            raise files.ReportError(f"baseline {args.baseline} must be a list of "
                                    f"{width} finite numbers, one per model input")
    if args.class_index >= n_out:
        raise files.ReportError(f"--class {args.class_index} is out of range: "
                                f"{args.model} has {n_out} output(s)")


# --------------------------------------------------------------------------
# Commands
# --------------------------------------------------------------------------


def cmd_fit(args) -> int:
    d = _load_dataset(args, lambda: _default_theorem_data(args.seed))
    if args.method == "ols":
        model = fit_ols(d)
        lam, kind, objective = None, "ols", None
    else:
        fit = (fit_ccp if args.method == "ccp" else fit_ml2p)(d, args.lam)
        model, lam, kind, objective = fit.model, fit.lam, fit.penalty_kind, fit.objective_value
    files.write_model(args.out, model, lam, kind, objective, d.column_names, d.task)
    logger.info("wrote model to %s", args.out)
    return 0


def cmd_augment(args) -> int:
    d = _load_dataset(args, lambda: _default_theorem_data(args.seed))
    spec = AugmentSpec(mode=args.mode, lam=args.lam, n_synthetic=args.n, seed=args.seed)
    header = files.csv_text([*d.column_names, args.response or "y"])
    # One block of draws in memory at a time, each value formatted once per
    # run, and the rows written a chunk at a time as they are formatted.
    files.write_text(args.out, itertools.chain([header], files.augmented_lines(d, spec)))
    logger.info("wrote %d augmented rows to %s", spec.n_synthetic, args.out)
    return 0


def cmd_penalty(args) -> int:
    model, linear, stats_from_model, lam, columns = files.read_model(args.model)
    d = _load_dataset(args, lambda: _default_theorem_data(args.seed))
    _check_inputs(args, model, columns, d)
    if stats_from_model is not None:
        d, _ = standardize(d, stats_from_model)
    stats = feature_stats(d.features)

    ml2p_value = None
    with _evaluating(args.model):
        # exact contributions for a linear model, attributions for a network
        if linear is not None:
            contributions = penalty_mod.contributions_linear(linear, d.features)
            if args.kind in ("ml2p", "both"):
                ml2p_value = penalty_mod.ml2p(linear.beta, stats)
        else:
            attr = integrated_gradients(
                model, d.features,
                AttributionConfig(steps=args.steps, output_index=args.class_index),
            )
            contributions = attr.attributions
            if args.kind in ("ml2p", "both"):
                ml2p_value = penalty_mod.ml2p_from_avg_gradients(attr.avg_gradients, stats)
        ccp_value = (penalty_mod.ccp_variance_form(contributions)
                     if args.kind in ("ccp", "both") else None)

    files.write_text(args.out, files.json_text({
        "ccp": ccp_value,
        "ml2p": ml2p_value,
        "n": d.n,
        "k": d.k,
        "lambda_context": lam,
    }))
    logger.info("wrote penalty report to %s", args.out)
    return 0


def cmd_train(args) -> int:
    d = _load_dataset(args, lambda: _default_sweep_data(args.seed))
    d_train, d_val, d_test, stats = harness.standardized_splits(d, SplitSpec(
        test_fraction=args.test_frac, validation_fraction_of_train=args.val_frac, seed=args.seed))
    cfg = TrainConfig(learning_rate=args.learning_rate, epochs=args.epochs,
                      batch_size=args.batch_size, mode=None if args.mode == "none" else args.mode,
                      lam=args.lam, seed=args.seed)
    trained, log = harness.train_cell(d_train, d_val, args.depth, args.hidden_width,
                                      harness.output_count(d), cfg, log_train_loss=True)
    metrics = evaluate(trained, d_test)

    files.write_checkpoint(args.out, trained, log, metrics, args.mode,
                           args.lam if args.mode != "none" else None, stats, d.column_names)
    logger.info("wrote checkpoint to %s (best epoch %d)", args.out, log.best_epoch)
    return 0


def cmd_attribute(args) -> int:
    model, _, stats, _, columns = files.read_model(args.model)
    baseline = None
    if args.baseline not in ("zeros", "means"):
        baseline = files.read_json(args.baseline, "baseline")
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
    files.write_text(args.out, [files.csv_text(header), files.matrix_lines(matrix)])
    logger.info("wrote attributions for %d rows to %s", d.n, args.out)
    return 0


def cmd_converge(args) -> int:
    d = _load_dataset(args, lambda: _default_theorem_data(args.seed))
    run_fn = harness.converge_theorem1 if args.theorem == 1 else harness.converge_theorem2
    run = run_fn(d, args.lam, args.n_schedule, args.seeds)
    files.write_text(args.out, harness.render_report(run, args.fmt))
    logger.info("wrote convergence report to %s", args.out)
    return _check_exit(run.check(args.check)) if args.check is not False else 0


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
    files.write_text(args.out, harness.render_report(sweep, args.fmt))
    logger.info("wrote sweep report to %s", args.out)
    return _check_exit(sweep.check(args.check)) if args.check is not False else 0


def cmd_cross_check(args) -> int:
    mada, iid = (_read_sweep(path) for path in (args.mada, args.iid))
    report = harness.cross_trend_check(mada, iid)
    files.write_text(args.out, harness.render_report(report, args.fmt))
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

    # Each option that several commands take is declared once, here.
    def command(name, func, help, data=True):
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        p.add_argument("--config", help="JSON file of flag values (flags override it)")
        if data:
            p.add_argument("--seed", type=_non_negative, default=0)
            p.add_argument("--data",
                           help="CSV file with a header row (default: built-in synthetic set)")
            p.add_argument("--response", help="name of the response column")
            p.add_argument("--task", choices=["regression", "classification"],
                           default="regression")
        return p

    def lam(p, default=0.0):
        p.add_argument("--lambda", type=float, dest="lam", default=default)

    def steps(p):
        p.add_argument("--steps", type=_count, default=AttributionConfig.steps)

    def model(p):
        p.add_argument("--model", required=True, help="model.json or checkpoint.json")
        p.add_argument("--class", type=_non_negative, dest="class_index", default=0)
        steps(p)

    def training(p):
        p.add_argument("--epochs", type=_count, default=TrainConfig.epochs)
        p.add_argument("--batch-size", type=_count, default=TrainConfig.batch_size)
        p.add_argument("--hidden-width", type=_count, default=harness.HIDDEN_WIDTH)

    def report_format(p, default="csv"):
        p.add_argument("--format", dest="fmt", choices=["csv", "json"], default=default)

    p = command("fit", cmd_fit, "closed-form linear fit")
    p.add_argument("--method", choices=["ols", "ccp", "ml2p"], default="ols")
    lam(p)

    p = command("augment", cmd_augment, "write a bootstrap-ablated synthetic CSV")
    p.add_argument("--mode", choices=MODES, required=True)
    lam(p)
    p.add_argument("--n", type=_count, default=10000)

    p = command("penalty", cmd_penalty, "penalty report for a model on a dataset")
    model(p)
    p.add_argument("--kind", choices=["ccp", "ml2p", "both"], default="both")

    p = command("train", cmd_train, "train a feed-forward network")
    p.add_argument("--test-frac", type=float, default=SplitSpec.test_fraction,
                   help="share of rows held out for testing (default %(default)s)")
    p.add_argument("--val-frac", type=float, default=SplitSpec.validation_fraction_of_train,
                   help="share of the other rows held out for validation (default %(default)s)")
    p.add_argument("--depth", type=_non_negative, default=1)
    p.add_argument("--mode", choices=["none", *MODES], default="none")
    lam(p)
    training(p)
    p.add_argument("--learning-rate", type=_positive, default=TrainConfig.learning_rate)

    p = command("attribute", cmd_attribute, "integrated-gradients attributions to CSV")
    model(p)
    p.add_argument("--baseline", default="zeros", help="zeros | means | path to a JSON vector")

    p = command("converge", cmd_converge, "Monte-Carlo equivalence check")
    p.add_argument("--theorem", type=int, choices=[1, 2], required=True)
    lam(p, 0.5)
    p.add_argument("--n-schedule", type=_parse_schedule, default="1000,10000,100000,1000000",
                   help="increasing comma list of synthetic sizes")
    p.add_argument("--seeds", type=_parse_seeds, default="3", help="count or comma list")
    report_format(p)
    low, high = harness.SLOPE_BAND
    p.add_argument("--check", nargs="?", type=_tolerance, const=harness.LINF_TOLERANCE,
                   default=False, metavar="TOLERANCE",
                   help="exit 1 unless every final-N fit is within TOLERANCE (default "
                        "%(const)s) of the closed form in L-infinity, the median L2 distance "
                        f"never grows with N, and its log-log slope against N lies in [{low}, "
                        f"{high}]; the band is set for at least 4 N values and 3 seeds, and a "
                        "2-point schedule can fail on the slope alone")

    p = command("sweep", cmd_sweep, "lambda sweep of penalties on trained models")
    p.add_argument("--mode", choices=MODES, required=True)
    p.add_argument("--depths", type=_parse_ints, default="0,1,3",
                   help="comma list of hidden-layer counts")
    p.add_argument("--lambdas", type=_parse_lambdas, default="0:0.9:0.1",
                   help="start:stop:step or comma list")
    p.add_argument("--seeds", type=_parse_seeds, default="5", help="count or comma list")
    training(p)
    steps(p)
    report_format(p)
    p.add_argument("--check", nargs="?", type=_correlation, const=harness.SPEARMAN_THRESHOLD,
                   default=False, metavar="THRESHOLD",
                   help="exit 1 if any cell failed, or if Spearman(lambda, the mode's own "
                        "penalty: CCP for mean, ML2P for iid) exceeds THRESHOLD (default "
                        "%(const)s) at some depth")

    p = command("cross-check", cmd_cross_check,
                "compare a mean-ablation sweep with a dropout sweep", data=False)
    p.add_argument("--mada", required=True, help="report of sweep --mode mean --format json")
    p.add_argument("--iid", required=True, help="report of sweep --mode iid --format json")
    report_format(p, "json")
    p.add_argument("--check", action="store_true",
                   help="exit 1 if the two sweeps are identical, or if at some depth and "
                        "output Spearman(lambda, ML2P) under mean ablation is below "
                        f"{harness.ML2P_RISE_MIN} or |CCP| under dropout is larger at the "
                        "last lambda than at the first")

    # last, so that a usage error lists the missing required flags in order
    for p in sub.choices.values():
        p.add_argument("--out", required=True)
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
        parser.exit(2, f"ablatereg {args.command}: error: --response is required with --data\n")
    inert = {"fit": ("method", "ols"), "train": ("mode", "none")}.get(args.command)
    if inert and getattr(args, inert[0]) == inert[1] and args.lam != 0:
        parser.exit(2, f"ablatereg {args.command}: error: --lambda {args.lam} has no effect "
                       f"with --{inert[0]} {inert[1]}\n")
    if "data" in args and not args.data and (args.response or args.task == "classification"):
        flag = f"--response {args.response}" if args.response else "--task classification"
        parser.exit(2, f"ablatereg {args.command}: error: {flag} has no effect without --data\n")
    if args.command in ("fit", "converge") and args.task == "classification":
        parser.exit(2, f"ablatereg {args.command}: error: --task classification does not apply: "
                       f"{args.command} fits least squares to the response\n")
    try:
        return args.func(args)
    except (SingularModelError, DatasetError, AugmentError, files.ReportError,
            nn.TrainingDivergedError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
