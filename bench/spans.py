"""Span tracing from outside the program, and the per-layer arithmetic.

The tracer replaces public functions of ``ablatereg`` with timing wrappers at
every module attribute that holds them, which is where their callers look
them up (``harness.build_augmented``, ``cli.fit_ccp``, ``_streams.stream``,
...).  Each call records a span ``[name, start, end, parent]`` in memory; the
spans are written out when the run ends.  A span name is
``<layer>.<function>``, the layer being the module that defines the
function, so that every span's self time belongs to exactly one layer.

Identity kept by :func:`layer_times`: the layers' self times plus the time
outside every span add up to the pass's wall time.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

# Traced functions by defining module (relative to the package).  A span is
# named "<layer>.<function>", the layer being the module without its leading
# underscore.
TRACED = {
    "augment": ("build_augmented", "ablated_copy", "batch_masks"),
    "linear": ("fit_ols", "fit_ccp", "fit_ml2p"),
    "harness": ("converge_theorem1", "converge_theorem2", "check_moment_limits",
                "lambda_sweep", "penalty_trend", "cross_trend_check", "render_report",
                "emit_report"),
    "nn": ("init", "train", "param_gradients", "forward", "input_gradients", "evaluate"),
    "attribution": ("integrated_gradients",),
    "penalty": ("contributions_linear", "ccp_variance_form", "ccp_from_attributions", "ml2p",
                "ml2p_from_avg_gradients"),
    "dataset": ("load_csv", "one_hot_encode", "split", "standardize", "feature_stats"),
    "cli": ("cmd_fit", "cmd_augment", "cmd_penalty", "cmd_train", "cmd_attribute",
            "cmd_converge", "cmd_sweep", "cmd_cross_check"),
    "_streams": ("stream",),
}

LAYERS = ("augment", "linear", "harness", "nn", "attribution", "penalty",
          "dataset", "cli", "streams")

PACKAGE = "ablatereg"


def package_modules() -> list:
    """The loaded modules of the package, the package itself included."""
    prefix = PACKAGE + "."
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(prefix))]


def patch_everywhere(original, replacement) -> list:
    """Point every package-module attribute that holds ``original`` at
    ``replacement``; returns the (module, attribute) pairs that were changed."""
    changed = []
    for module in package_modules():
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                changed.append((module, attr))
    return changed


def restore(changed: list, original) -> None:
    for module, attr in changed:
        setattr(module, attr, original)


# ---------------------------------------------------------------------------
# Counters computed from the arguments and results of traced calls
# ---------------------------------------------------------------------------


def _matmul_terms(model) -> int:
    return sum(int(w.shape[0]) * int(w.shape[1]) for w in model.weights)


def _rows(x) -> int:
    shape = getattr(x, "shape", None)
    if shape is None or len(shape) < 2:
        return 1
    return int(shape[0])


def _count_forward(counts, args, kwargs, result):
    counts["flop"] += 2.0 * _rows(args[1]) * _matmul_terms(args[0])


def _count_param_gradients(counts, args, kwargs, result):
    # backprop: weight gradients on every layer, activation gradients below the top
    model = args[0]
    terms = _matmul_terms(model)
    top = int(model.weights[0].shape[0]) * int(model.weights[0].shape[1])
    counts["flop"] += 2.0 * _rows(args[1]) * (2 * terms - top)


def _count_input_gradients(counts, args, kwargs, result):
    counts["flop"] += 4.0 * _rows(args[1]) * _matmul_terms(args[0])


def _count_train(counts, args, kwargs, result):
    counts["epochs"] += len(result[1].epochs)


def _count_integrated_gradients(counts, args, kwargs, result):
    cfg = args[2] if len(args) > 2 else kwargs.get("cfg")
    steps = 100 if cfg is None else cfg.steps + (cfg.quadrature == "trapezoid")
    counts["path_points"] += _rows(args[1]) * steps


def _count_build_augmented(counts, args, kwargs, result):
    counts["rows_materialized"] += result.n
    counts["bytes_materialized"] += result.features.nbytes + result.response.nbytes


def _count_load_csv(counts, args, kwargs, result):
    counts["rows_parsed"] += result.n + result.n_dropped
    counts["rows_dropped"] += result.n_dropped


COUNTERS = {
    "nn.forward": _count_forward,
    "nn.param_gradients": _count_param_gradients,
    "nn.input_gradients": _count_input_gradients,
    "nn.train": _count_train,
    "attribution.integrated_gradients": _count_integrated_gradients,
    "augment.build_augmented": _count_build_augmented,
    "dataset.load_csv": _count_load_csv,
}


# ---------------------------------------------------------------------------
# Tracer
# ---------------------------------------------------------------------------


class Tracer:
    """Records spans of the wrapped functions while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._installed: list = []

    def reset(self) -> None:
        """Start a new pass: forget spans and counts."""
        self.spans = []
        self.counts = defaultdict(float)
        self._stack = []

    def _wrap(self, name, fn):
        clock = time.perf_counter
        counter = COUNTERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans = tracer.spans
            stack = tracer._stack
            index = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if counter is not None:
                counter(tracer.counts, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        for module_name, functions in TRACED.items():
            module = importlib.import_module(f"{PACKAGE}.{module_name}")
            for attr in functions:
                original = getattr(module, attr, None)
                if original is None:  # a later version may have removed it
                    continue
                name = f"{module_name.lstrip('_')}.{attr}"
                changed = patch_everywhere(original, self._wrap(name, original))
                self._installed.append((changed, original))

    def uninstall(self) -> None:
        for changed, original in self._installed:
            restore(changed, original)
        self._installed = []


# ---------------------------------------------------------------------------
# Arithmetic on one pass's spans
# ---------------------------------------------------------------------------


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_times(spans, wall: float) -> tuple[dict, float]:
    """Self time per layer, and the pass time that no span covers."""
    own = self_times(spans)
    per_layer = {layer: 0.0 for layer in LAYERS}
    for (name, *_), t in zip(spans, own):
        layer = name.split(".", 1)[0]
        per_layer[layer] = per_layer.get(layer, 0.0) + t
    covered = sum(end - start for _, start, end, parent in spans if parent < 0)
    return per_layer, wall - covered


def inclusive(spans, names) -> float:
    """Total duration of spans named in ``names`` that have no ancestor
    named in ``names`` (so nested calls are not counted twice)."""
    names = set(names)
    total = 0.0
    for name, start, end, parent in spans:
        if name not in names:
            continue
        while parent >= 0 and spans[parent][0] not in names:
            parent = spans[parent][3]
        if parent < 0:
            total += end - start
    return total


def self_of(spans, names) -> float:
    names = set(names)
    return sum(t for (name, *_), t in zip(spans, self_times(spans)) if name in names)


def count(spans, name, parent_name=None) -> int:
    return sum(1 for n, _, _, p in spans
               if n == name and (parent_name is None or (p >= 0 and spans[p][0] == parent_name)))


def child_time(spans, name, parent_name) -> float:
    return sum(end - start for n, start, end, p in spans
               if n == name and p >= 0 and spans[p][0] == parent_name)


CLI_COMMANDS = tuple(f"cli.{fn}" for fn in TRACED["cli"])
PENALTY = tuple(f"penalty.{fn}" for fn in TRACED["penalty"])


def pass_metrics(spans, counts, wall: float, extra_counts=None) -> dict:
    """Every per-layer figure of one traced pass (seconds, counts, GFLOP)."""
    counts = dict(counts)
    counts.update(extra_counts or {})
    per_layer, outside = layer_times(spans, wall)
    m = {
        "augment.build_augmented_s": inclusive(spans, ["augment.build_augmented"]),
        "augment.rows_materialized": counts.get("rows_materialized", 0.0),
        "augment.mb_materialized": counts.get("bytes_materialized", 0.0) / 1e6,
        "augment.batch_masks_s": inclusive(spans, ["augment.batch_masks"]),
        "augment.batch_masks_calls": count(spans, "augment.batch_masks"),
        "augment.ablated_copy_s": inclusive(spans, ["augment.ablated_copy"]),
        "linear.fit_ols_s": inclusive(spans, ["linear.fit_ols"]),
        "linear.fit_ols_calls": count(spans, "linear.fit_ols"),
        "linear.closed_form_s": inclusive(spans, ["linear.fit_ccp", "linear.fit_ml2p"]),
        "harness.converge_self_s": self_of(
            spans, ["harness.converge_theorem1", "harness.converge_theorem2"]),
        "harness.check_moment_limits_self_s": self_of(spans, ["harness.check_moment_limits"]),
        "harness.sweep_self_s": self_of(spans, ["harness.lambda_sweep"]),
        "harness.trend_s": inclusive(spans, ["harness.penalty_trend", "harness.cross_trend_check"]),
        "harness.render_report_s": inclusive(spans, ["harness.render_report"]),
        "nn.train_s": inclusive(spans, ["nn.train"]),
        "nn.train_self_s": self_of(spans, ["nn.train"]),
        "nn.param_gradients_s": inclusive(spans, ["nn.param_gradients"]),
        "nn.steps": count(spans, "nn.param_gradients", "nn.train"),
        "nn.epochs": counts.get("epochs", 0.0),
        "nn.epoch_forward_s": child_time(spans, "nn.forward", "nn.train"),
        "nn.evaluate_s": inclusive(spans, ["nn.evaluate"]),
        "nn.gflop": counts.get("flop", 0.0) / 1e9,
        "attribution.integrated_gradients_s": inclusive(spans, ["attribution.integrated_gradients"]),
        "attribution.input_gradients_s": inclusive(spans, ["nn.input_gradients"]),
        "attribution.path_points": counts.get("path_points", 0.0),
        "penalty.total_s": inclusive(spans, PENALTY),
        "dataset.load_csv_s": inclusive(spans, ["dataset.load_csv"]),
        "dataset.rows_parsed": counts.get("rows_parsed", 0.0),
        "dataset.rows_dropped": counts.get("rows_dropped", 0.0),
        "dataset.one_hot_encode_s": inclusive(spans, ["dataset.one_hot_encode"]),
        "dataset.prep_s": inclusive(
            spans, ["dataset.split", "dataset.standardize", "dataset.feature_stats"]),
        "cli.command_self_s": self_of(spans, CLI_COMMANDS),
        "cli.bytes_written": counts.get("bytes_written", 0.0),
        "streams.stream_calls": count(spans, "streams.stream"),
        "streams.stream_s": inclusive(spans, ["streams.stream"]),
        "trace.wall_s": wall,
        "trace.outside_spans_s": outside,
        "trace.spans": len(spans),
    }
    for layer, t in per_layer.items():
        m[f"{layer}.self_s"] = t
    return m


def identity_error(metrics: dict) -> float:
    """|sum of layer self times + outside time - wall| for one pass's figures."""
    total = sum(metrics[f"{layer}.self_s"] for layer in LAYERS) + metrics["trace.outside_spans_s"]
    return abs(total - metrics["trace.wall_s"])
