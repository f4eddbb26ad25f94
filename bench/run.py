"""Benchmark of ablatereg: one workload, one seed, one result line.

    python3 bench/run.py --workload converge|sweep|cli --seed N --seconds S \\
        --trace 0|1 [--scale full|smoke]

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src``.  The measured process is this one: BLAS and OpenMP are
pinned to one thread before numpy loads, the workload's inputs are made from
``--seed``, one warm-up pass is discarded, and passes of the workload's fixed
work repeat until ``--seconds`` have gone (at least three).  Output checks
run after the timed passes.

``--trace 0`` reports the end-to-end metrics: the median pass wall time and
CPU time, the process's peak resident set, and the median set-up time over
fresh interpreter starts.  ``--trace 1`` times untraced passes, then traced
ones, and reports the per-layer metrics (means over the traced passes).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import os

# Pin the BLAS and OpenMP pools before numpy loads, here and in every child.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import spans  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"

SETUP_STARTS = 5       # fresh interpreters per run for setup_s
IMPORTTIME_STARTS = 3  # fresh interpreters per traced run for the scipy.stats share
MIN_PASSES = 3         # timed passes per run, whatever --seconds says
MIN_TRACE_PASSES = 2   # untraced and traced passes each, in a traced run
CHILD_TIMEOUT_S = 60


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def load_program():
    """Import ablatereg from this checkout's src, and nothing else."""
    sys.path.insert(0, str(SRC))
    try:
        import ablatereg
    except ImportError as err:
        raise BenchError(f"cannot import ablatereg from {SRC}: {err}") from None
    if not Path(ablatereg.__file__).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"ablatereg was imported from {ablatereg.__file__}, not {SRC}")


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


# ---------------------------------------------------------------------------
# Environment report
# ---------------------------------------------------------------------------


def blas_threads():
    """Thread count that the OpenBLAS bundled with numpy reports."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libdir / "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def environment() -> dict:
    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
        sha = done.stdout.strip() or sha
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "cpu_count": os.cpu_count(),
    }


# ---------------------------------------------------------------------------
# Set-up: fresh interpreter starts
# ---------------------------------------------------------------------------


def setup_starts(workload, seed, scale, workdir) -> list[dict]:
    """Start SETUP_STARTS fresh interpreters that import ablatereg and make
    the inputs; each record holds the outside wall time and the inside split."""
    records = []
    for i in range(SETUP_STARTS):
        probe_dir = workdir / f"probe{i}"
        probe_dir.mkdir()
        cmd = [sys.executable, str(BENCH / "probe.py"), "--workload", workload,
               "--seed", str(seed), "--scale", scale, "--workdir", str(probe_dir)]
        t0 = time.perf_counter()
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        wall = time.perf_counter() - t0
        if done.returncode != 0:
            raise BenchError(f"set-up probe failed:\n{done.stderr[-2000:]}")
        record = json.loads(done.stdout.strip().splitlines()[-1])
        record["wall_s"] = wall
        records.append(record)
        shutil.rmtree(probe_dir)
    return records


def scipy_stats_import_s() -> float:
    """The scipy.stats share of ``import ablatereg``, from -X importtime."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import ablatereg"
    shares = []
    for _ in range(IMPORTTIME_STARTS):
        done = subprocess.run([sys.executable, "-X", "importtime", "-c", code],
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        if done.returncode != 0:
            raise BenchError(f"import probe failed:\n{done.stderr[-2000:]}")
        shares.append(importtime_cumulative(done.stderr, "scipy.stats"))
    return statistics.median(shares)


def importtime_cumulative(report: str, module: str) -> float:
    """Cumulative seconds of ``module`` in a -X importtime report (0 if absent)."""
    for line in report.splitlines():
        m = re.match(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|\s*(.+)$", line)
        if m and m.group(3).strip() == module:
            return int(m.group(2)) / 1e6
    return 0.0


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------


def timed_pass(workloads, workload, inputs, scale):
    cpu0 = cpu_seconds()
    t0 = time.perf_counter()
    result = workloads.run_pass(workload, inputs, scale)
    wall = time.perf_counter() - t0
    return result, wall, cpu_seconds() - cpu0


def repeat(workloads, workload, inputs, scale, seconds, min_passes):
    """Timed passes until ``seconds`` have gone and at least ``min_passes`` ran."""
    passes = []
    start = time.perf_counter()
    while len(passes) < min_passes or time.perf_counter() - start < seconds:
        passes.append(timed_pass(workloads, workload, inputs, scale))
    return passes


def traced_passes(workloads, workload, inputs, scale, seconds):
    tracer = spans.Tracer()
    tracer.install()
    recorded = []
    try:
        start = time.perf_counter()
        while len(recorded) < MIN_TRACE_PASSES or time.perf_counter() - start < seconds:
            tracer.reset()
            t0 = time.perf_counter()
            result = workloads.run_pass(workload, inputs, scale)
            wall = time.perf_counter() - t0
            recorded.append((result, wall, tracer.spans, dict(tracer.counts)))
    finally:
        tracer.uninstall()
    return recorded


def per_layer_metrics(recorded, untraced_walls, setup) -> tuple[dict, list[str]]:
    """Means over the traced passes (sums stay additive), plus set-up and
    tracing overhead; also the passes whose layer times do not add up."""
    problems = []
    per_pass = []
    for i, (result, wall, pass_spans, counts) in enumerate(recorded):
        m = spans.pass_metrics(pass_spans, counts, wall, {"bytes_written": result.bytes_written})
        err = spans.identity_error(m)
        if err > 1e-9 * max(1.0, wall):
            problems.append(f"traced pass {i}: layer self times + outside differ from wall by {err:.3g}")
        per_pass.append(m)
    metrics = {key: statistics.fmean(m[key] for m in per_pass) for key in per_pass[0]}
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median(untraced_walls)
    metrics["setup.import_s"] = statistics.median(r["import_s"] for r in setup)
    metrics["setup.inputs_s"] = statistics.median(r["inputs_s"] for r in setup)
    return metrics, problems


def write_spans(path, recorded) -> None:
    payload = [{"wall_s": wall, "spans": pass_spans} for _, wall, pass_spans, _ in recorded]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"columns": ["name", "start", "end", "parent"], "passes": payload}, fh)


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------


def run(args) -> dict:
    load_program()
    import checks
    import workloads

    print(json.dumps({"env": environment()}), flush=True)
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        setup = setup_starts(args.workload, args.seed, args.scale, workdir)
        scipy_share = scipy_stats_import_s() if args.trace else None

        inputs = workloads.make_inputs(args.workload, args.seed, args.scale, str(workdir))
        # the sweep's completeness check needs the program's attribution calls
        capture = (checks.capture_attributions() if args.workload == "sweep"
                   else contextlib.nullcontext([]))
        with capture as captured:
            warm = workloads.run_pass(args.workload, inputs, args.scale)

        if args.trace:
            untraced = repeat(workloads, args.workload, inputs, args.scale,
                              args.seconds / 2, MIN_TRACE_PASSES)
            recorded = traced_passes(workloads, args.workload, inputs, args.scale,
                                     args.seconds / 2)
            results = [r for r, *_ in untraced] + [r for r, *_ in recorded]
            metrics, problems = per_layer_metrics(recorded, [w for _, w, _ in untraced], setup)
            metrics["setup.import_scipy_stats_s"] = scipy_share
            write_spans(WORK / f"spans-{args.workload}-seed{args.seed}.json", recorded)
        else:
            passes = repeat(workloads, args.workload, inputs, args.scale,
                            args.seconds, MIN_PASSES)
            results = [r for r, _, _ in passes]
            print(json.dumps({"passes": {"wall_s": [w for _, w, _ in passes],
                                         "cpu_s": [c for _, _, c in passes]}}), flush=True)
            metrics = {
                "wall_s": statistics.median(w for _, w, _ in passes),
                "cpu_s": statistics.median(c for _, _, c in passes),
                "peak_rss_mb": peak_rss_mb(),
                "setup_s": statistics.median(r["wall_s"] for r in setup),
            }
            problems = []

        # checks run after every timed pass, so they add no time or memory
        problems += checks.check_identical(f"{args.workload} re-runs",
                                           [r.digest for r in results], warm.digest)
        problems += checks.workload_problems(args.workload, inputs, warm, results[-1],
                                             workloads.SCALES[args.scale][args.workload],
                                             captured)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    everything = [warm] + results
    # the metric names and units are the ones BENCHMARK.json declares
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    return {
        "correct": not problems,
        "attempted": sum(r.attempted for r in everything),
        "failed": sum(r.failed for r in everything),
        "metrics": {m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]}
                    for m in declared},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["converge", "sweep", "cli"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--scale", choices=["full", "smoke"], default="full")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    try:
        result = run(args)
    except BenchError as err:
        print(f"benchmark cannot run: {err}", file=sys.stderr)
        return 2
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
