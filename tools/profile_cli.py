"""Per-command profile of the benchmark's ``cli`` pass.

    python3 tools/profile_cli.py [--checkout DIR] [--seed N] [--passes P] [--json FILE]

Imports ``ablatereg`` from ``DIR/src`` and the pass from ``DIR/bench``
(default: the checkout holding this script), so two checkouts can be
profiled with the same script.  BLAS and OpenMP are pinned to one thread
before numpy loads, as the benchmark does.  The full-scale inputs are made
from ``--seed``; one warm-up pass is discarded, then ``--passes`` passes run
the pass's commands one at a time through ``ablatereg.cli.main``, in this
process.

For each command it reports the minimum and median wall time over the
passes, the median minor page faults (``ru_minflt``), and the resident set
after the command and the process's peak so far, both in MB (``VmRSS`` and
``VmHWM``).  The peak is never reset, so it reads the highest point of
everything run before; its value after each command of the warm-up pass
shows which command first sets it.  The last line of standard output is the
report as one JSON object.
"""

import os

# Pin the BLAS and OpenMP pools before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402


def memory_mb() -> tuple[float, float]:
    """The current and the peak resident set of this process, in MB."""
    fields = {}
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            key, _, value = line.partition(":")
            if key in ("VmRSS", "VmHWM"):
                fields[key] = int(value.split()[0]) / 1024.0  # kB
    return fields["VmRSS"], fields["VmHWM"]


def run_command(cli, argv, target) -> dict:
    if os.path.exists(target):
        os.remove(target)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    start = time.perf_counter()
    with contextlib.redirect_stderr(io.StringIO()):  # the known failure's error line
        try:
            code = cli.main(argv + ["--out", target])
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    wall = time.perf_counter() - start
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    rss, peak = memory_mb()
    return {"code": code, "wall_s": wall, "minflt": faults, "rss_mb": rss, "peak_mb": peak}


def profile(checkout: Path, seed: int, passes: int) -> dict:
    sys.path[:0] = [str(checkout / "src"), str(checkout / "bench")]
    import workloads
    from ablatereg import cli

    if not Path(cli.__file__).resolve().is_relative_to((checkout / "src").resolve()):
        raise SystemExit(f"ablatereg was imported from {cli.__file__}, not {checkout / 'src'}")
    cfg = workloads.SCALES["full"]["cli"]
    with tempfile.TemporaryDirectory() as workdir:
        inputs = workloads.make_inputs("cli", seed, "full", workdir)
        commands = workloads.cli_commands(inputs, cfg)
        runs = {key: [] for key, _ in commands}
        pass_faults = []
        for index in range(passes + 1):  # the first pass warms up
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            for key, argv in commands:
                runs[key].append(run_command(cli, argv,
                                             os.path.join(inputs["out"], f"{key}.out")))
            if index:
                pass_faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    report = {}
    for key, (warmup, *results) in runs.items():
        walls = [r["wall_s"] for r in results]
        report[key] = {
            "codes": sorted({r["code"] for r in results}),
            "wall_s_min": round(min(walls), 4),
            "wall_s_median": round(statistics.median(walls), 4),
            "minflt_median": statistics.median(r["minflt"] for r in results),
            "rss_mb_last": round(results[-1]["rss_mb"], 1),
            "peak_mb_last": round(results[-1]["peak_mb"], 1),
            "peak_mb_warmup": round(warmup["peak_mb"], 1),
        }
    return {
        "checkout": str(checkout),
        "seed": seed,
        "passes": passes,
        "commands": report,
        "sum_of_wall_s_min": round(sum(r["wall_s_min"] for r in report.values()), 3),
        "minflt_per_pass": pass_faults,
        "peak_mb": round(memory_mb()[1], 1),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--checkout", type=Path, default=Path(__file__).resolve().parents[1])
    parser.add_argument("--seed", type=int, default=41)
    parser.add_argument("--passes", type=int, default=4)
    parser.add_argument("--json", type=Path, help="also write the report to this file")
    args = parser.parse_args(argv)
    if args.passes < 1:
        parser.error("--passes must be at least 1")
    report = profile(args.checkout.resolve(), args.seed, args.passes)
    for key, row in report["commands"].items():
        print(f"{key:14s} min {row['wall_s_min']:8.4f} s  median {row['wall_s_median']:8.4f} s"
              f"  minflt {row['minflt_median']:8.0f}  rss {row['rss_mb_last']:6.1f} MB"
              f"  peak {row['peak_mb_last']:6.1f} MB (warm-up {row['peak_mb_warmup']:6.1f})")
    text = json.dumps(report, sort_keys=True)
    if args.json:
        args.json.write_text(text + "\n", encoding="utf-8")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
