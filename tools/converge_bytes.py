"""One digest per path over the Monte-Carlo, solve and CLI outputs of a tree.

    python3 tools/converge_bytes.py SRC [--expect FILE]

Imports ``ablatereg`` from the directory SRC (a checkout's ``src``) and
prints, for a counted design (200x3) and a rows design (10,000x9), one
sha256 over the CSV converge reports of both theorems and the moment-check
sigmas of both modes, each line the design's name and its digest.  Each
design is run as generated and with its features shifted by 1e6, at N from
under one block to several blocks.  A ``closed forms`` line per design
digests the ``repr`` of the beta and intercept of ``fit_ols``, and of
``fit_ccp`` and ``fit_ml2p`` at lam 0, 0.3 and 0.9, on the design as
generated, shifted by 1e6, and with column 0 scaled by 2**20; a fit that
raises contributes its message instead.  A ``penalty cli`` line per design
digests the files that ``cli.main`` writes, on a CSV written from the
design, for ``fit --method ccp --lambda 0.5`` then ``penalty`` on that
model, ``train --depth 1 --epochs 3`` then ``penalty`` on that checkpoint,
``sweep --mode iid --depths 0,1 --lambdas 0,0.5 --epochs 2 --format json``,
``train --mode mean --lambda 0.3 --depth 1 --epochs 3`` then
``attribute --steps 20`` on that checkpoint, and, on a 3-class CSV of the
design's first 300 rows (the response's tertiles as labels), ``train --task
classification --mode iid --lambda 0.3 --depth 2 --epochs 3`` then
``attribute --class 2`` on that checkpoint.  An ``other cli`` line per
design digests, on the same CSV, ``augment --mode mean`` and ``augment
--mode iid`` (``--lambda 0.3 --n 5000``), the ``sweep`` reports of both
modes (``--depths 0,1 --lambdas 0,0.5 --epochs 2``) in JSON and in the
default CSV, and ``cross-check`` on the JSON ones in JSON and in CSV, so
that the two lines cover all eight commands.  Two trees whose digests for a
design agree give the same bytes on all of its runs.
BLAS and OpenMP are pinned to one thread before numpy loads, as the
benchmark does.

The first line is the environment the digests depend on: numpy's version,
its BLAS library and version, and the core type and thread count that the
library reports at run time.  ``--expect FILE`` compares the output with
FILE, a saved output of this tool (``tools/converge_bytes.expected``): it
exits 2 before running anything when FILE holds another environment, and
exits 1 after a ``DIFFERS:`` line on stderr for each line name whose digest
differs from FILE's.
"""

import os

# Pin the BLAS and OpenMP pools before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import ctypes  # noqa: E402
import dataclasses  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import logging  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

import numpy as np  # noqa: E402


def environment() -> str:
    """numpy's version, its BLAS build, and the core type and thread count
    that the OpenBLAS bundled with numpy reports, as one line."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    found = {"core": "unknown", "threads": "unknown"}
    libdir = os.path.join(os.path.dirname(os.path.dirname(os.path.realpath(np.__file__))),
                          "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libdir, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for key, restype, name in (("core", ctypes.c_char_p, "get_corename"),
                                   ("threads", ctypes.c_int, "get_num_threads")):
            for symbol in (f"scipy_openblas_{name}64_", f"openblas_{name}64_",
                           f"openblas_{name}"):
                getter = getattr(lib, symbol, None)
                if getter is not None:
                    getter.restype, getter.argtypes = restype, []
                    value = getter()
                    found[key] = value.decode() if isinstance(value, bytes) else value
                    break
    return (f"environment: numpy {np.__version__}, {blas.get('name')} {blas.get('version')}, "
            f"core {found['core']}, {found['threads']} BLAS thread(s)")


def closed_forms_digest(d, linear) -> str:
    """sha256 over the closed-form fits of ``d`` and two rescalings of it."""
    column0 = [2.0**20] + [1.0] * (d.k - 1)
    fits = [(linear.fit_ols, None)] + [
        (fit, lam) for fit in (linear.fit_ccp, linear.fit_ml2p) for lam in (0.0, 0.3, 0.9)
    ]
    digest = hashlib.sha256()
    for features in (d.features, d.features + 1e6, d.features * column0):
        variant = dataclasses.replace(d, features=features)
        for fit, lam in fits:
            try:
                model = fit(variant) if lam is None else fit(variant, lam).model
                text = repr(model.beta.tolist()) + repr(model.intercept)
            except linear.SingularModelError as err:
                text = str(err)
            digest.update(text.encode() + b"\n")
    return digest.hexdigest()


def write_csv(path, d, rows, response) -> None:
    """Write the features of ``d``'s first ``rows`` rows and ``response`` as
    a CSV whose response column is ``y``."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join([*d.column_names, "y"]) + "\n")
        for row, y in zip(d.features[:rows].tolist(), response):
            fh.write(",".join(map(repr, [*row, y])) + "\n")


def run_digest(cli, tmp, commands) -> str:
    """sha256 over the files that ``cli.main`` writes in ``tmp`` for
    ``commands``, each a (source CSV or None, file name, argv) triple; a
    source is passed as ``--data`` with the response ``y``."""
    digest = hashlib.sha256()
    for source, name, command in commands:
        out = os.path.join(tmp, name)
        data = [] if source is None else ["--data", source, "--response", "y"]
        code = cli.main([*command, *data, "--out", out])
        if code != 0:
            raise RuntimeError(f"{command[0]} exited {code}")
        with open(out, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


def penalty_cli_digest(d, cli) -> str:
    """sha256 over the files the CLI writes for the fit, train, penalty,
    sweep and attribute commands on a CSV of ``d``, and for a 3-class train
    and attribute on a CSV of its first 300 rows."""
    with tempfile.TemporaryDirectory() as tmp:
        data = os.path.join(tmp, "data.csv")
        write_csv(data, d, d.n, d.response.tolist())
        classes = os.path.join(tmp, "classes.csv")
        y = d.response[:300]
        write_csv(classes, d, 300,
                  [f"c{c}" for c in np.searchsorted(np.quantile(y, [1 / 3, 2 / 3]), y)])
        commands = [
            (data, "model.json", ["fit", "--method", "ccp", "--lambda", "0.5"]),
            (data, "model_penalty.json", ["penalty", "--model", os.path.join(tmp, "model.json")]),
            (data, "checkpoint.json", ["train", "--depth", "1", "--epochs", "3"]),
            (data, "checkpoint_penalty.json",
             ["penalty", "--model", os.path.join(tmp, "checkpoint.json")]),
            (data, "sweep.json", ["sweep", "--mode", "iid", "--depths", "0,1", "--lambdas",
                                  "0,0.5", "--epochs", "2", "--format", "json"]),
            (data, "checkpoint_mean.json", ["train", "--mode", "mean", "--lambda", "0.3",
                                            "--depth", "1", "--epochs", "3"]),
            (data, "attributions.csv", ["attribute", "--model",
                                        os.path.join(tmp, "checkpoint_mean.json"),
                                        "--steps", "20"]),
            (classes, "checkpoint_classes.json",
             ["train", "--task", "classification", "--mode", "iid", "--lambda", "0.3",
              "--depth", "2", "--epochs", "3"]),
            (classes, "attributions_classes.csv",
             ["attribute", "--task", "classification", "--model",
              os.path.join(tmp, "checkpoint_classes.json"), "--class", "2"]),
        ]
        return run_digest(cli, tmp, commands)


def other_cli_digest(d, cli) -> str:
    """sha256 over the files the CLI writes for the augment commands, the
    sweeps of both modes and cross-check on a CSV of ``d``."""
    with tempfile.TemporaryDirectory() as tmp:
        data = os.path.join(tmp, "data.csv")
        write_csv(data, d, d.n, d.response.tolist())
        sweep = ["--depths", "0,1", "--lambdas", "0,0.5", "--epochs", "2"]
        reports = ["--mada", os.path.join(tmp, "sweep_mean.json"),
                   "--iid", os.path.join(tmp, "sweep_iid.json")]
        commands = [
            *((data, f"augment_{mode}.csv",
               ["augment", "--mode", mode, "--lambda", "0.3", "--n", "5000"])
              for mode in ("mean", "iid")),
            *((data, f"sweep_{mode}.json", ["sweep", "--mode", mode, *sweep, "--format", "json"])
              for mode in ("mean", "iid")),
            *((data, f"sweep_{mode}.csv", ["sweep", "--mode", mode, *sweep])
              for mode in ("mean", "iid")),
            *((None, f"cross.{fmt}", ["cross-check", *reports, "--format", fmt])
              for fmt in ("json", "csv")),
        ]
        return run_digest(cli, tmp, commands)


def digest_lines(src):
    """Yield the output lines for the ``ablatereg`` in the directory ``src``."""
    sys.path.insert(0, os.path.abspath(src))
    from ablatereg import cli, harness, linear
    from ablatereg.augment import BLOCK_ROWS
    from ablatereg.dataset import synth_correlated

    designs = {
        "counted 200x3": synth_correlated(200, 3, 0.8, (1.0, -2.0, 3.0), 1.0, seed=0),
        "rows 10000x9": synth_correlated(10_000, 9, 0.6, [(-1.0) ** j * (1 + j / 4)
                                                          for j in range(9)], 1.0, seed=1),
    }
    schedule = (1000, BLOCK_ROWS, 3 * BLOCK_ROWS + 17)
    for name, d in designs.items():
        digest = hashlib.sha256()
        for shift in (0.0, 1e6):
            shifted = dataclasses.replace(d, features=d.features + shift)
            for converge in (harness.converge_theorem1, harness.converge_theorem2):
                run = converge(shifted, 0.5, schedule, seeds=(0, 1))
                digest.update(harness.render_report(run, "csv").encode())
            for mode in ("mean", "iid"):
                check = harness.check_moment_limits(shifted, mode, 0.5, schedule[-1], seed=2)
                digest.update(check.gram_sigmas.tobytes() + check.cross_sigmas.tobytes())
            print(f"{name}, shift {shift:g}: done", file=sys.stderr)
        yield f"{name}: {digest.hexdigest()}"
    for name, d in designs.items():
        yield f"closed forms, {name}: {closed_forms_digest(d, linear)}"
    logging.getLogger("ablatereg").setLevel(logging.WARNING)
    for name, d in designs.items():
        yield f"penalty cli, {name}: {penalty_cli_digest(d, cli)}"
    for name, d in designs.items():
        yield f"other cli, {name}: {other_cli_digest(d, cli)}"


def main(argv) -> int:
    if len(argv) not in (1, 3) or (len(argv) == 3 and argv[1] != "--expect"):
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    expected = None
    if len(argv) == 3:
        with open(argv[2], encoding="utf-8") as fh:
            expected = fh.read().splitlines()
    lines = [environment()]
    print(lines[0], flush=True)
    if expected is not None and expected[:1] != lines:
        print(f"{argv[2]} holds another environment; the digests are not comparable",
              file=sys.stderr)
        return 2
    for line in digest_lines(argv[0]):
        print(line, flush=True)
        lines.append(line)
    if expected is None:
        return 0
    want, got = (dict(line.rpartition(": ")[::2] for line in text) for text in (expected, lines))
    differ = [name for name in {**want, **got} if want.get(name) != got.get(name)]
    for name in differ:
        print(f"DIFFERS: {name}: {argv[2]} holds {want.get(name)}, this tree gives "
              f"{got.get(name)}", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
