"""Set-up probe: a fresh interpreter imports ``ablatereg`` and makes one
workload's inputs, then prints how long each step took as one JSON line.

    python3 bench/probe.py --workload cli --seed 1 --scale full --workdir DIR

``run.py`` starts it several times and times each start from the outside.
"""

import argparse
import json
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", default="full")
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import ablatereg

    import_s = time.perf_counter() - t0
    if not Path(ablatereg.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"ablatereg imported from {ablatereg.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads  # also loads ablatereg.cli, which the package does not import

    t1 = time.perf_counter()
    workloads.make_inputs(args.workload, args.seed, args.scale, args.workdir)
    inputs_s = time.perf_counter() - t1
    print(json.dumps({"import_s": import_s, "inputs_s": inputs_s}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
