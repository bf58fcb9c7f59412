"""Stage benchmark of the fformation pipeline: train, detect, evaluate.

    python3 bench/run.py --workload {corpus,crowd,cli} [--seed N]
                         [--seconds S] [--trace 0|1]

Run it from the repository root; the package is imported from ``src/``.
The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics, or
with ``--trace 1`` the per-layer ones, whose spans are also written to
``bench/out/``. Diagnostics and the detection digests go to stderr.
The exit status is 0 when every check passed. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"


def _non_negative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text}")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Stage benchmark of the fformation pipeline.")
    parser.add_argument("--workload", required=True, choices=("corpus", "crowd", "cli"))
    parser.add_argument("--seed", type=_non_negative, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # One BLAS thread, set before numpy loads, so that the timings do not
    # depend on what else the machine's cores are running.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if not (SRC / "fformation" / "__init__.py").is_file():
        print(f"error: no fformation package in {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    import workloads

    result = workloads.run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
