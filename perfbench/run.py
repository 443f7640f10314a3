"""Command-line entry point of the repository benchmark.

Run from the repository root::

    python3 perfbench/run.py --workload serve-short --seed 1 --seconds 25 --trace 0

The program is imported from ``src/`` next to this directory; nothing is
installed.  Report lines go to standard output first; the last line is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
the per-layer ledger.  ``--quick`` shrinks every workload to seconds, for
the benchmark's own tests.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads: a workload runs only the
# threads it starts itself, and the training learners stay single-core.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"


def _parse(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds < 0:
        parser.error("--seconds must be >= 0")
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure at {SRC}/repro", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench import bench

    work_dir = WORK_ROOT / str(os.getpid())
    try:
        result, report = bench.run(
            args.workload, args.seed, args.seconds, bool(args.trace),
            bench.QUICK if args.quick else bench.Sizes(), ROOT, work_dir,
        )
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass
    for line in report:
        print(line)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
