"""Run one SRKD benchmark workload in this process and print its result.

    python3 bench/run.py --workload distill_full --seed 0 --seconds 15 --trace 0

With --trace 0 it prints the end-to-end metrics, with --trace 1 the
per-layer ones. The last stdout line is the result object
{"correct", "attempted", "failed", "metrics"}; the line before it is a
report with the checked outputs and the provenance of the run.
The package is imported from ./src of the checkout; nothing is installed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _cap_blas_threads() -> None:
    """BLAS threads at most the cores this process may run on; must run
    before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        value = os.environ.get(var, "")
        if not (value.isdigit() and 1 <= int(value) <= nproc):
            os.environ[var] = str(nproc)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _cap_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import harness
    except ImportError as exc:
        print(json.dumps({"error": f"cannot import the srkd package from "
                                   f"{ROOT / 'src'}: {exc}"}), file=sys.stderr)
        return 2
    if args.workload not in harness.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(harness.WORKLOADS)}")
    result, report = harness.run_workload(args.workload, args.seed, args.seconds,
                                          bool(args.trace))
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
