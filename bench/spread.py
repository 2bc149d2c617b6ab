"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 bench/spread.py --workloads distill_full eval_noise --seeds 10 \
        --out bench/baseline/set1.json

Each run is `bench/run.py --trace 0` in a fresh process, one after another,
at seeds 0 to --seeds - 1 and the `run_seconds` of BENCHMARK.json. For each
workload and metric it reports the median, the quartiles from
`statistics.quantiles(values, n=4)` and their distance as a share of the
median, next to the bound BENCHMARK.json allows.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180,
                          check=True)
    lines = proc.stdout.strip().splitlines()
    return {"seed": seed, "report": json.loads(lines[-2])["report"],
            "result": json.loads(lines[-1])}


def summarise(runs: list[dict], bounds: dict) -> dict:
    out = {}
    for name in runs[0]["result"]["metrics"]:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        out[name] = {"median": med, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / med if med else None,
                     "bound": bounds.get(name)}
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", nargs="+", required=True)
    p.add_argument("--seeds", type=int, default=10, help="number of seeds, from 0")
    p.add_argument("--out", type=Path)
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    for workload in args.workloads:
        runs = [run_once(workload, s, spec["run_seconds"]) for s in range(args.seeds)]
        summary[workload] = {"runs": runs, "summary": summarise(runs, bounds)}
        for name, row in summary[workload]["summary"].items():
            spread = "-" if row["spread"] is None else f"{row['spread']:.4f}"
            print(f"{workload:13s} {name:24s} median {row['median']:.6g} "
                  f"spread {spread} bound {row['bound']}", flush=True)
        failed = sum(r["result"]["failed"] for r in runs)
        print(f"{workload:13s} runs {len(runs)} failed checks {failed}", flush=True)
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
