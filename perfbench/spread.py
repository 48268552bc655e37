"""Measure the benchmark's run-to-run spread and record it in spread.json.

    python3 perfbench/spread.py --runs 10 [--workload certify ...]

Runs `run.py --trace 0` once per seed (seeds 1..runs by default) for each
workload, one run after another, and reports for every end-to-end metric
its median and its spread: the distance between the first and third
quartile of the runs as a share of their median. If spread.json already
holds medians for a workload, the shift of the new median against the
recorded one is printed too, so that two sets of runs can be compared.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPREAD = HERE / "spread.json"


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--workload", action="append", help="default: every workload")
    args = p.parse_args()
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = args.workload or [w["name"] for w in bench["workloads"]]
    recorded = json.loads(SPREAD.read_text()) if SPREAD.exists() else {}
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for workload in names:
        values: dict[str, list[float]] = {}
        seeds = list(range(args.first_seed, args.first_seed + args.runs))
        for seed in seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            out = subprocess.run(cmd, capture_output=True, text=True, check=True, cwd=HERE.parent)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if result["failed"]:
                print(f"{workload} seed {seed}: {result['failed']} failed ops", file=sys.stderr)
                return 1
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        entry = {"seeds": seeds, "python": platform.python_version(), "nproc": os.cpu_count(),
                 "measured": time.strftime("%Y-%m-%d"), "values": values, "median": {}, "spread": {}}
        previous = recorded.get(workload, {}).get("median", {})
        for name, vals in values.items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            entry["median"][name] = med
            entry["spread"][name] = (q3 - q1) / med
            shift = f" shift {med / previous[name] - 1:+.3f}" if name in previous else ""
            print(f"{workload} {name}: median {med:.6g} spread {(q3 - q1) / med:.3f} "
                  f"(bound {bounds[name]}){shift}")
        recorded[workload] = entry
        SPREAD.write_text(json.dumps(recorded, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
