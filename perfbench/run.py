"""slflab benchmark: one workload per call, measured end to end or traced.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 40 --trace 0

Workloads (see workloads.py and NOTES.md for why each was chosen):
  certify  create_valid_assignment + verify_certificate at one event time
  sweep    simulate(policy) + simulate(srpt) + exact flow ratio, exp n = 200
  reduce   reduction_check on one instance, n in 8..16

Each workload is a closed loop: one process, one client, the next op issued
after the previous one returns. With --trace 0 the run reports the
end-to-end metrics of BENCHMARK.json from untraced processes; with
--trace 1 it reports the per-layer metrics from a traced process and the
tracing overhead against an untraced process doing the same ops. The last
line of output is one JSON object; the lines before it repeat every metric
by name with its unit, and record the environment.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "slflab"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

DEADLINE_S = 170.0  # whole run, including every child process

UNITS = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    pass


def child(args: list[str], deadline: float) -> dict:
    """Run one worker process to completion and return its JSON result."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=timeout,
    )
    if proc.returncode != 0:
        raise BenchError(f"worker {args} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def p90(values: list[float]) -> tuple[float, int]:
    """Nearest-rank 90th percentile and the number of samples above it."""
    ordered = sorted(values)
    rank = math.ceil(0.9 * len(ordered))
    return ordered[rank - 1], len(ordered) - rank


def op_means(latencies: list[float], pool: int) -> list[float]:
    """Each pool op's mean latency over its repeats (op i of a run is pool op i % pool)."""
    sums = [0.0] * min(pool, len(latencies))
    counts = [0] * len(sums)
    for i, x in enumerate(latencies):
        sums[i % pool] += x
        counts[i % pool] += 1
    return [s / c for s, c in zip(sums, counts)]


def e2e_metrics(measured: dict) -> dict:
    lat = measured["latencies"]
    high, beyond = p90(lat)
    return {
        "ops_per_s": len(lat) / measured["wall_s"],
        # The host switches between two speeds. Where all ops cost about the
        # same (sweep), the median of single latencies jumps between the two
        # speeds' clusters from run to run; the median over the pool's ops,
        # each at its mean over its repeats, moves smoothly instead.
        "op_p50_ms": statistics.median(op_means(lat, measured["pool"])) * 1e3,
        "op_p90_ms": high * 1e3,
        "setup_s": statistics.median(measured["setup_s"]),
        "peak_rss_mb": measured["peak_rss_mb"],
    }, beyond


def layer_metrics(walls: dict[str, list[float]], traced: dict) -> dict:
    out: dict[str, tuple[float, str]] = {}
    calls, self_s = traced["calls"], traced["self_s"]
    for layer, (mod, names) in tracing.LAYERS.items():
        total = 0.0
        for name in names:
            label = f"{mod}.{name}"
            out[f"{label}.calls"] = (calls.get(label, 0), "count")
            out[f"{label}.self_s"] = (self_s.get(label, 0.0), "s")
            total += self_s.get(label, 0.0)
        out[f"layer.{layer}.self_s"] = (total, "s")
    out["bench.op.self_s"] = (self_s.get("op", 0.0), "s")
    counts = traced["counts"]
    for name in tracing.SIM_COUNTS:
        out[f"sim.{name}"] = (counts.get(f"sim.{name}", 0), "count")
    for case in tracing.CERTIFIER_CASES:
        out[f"certifier.iter.{case}"] = (counts.get(f"certifier.iter.{case}", 0), "count")
    hits = counts["certifier.sched_cache.hits"]
    misses = counts["certifier.sched_cache.misses"]
    out["certifier.sched_cache.hits"] = (hits, "count")
    out["certifier.sched_cache.misses"] = (misses, "count")
    out["certifier.sched_cache.hit_ratio"] = (hits / (hits + misses) if hits + misses else 0.0, "ratio")
    untraced_s = statistics.median(walls["untraced"])
    traced_s = statistics.median(walls["traced"])
    out["trace.untraced_wall_s"] = (untraced_s, "s")
    out["trace.traced_wall_s"] = (traced_s, "s")
    out["trace.overhead_s"] = (traced_s - untraced_s, "s")
    for module, lines in line_counts().items():
        out[f"loc.{module}"] = (lines, "lines")
    return out


def metric_line(name: str, value: float, unit: str) -> str:
    return f"{name} {value if isinstance(value, int) else f'{value:.6g}'} {unit}"


def line_counts() -> dict[str, int]:
    """Net lines (neither blank nor comment-only) of each package module."""
    counts = {}
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text().splitlines()
        counts[path.stem] = sum(1 for ln in text if ln.strip() and not ln.strip().startswith("#"))
    counts["total"] = sum(counts.values())
    return counts


def environment_lines(workload: str) -> list[str]:
    lines = [f"# python {platform.python_version()}, nproc {os.cpu_count()}"]
    spread_file = HERE / "spread.json"
    if spread_file.exists():
        recorded = json.loads(spread_file.read_text()).get(workload, {})
        for name, s in recorded.get("spread", {}).items():
            lines.append(f"# recorded run-to-run spread {name}: {s:.3f} of median")
    return lines


def timed(args, common: list[str], deadline: float):
    """End-to-end metrics from one timed process, which also times set-up in
    fresh processes at even intervals through its run."""
    measured = child(["--mode", "measure", *common, "--seconds", str(args.seconds)], deadline)
    values, beyond = e2e_metrics(measured)
    metrics = {name: (v, UNITS[name]) for name, v in values.items()}
    attempted = len(measured["latencies"])
    notes = [f"# setup_s the median of {len(measured['setup_s'])} set-up samples",
             f"# op_p50_ms over {min(measured['pool'], attempted)} pool ops, each the mean "
             f"of its repeats; op_p90_ms from {attempted} samples, {beyond} beyond it"]
    return metrics, attempted, measured["failed"], measured["first_error"], notes


def traced(args, common: list[str], deadline: float):
    """Per-layer metrics: untraced and traced processes doing the same fixed
    ops, alternated while time is left so that the overhead compares medians
    taken over the same stretch."""
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{args.workload}.csv"
    fixed = ["--mode", "fixed", *common]
    walls: dict[str, list[float]] = {"untraced": [], "traced": []}
    first = None
    attempted = failed = 0
    first_error = None
    start = time.monotonic()
    while True:
        pair_start = time.monotonic()
        for kind in walls:
            extra = []
            if kind == "traced":
                extra = ["--traced", *(["--spans", str(spans)] if first is None else [])]
            result = child([*fixed, *extra], deadline)
            walls[kind].append(result["wall_s"])
            attempted += result["ops"]
            failed += result["failed"]
            first_error = first_error or result["first_error"]
            if kind == "traced" and first is None:
                first = result
        now = time.monotonic()
        if now - start + (now - pair_start) > args.seconds:
            break
    metrics = layer_metrics(walls, first)
    layer_total = sum(v for k, (v, _) in metrics.items() if k.startswith("layer."))
    notes = [f"# share of traced layer time {layer}: "
             f"{metrics[f'layer.{layer}.self_s'][0] / layer_total if layer_total else 0.0:.1%}"
             for layer in tracing.LAYERS]
    notes.append(f"# spans of the first traced process in {spans.relative_to(ROOT)}; "
                 f"{len(walls['traced'])} traced and untraced processes each")
    return metrics, attempted, failed, first_error, notes


def run(args) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    measure = traced if args.trace else timed
    metrics, attempted, failed, first_error, notes = measure(args, common, deadline)
    lines = environment_lines(args.workload) + notes
    lines.append(f"# ops {attempted} failed_ops {failed}")
    if first_error:
        lines.append(f"# first failure: {first_error.splitlines()[0]}")
        print(first_error, file=sys.stderr)
    lines += [metric_line(name, value, unit) for name, (value, unit) in metrics.items()]
    print("\n".join(lines))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: the slflab sources are missing ({PACKAGE.relative_to(ROOT)}); "
              "run from the root of a full checkout", file=sys.stderr)
        return 2
    try:
        result = run(args)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
