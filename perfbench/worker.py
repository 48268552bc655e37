"""One measurement process of the benchmark; `run.py` starts it.

Modes:
  setup    import slflab and build the run's inputs, nothing else
  measure  set up, then run ops in a closed loop for --seconds, pausing at
           even intervals to time set-up in fresh `setup` processes
  fixed    set up, then run the workload's fixed number of passes over the
           op pool, optionally traced; the fixed op count makes every exact
           count repeat

Prints one JSON object as its last line of output.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402
import workloads  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"
# Set-up samples per timed run: the timed process's own, then one fresh
# process at each of the even intervals that split the timed loop.
SETUP_SAMPLES = 8
MODULES = ("core", "sim", "certifier", "assignment", "metrics", "adversary", "reduction")


def import_slflab() -> SimpleNamespace:
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import importlib

    return SimpleNamespace(
        **{m: importlib.import_module(f"slflab.{m}") for m in MODULES}
    )


class Runner:
    """Issues ops one after another and checks each one's output."""

    def __init__(self, slf, workload: str, seed: int, perturb=None, tracer=None):
        self.slf = slf
        self.workload = workload
        self.table = workloads.load_digests()[workload]
        args = (slf, workload, seed, self.table)
        self.items = tracer.span("setup", workloads.pool, *args) if tracer else workloads.pool(*args)
        self.perturb = perturb
        self.tracer = tracer
        self.latencies: list[float] = []
        self.failed = 0
        self.first_error: str | None = None

    def op(self, i: int) -> float:
        """Run op i of the cyclic op sequence; return its completion time."""
        item = self.items[i % len(self.items)]
        args = (self.slf, self.workload, item)
        error = None
        start = perf_counter()
        try:
            if self.tracer:
                out = self.tracer.span("op", workloads.run_op, *args)
            else:
                out = workloads.run_op(*args)
        except workloads.CheckFailed as exc:
            error = f"{item.key}: {exc}"
        except Exception:  # a failing op is counted, and the loop goes on
            error = f"{item.key}: {traceback.format_exc()}"
        end = perf_counter()
        self.latencies.append(end - start)
        if error is None:
            if self.perturb is not None:
                out = self.perturb(out)
            if workloads.digest(out) != workloads.expected(self.table, self.workload, item.key):
                error = f"{item.key}: digest mismatch for {out}"
        if error is not None:
            self.failed += 1
            self.first_error = self.first_error or error
        return end


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def setup(workload: str, seed: int) -> dict:
    t0 = perf_counter()
    Runner(import_slflab(), workload, seed)
    return {"setup_s": perf_counter() - t0}


def setup_in_child(workload: str, seed: int) -> float:
    """Set-up time of a fresh `setup` process; the caller waits for it."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--mode", "setup",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, check=True, timeout=60,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def measure(workload: str, seed: int, seconds: float, perturb=None) -> dict:
    """Set up, then run ops in a closed loop for `seconds`. The loop is split
    into SETUP_SAMPLES equal stretches, and set-up is timed in a fresh
    process between two stretches. So the set-up samples span the run, as
    the op samples do, instead of all falling in the host's speed mode of
    its first second. The pauses are not part of the loop's wall time."""
    t0 = perf_counter()
    run = Runner(import_slflab(), workload, seed, perturb)
    setups = [perf_counter() - t0]
    wall = 0.0
    i = 0
    for k in range(SETUP_SAMPLES):
        if k:
            setups.append(setup_in_child(workload, seed))
        start = end = perf_counter()
        deadline = start + seconds / SETUP_SAMPLES
        while end < deadline:
            end = run.op(i)
            i += 1
        wall += end - start
    return {
        "setup_s": setups,
        "wall_s": wall,
        "latencies": run.latencies,
        "failed": run.failed,
        "first_error": run.first_error,
        "peak_rss_mb": peak_rss_mb(),
        "pool": len(run.items),
    }


def fixed(workload: str, seed: int, traced: bool, spans_path=None) -> dict:
    slf = import_slflab()
    tracer = tracing.Tracer() if traced else None
    if tracer:
        tracer.install(slf)
    run = Runner(slf, workload, seed, tracer=tracer)
    n_ops = workloads.TRACE_PASSES[workload] * len(run.items)
    start = perf_counter()
    for i in range(n_ops):
        run.op(i)
    wall = perf_counter() - start
    out = {
        "wall_s": wall,
        "ops": n_ops,
        "failed": run.failed,
        "first_error": run.first_error,
    }
    if tracer:
        calls, self_s = tracer.self_times()
        cache = slf.certifier._sched.cache_info()
        counts = dict(tracer.counts)
        counts["certifier.sched_cache.hits"] = cache.hits
        counts["certifier.sched_cache.misses"] = cache.misses
        out.update(calls=dict(calls), self_s=dict(self_s), counts=counts)
        if spans_path:
            tracer.write_spans(spans_path)
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--mode", choices=("setup", "measure", "fixed"), required=True)
    p.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--traced", action="store_true")
    p.add_argument("--spans", help="write the traced run's spans to this CSV file")
    args = p.parse_args(argv)
    if args.mode == "setup":
        result = setup(args.workload, args.seed)
    elif args.mode == "measure":
        result = measure(args.workload, args.seed, args.seconds)
    else:
        result = fixed(args.workload, args.seed, args.traced, args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
