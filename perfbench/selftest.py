"""Self-test of the benchmark, a few seconds long.

    python3 perfbench/selftest.py

Checks that every metric of BENCHMARK.json prints by name with its unit,
that a perturbed output (one flow ratio changed by 2^-40) fails its digest,
and that an exception raised inside the package counts as a failed op.
Exits 0 when all checks hold.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SEED = 1


def printed(workload: str, seconds: float, trace: int) -> tuple[str, dict]:
    args = argparse.Namespace(workload=workload, seed=SEED, seconds=seconds, trace=trace)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        result = run.run(args)
    return buf.getvalue(), result


def check_metrics(text: str, result: dict, declared: list[dict], what: str) -> list[str]:
    problems = []
    lines = set(text.splitlines())
    for m in declared:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            problems.append(f"{what}: {m['name']} missing or not in {m['unit']}: {got}")
        elif run.metric_line(m["name"], got["value"], m["unit"]) not in lines:
            problems.append(f"{what}: {m['name']} not printed with its unit")
    extra = set(result["metrics"]) - {m["name"] for m in declared}
    if extra:
        problems.append(f"{what}: undeclared metrics {sorted(extra)}")
    if not result["correct"] or result["failed"]:
        problems.append(f"{what}: {result['failed']} failed ops")
    return problems


def bump_ratio(out: str) -> str:
    value = Fraction(out.removeprefix("ratio=")) + Fraction(1, 2**40)
    return f"ratio={value.numerator}/{value.denominator}"


def main() -> int:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    problems: list[str] = []
    for workload in workloads.WORKLOADS:
        text, result = printed(workload, 0.5, 0)
        problems += check_metrics(text, result, bench["end_to_end"], workload)
    # per-layer names do not depend on the workload; sweep's traced pass is the shortest
    text, result = printed("sweep", 0.5, 1)
    problems += check_metrics(text, result, bench["per_layer"], "sweep traced")

    perturbed = worker.measure("sweep", SEED, 0.2, perturb=bump_ratio)
    if perturbed["failed"] != len(perturbed["latencies"]) or "digest mismatch" not in (
        perturbed["first_error"] or ""
    ):
        problems.append(f"perturbed ratio passed its digest: {perturbed['first_error']}")

    slf = worker.import_slflab()
    original = slf.reduction.simulate

    def broken(*args, **kwargs):
        raise RuntimeError("injected failure")

    slf.reduction.simulate = broken
    try:
        raised = worker.measure("reduce", SEED, 0.2)
    finally:
        slf.reduction.simulate = original
    if raised["failed"] != len(raised["latencies"]) or "injected failure" not in (
        raised["first_error"] or ""
    ):
        problems.append(f"raised exception not counted: {raised['failed']} failed")

    for p in problems:
        print("FAIL", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
