"""Flow-time objectives, active-count profiles, and competitiveness checks."""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass
from fractions import Fraction

from .core import Instance, Rat, rat_str
from .sim import Schedule

ZERO = Fraction(0)


class MetricsError(ValueError):
    pass


def total_flow_time(sched: Schedule, inst: Instance) -> Rat:
    """Sum over jobs of completion time minus release time, exact."""
    flow = ZERO
    for j in inst.jobs:
        if j.id not in sched.completions:
            raise MetricsError(f"job {j.id} does not complete in the schedule")
        flow += sched.completions[j.id] - j.release.time
    return flow


def competitive_ratio(alg: Schedule, opt: Schedule, inst: Instance) -> Rat:
    opt_flow = total_flow_time(opt, inst)
    if opt_flow == 0:
        raise MetricsError("optimal flow time is zero")
    return total_flow_time(alg, inst) / opt_flow


@dataclass
class CompetitivenessReport:
    rho: Rat
    max_count_ratio: Rat
    witness_time: Rat | None
    passed: bool
    table: list[tuple[Rat, int, int]]  # (t, |ALG(t)|, |OPT(t)|)

    def to_json(self, flow_alg: Rat | None = None, flow_opt: Rat | None = None) -> str:
        doc = {
            "rho": rat_str(self.rho),
            "max_count_ratio": rat_str(self.max_count_ratio),
            "witness": None if self.witness_time is None else rat_str(self.witness_time),
            "local_ok": self.passed,
        }
        if flow_alg is not None and flow_opt is not None:
            doc["flow_alg"] = rat_str(flow_alg)
            doc["flow_opt"] = rat_str(flow_opt)
            doc["ratio"] = rat_str(flow_alg / flow_opt)
        return json.dumps(doc, indent=2)


def count_profile(*schedules: Schedule) -> list[tuple[Rat, tuple[int, ...]]]:
    """(t, (|S_1(t)|, ..., |S_k(t)|)) at every boundary of any of the
    schedules, in time order.

    Active counts are piecewise constant between boundaries, so these rows
    cover all times.
    """
    rows: list[tuple[Rat, tuple[int, ...]]] = []
    for t in heapq.merge(*(s.boundaries() for s in schedules)):
        if not rows or rows[-1][0] != t:
            rows.append((t, tuple(s.active_count(t) for s in schedules)))
    return rows


def local_competitiveness(alg: Schedule, opt: Schedule, rho: Rat) -> CompetitivenessReport:
    """Check |ALG(t)| <= rho * |OPT(t)| at every row of their count profile."""
    table = []
    worst: Rat = ZERO
    witness = None
    passed = True
    for t, (a, o) in count_profile(alg, opt):
        table.append((t, a, o))
        if a > rho * o:
            if passed:
                witness = t
            passed = False
        if o > 0 and Fraction(a, o) > worst:
            worst = Fraction(a, o)
            if passed:
                witness = t
    return CompetitivenessReport(rho, worst, witness, passed, table)


def plot_data_csv(report: CompetitivenessReport) -> str:
    """CSV rows `t,count_alg,count_opt` of the report's count table."""
    lines = ["t,count_alg,count_opt"]
    lines += [f"{rat_str(t)},{a},{o}" for t, a, o in report.table]
    return "\n".join(lines) + "\n"
