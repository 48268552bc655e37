"""Flow-time objectives, active-count profiles, and competitiveness checks."""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .core import Instance, Rat, rat_str
from .sim import Schedule, state_at

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


def local_competitiveness(alg: Schedule, opt: Schedule, rho: Rat) -> CompetitivenessReport:
    """Check |ALG(t)| <= rho * |OPT(t)| at every event boundary.

    Counts are piecewise constant between boundaries of the two schedules,
    so checking at the boundaries covers all times.
    """
    times = sorted(set(alg.boundaries()) | set(opt.boundaries()))
    table = []
    worst: Rat = ZERO
    witness = None
    passed = True
    for t in times:
        a = alg.active_count(t)
        o = opt.active_count(t)
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


def delta_at(sched: Schedule, inst: Instance, t: Rat, threshold: Rat) -> int:
    """Number of active jobs with remaining time >= threshold at time t."""
    states = state_at(sched, inst, t)
    count = 0
    for s in states.values():
        if s.remaining is None or s.remaining >= threshold:
            count += 1
    return count


def delta_profile(
    sched: Schedule, inst: Instance, threshold: Rat
) -> list[tuple[Rat, int]]:
    """Breakpoints (t, count) of the piecewise-constant profile of
    |{j active : remaining >= threshold}|, right-continuous at each t.

    Crossings of the threshold inside a segment are breakpoints too, since a
    running job's remaining time falls through the threshold mid-segment.
    """
    threshold = Fraction(threshold)
    points = set(sched.boundaries())
    if threshold > 0:
        # a job's remaining time reaches the threshold when its work does
        levels = {
            j.id: j.size - threshold
            for j in inst.jobs
            if j.size is not None and j.size > threshold
        }
        points.update(sched.reach_times(levels, ZERO).values())
    out = []
    last = None
    for t in sorted(points):
        c = delta_at(sched, inst, t, threshold)
        if c != last:
            out.append((t, c))
            last = c
    return out


def plot_data_csv(alg: Schedule, opt: Schedule) -> str:
    """CSV rows `t,count_alg,count_opt` at all boundaries of both schedules."""
    times = sorted(set(alg.boundaries()) | set(opt.boundaries()))
    lines = ["t,count_alg,count_opt"]
    for t in times:
        lines.append(f"{rat_str(t)},{alg.active_count(t)},{opt.active_count(t)}")
    return "\n".join(lines) + "\n"
