"""Flow-time objectives, active-count profiles, and competitiveness checks."""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

from .core import Instance, Rat, rat_str
from .sim import Grid, Schedule, merge_grid

ZERO = Fraction(0)


class MetricsError(ValueError):
    pass


def total_flow_time(sched: Schedule, inst: Instance) -> Rat:
    """Sum over jobs of completion time minus release time, exact.

    Completion and release numerators are summed as integers per
    denominator, and one Fraction per distinct denominator is added at the
    end: the plain Fraction sum's value, without a gcd per job."""
    completions = sched.completions
    by_den: dict[int, int] = {}
    for j in inst.jobs:
        c = completions.get(j.id)
        if c is None:
            raise MetricsError(f"job {j.id} does not complete in the schedule")
        r = j.release.time
        by_den[c.denominator] = by_den.get(c.denominator, 0) + c.numerator
        by_den[r.denominator] = by_den.get(r.denominator, 0) - r.numerator
    return sum((Fraction(num, den) for den, num in by_den.items()), ZERO)


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
    """(t, (|S_1(t)|, ..., |S_k(t)|)) at every boundary of the schedules, in
    time order; counts are constant between boundaries."""
    grid = merge_grid(*schedules)
    return list(zip(grid.times, grid_counts(grid)))


def grid_counts(grid: Grid) -> list[tuple[int, ...]]:
    """The active count of each schedule at each time of `grid`: prefix sums
    of +1 at each release's position and -1 at each completion's. A release
    after a horizon cut counts from the first grid time after it."""
    columns = []
    for sched in grid.schedules:
        steps = [0] * (len(grid.ticks) + 1)
        for j in sched.instance.jobs:
            steps[grid.position(j.release.time)] += 1
        for c in sched.completions.values():
            steps[grid.position(c)] -= 1
        columns.append(accumulate(steps[:-1]))
    return list(zip(*columns))


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
