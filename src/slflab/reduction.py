"""Speed-augmentation bridge: water-filling dominance, forced-idle SETF,
and the chain relating speed-augmented SETF counts to the adaptive policy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain

from .core import Instance, Rat, scale_instance
from .metrics import grid_counts
from .sim import Grid, IntervalSet, Schedule, merge_grid, simulate

ZERO = Fraction(0)


class ReductionError(ValueError):
    pass


@dataclass(frozen=True)
class WaterFillingConfig:
    """Two jar systems with initial levels x (first) and x_prime (second),
    shared capacities p; componentwise 0 <= x <= x_prime <= p."""

    x: tuple[Rat, ...]
    x_prime: tuple[Rat, ...]
    p: tuple[Rat, ...]

    def __post_init__(self) -> None:
        if not (len(self.x) == len(self.x_prime) == len(self.p)):
            raise ReductionError("vectors must share a length")
        for a, b, c in zip(self.x, self.x_prime, self.p):
            if not (0 <= a <= b <= c):
                raise ReductionError("need 0 <= x <= x' <= p componentwise")


Trajectory = list[tuple[Rat, tuple[Rat, ...]]]  # breakpoints (t, levels)


def _evolve(levels0, caps) -> Trajectory:
    """Fill the least-loaded non-full jars first, at total rate one; exact
    breakpoints at every level-merge and capacity hit."""
    levels = list(levels0)
    t = ZERO
    out: Trajectory = [(t, tuple(levels))]
    while True:
        active = [i for i in range(len(levels)) if levels[i] < caps[i]]
        if not active:
            return out
        low = min(levels[i] for i in active)
        pool = [i for i in active if levels[i] == low]
        targets = [caps[i] for i in pool]
        higher = [levels[i] for i in active if levels[i] > low]
        if higher:
            targets.append(min(higher))
        target = min(targets)
        dt = (target - low) * len(pool)
        for i in pool:
            levels[i] = target
        t += dt
        out.append((t, tuple(levels)))


def water_filling_trajectories(cfg: WaterFillingConfig) -> tuple[Trajectory, Trajectory]:
    return _evolve(cfg.x, cfg.p), _evolve(cfg.x_prime, cfg.p)


def _levels_at(traj: Trajectory, t: Rat) -> tuple[Rat, ...]:
    if t <= traj[0][0]:
        return traj[0][1]
    for (t0, v0), (t1, v1) in zip(traj, traj[1:]):
        if t0 <= t <= t1:
            if t == t1 or t1 == t0:
                return v1
            frac = (t - t0) / (t1 - t0)
            return tuple(a + (b - a) * frac for a, b in zip(v0, v1))
    return traj[-1][1]


@dataclass
class DominanceReport:
    ok: bool
    witness: tuple[Rat, int] | None = None  # (time, jar index)


def water_filling_dominance(cfg: WaterFillingConfig) -> DominanceReport:
    """Componentwise e(t) <= e'(t) at all times; between breakpoints both
    systems are linear, so checking the union of breakpoints suffices."""
    lo, hi = water_filling_trajectories(cfg)
    times = sorted({t for t, _ in lo} | {t for t, _ in hi})
    for t in times:
        a = _levels_at(lo, t)
        b = _levels_at(hi, t)
        for i, (ai, bi) in enumerate(zip(a, b)):
            if ai > bi:
                return DominanceReport(False, (t, i))
    return DominanceReport(True)


@dataclass
class ChainReport:
    ok: bool
    checks: dict[str, bool] = field(default_factory=dict)
    witness: dict = field(default_factory=dict)


def setfi_vs_setf(plain: Schedule, idled: Schedule) -> ChainReport:
    """Per-job elapsed dominance of forced-idle SETF (`idled`) under plain
    SETF (`plain`) on the same instance, and the count inequality
    |SETF(t)| <= |SETFI(t)|, at every boundary of either schedule; the
    elapsed witness is the first violator in instance job order."""
    grid = merge_grid(plain, idled)
    return _setfi(grid, grid_counts(grid), 0, 1)


def _setfi(grid: Grid, rows: list[tuple[int, ...]], p: int, i: int) -> ChainReport:
    """`setfi_vs_setf` of schedules p and i of `grid`, with counts `rows`.
    Elapsed work, unlike counts, is checked at p's and i's boundaries alone,
    as one signed sum (i - p) of ended segments' work per job. At a boundary
    of one, only the other can straddle, and its partial work is the
    threshold of its jobs; only jobs of a segment that ends or straddles
    there are compared, each once."""
    qs = sorted({*grid.positions[p], *grid.positions[i]})
    jobs = grid.schedules[p].instance.jobs
    diff: dict[int, int | Fraction] = {}  # work in the grid's unit
    for q, ((wp, ended_p), (up, in_p)), ((wi, ended_i), (ui, in_i)) in zip(
        qs, grid.steps(p, qs), grid.steps(i, qs)
    ):
        for j in ended_p:
            diff[j] = diff.get(j, 0) - wp
        for j in ended_i:
            diff[j] = diff.get(j, 0) + wi
        limit = {**dict.fromkeys(chain(ended_p, ended_i), 0), **dict.fromkeys(in_p, up)}
        if in_i:
            limit.update(dict.fromkeys(in_i, -ui))
        bad = {j for j, lim in limit.items() if diff.get(j, 0) > lim}
        excess = next(((q, j.id) for j in jobs if j.id in bad), None) if bad else None
        if excess:
            break
    over = next((q for q, row in enumerate(rows) if row[p] > row[i]), None)
    # (position, rank at a tie, key, witness): witness keys in time order
    found = [] if over is None else [(over, 1, "count", grid.times[over])]
    if excess:
        found.append((excess[0], 0, "elapsed", (grid.times[excess[0]], excess[1])))
    checks = {"elapsed-dominance": excess is None, "count": over is None}
    return ChainReport(all(checks.values()), checks, {k: w for _, _, k, w in sorted(found)})


def known_work_intervals(alg: Schedule) -> IntervalSet:
    """Positive-measure intervals where the schedule works on a known job."""
    known = alg.known_times()
    return IntervalSet.from_pairs(
        (start, end)
        for start, end, job in alg.solo_runs(ZERO)
        if job in known and known[job] <= start
    )


def reduction_check(inst: Instance, epsilon: Rat) -> ChainReport:
    """Full chain at every event time:
      |SETF at speed 1+d on J| = |SETF on J scaled by 1-eps|
                              <= |SETFI on the scaled J with the adaptive
                                  policy's known-work times forbidden|
                              <= |adaptive policy on J|,
    with d = eps/(1-eps), read off one grid of the four schedules' boundaries."""
    epsilon = Fraction(epsilon)
    if not (0 < epsilon < 1):
        raise ReductionError("reduction needs epsilon in (0,1)")
    if inst.epsilon != epsilon:
        inst = Instance(epsilon, inst.jobs)
    speed = 1 / (1 - epsilon)  # 1 + eps/(1-eps)

    alg = simulate(inst, "slf")
    forbidden = known_work_intervals(alg)
    scaled = scale_instance(inst, 1 - epsilon)

    fast = simulate(inst, "setf", speed=speed)
    slow = simulate(scaled, "setf")
    idled = simulate(scaled, "setf", forbidden=forbidden)

    grid = merge_grid(fast, slow, idled, alg)
    rows = grid_counts(grid)
    checks = {
        "scale-identity-boundaries": grid.positions[0] == grid.positions[1],
        "scale-identity-completions": _done_at(grid, 0) == _done_at(grid, 1),
        "scale-identity-counts": True,
        "setfi-dominance": True,
        "count-vs-alg": True,
        "chain": True,
    }
    witness: dict = {}

    dom = _setfi(grid, rows, 1, 2)
    checks["setfi-dominance"] = dom.ok
    if not dom.ok:
        witness["setfi"] = dom.witness

    at: dict[str, int] = {}  # witness key -> the first failing row's position
    for q, (n_fast, n_slow, n_idled, n_alg) in enumerate(rows):
        if n_fast != n_slow:
            checks["scale-identity-counts"] = False
            at.setdefault("scale-counts", q)
        if n_idled > n_alg:
            checks["count-vs-alg"] = False
            at.setdefault("count-vs-alg", q)
        if not (n_fast == n_slow <= n_idled <= n_alg):
            checks["chain"] = False
            at.setdefault("chain", q)
    witness.update((key, grid.times[q]) for key, q in at.items())
    return ChainReport(all(checks.values()), checks, witness)


def _done_at(grid: Grid, k: int) -> dict[int, int]:
    return {j: grid.position(c) for j, c in grid.schedules[k].completions.items()}
