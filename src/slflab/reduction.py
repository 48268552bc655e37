"""Speed-augmentation bridge: water-filling dominance, forced-idle SETF,
and the chain relating speed-augmented SETF counts to the adaptive policy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .core import Instance, Rat, scale_instance
from .metrics import count_profile
from .sim import IntervalSet, Schedule, simulate

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
    |SETF(t)| <= |SETFI(t)|, at all event times."""
    checks = {"elapsed-dominance": True, "count": True}
    witness: dict = {}
    for t, (n_plain, n_idled) in count_profile(plain, idled):
        ei = idled.elapsed_at(t)
        ep = plain.elapsed_at(t)
        for j in plain.instance.jobs:
            if ei.get(j.id, ZERO) > ep.get(j.id, ZERO):
                checks["elapsed-dominance"] = False
                witness.setdefault("elapsed", (t, j.id))
        if n_plain > n_idled:
            checks["count"] = False
            witness.setdefault("count", t)
    return ChainReport(all(checks.values()), checks, witness)


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
    with d = eps/(1-eps)."""
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

    checks = {
        "scale-identity-boundaries": fast.boundaries() == slow.boundaries(),
        "scale-identity-completions": fast.completions == slow.completions,
        "scale-identity-counts": True,
        "setfi-dominance": True,
        "count-vs-alg": True,
        "chain": True,
    }
    witness: dict = {}

    dom = setfi_vs_setf(slow, idled)
    checks["setfi-dominance"] = dom.ok
    if not dom.ok:
        witness["setfi"] = dom.witness

    for t, (n_fast, n_slow, n_idled, n_alg) in count_profile(fast, slow, idled, alg):
        if n_fast != n_slow:
            checks["scale-identity-counts"] = False
            witness.setdefault("scale-counts", t)
        if n_idled > n_alg:
            checks["count-vs-alg"] = False
            witness.setdefault("count-vs-alg", t)
        if not (n_fast == n_slow <= n_idled <= n_alg):
            checks["chain"] = False
            witness.setdefault("chain", t)
    return ChainReport(all(checks.values()), checks, witness)
