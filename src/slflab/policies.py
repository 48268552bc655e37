"""Allocation rules as pure functions from visible state to rates.

Each rule maps the active-job states at an instant to a rate allocation
summing to `speed`. The simulator enforces the information model (what
"known" means); these functions are the reference semantics the engine's
segment choices are checked against.

CLI policy names: slf, srpt, setf, rr.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from .core import Rat
from .sim import JobState


class PolicyError(ValueError):
    pass


def slf_allocation(
    states: Mapping[int, JobState], eps: Rat, speed: Rat = Fraction(1)
) -> dict[int, Rat]:
    """Run the job(s) with the smallest lower-bound estimate.

    If the smallest known estimate is at most the smallest unknown estimate,
    the known argmin runs alone (ties to the smaller id). Otherwise all
    unknown jobs attaining the minimum estimate share the speed equally;
    among equal estimates the least-elapsed jobs form the pool, which is
    what makes eps=0 coincide with setf.
    """
    if not states:
        raise PolicyError("empty active set")
    known = {j: s for j, s in states.items() if s.known}
    unknown = {j: s for j, s in states.items() if not s.known}
    if eps == 1 and unknown:
        raise PolicyError("unknown job under eps=1")
    if known:
        kmin_id = min(known, key=lambda j: (known[j].remaining, j))
        kmin = known[kmin_id].remaining
        if not unknown:
            return {kmin_id: speed}
        umin_elapsed = min(s.elapsed for s in unknown.values())
        # kmin <= eps/(1-eps) * umin_elapsed, cross-multiplied (eps < 1 here)
        if kmin * (1 - eps) <= eps * umin_elapsed:
            return {kmin_id: speed}
    pool_elapsed = min(s.elapsed for s in unknown.values())
    pool = [j for j, s in unknown.items() if s.elapsed == pool_elapsed]
    share = speed / len(pool)
    return {j: share for j in pool}


def srpt_allocation(
    states: Mapping[int, JobState], speed: Rat = Fraction(1)
) -> dict[int, Rat]:
    """Full speed to the job with the shortest remaining time (ties: id)."""
    if not states:
        raise PolicyError("empty active set")
    if any(s.remaining is None for s in states.values()):
        raise PolicyError("srpt requires declared sizes")
    best = min(states, key=lambda j: (states[j].remaining, j))
    return {best: speed}


def setf_allocation(
    states: Mapping[int, JobState], speed: Rat = Fraction(1)
) -> dict[int, Rat]:
    """Equal rates among the jobs with the least elapsed time."""
    if not states:
        raise PolicyError("empty active set")
    least = min(s.elapsed for s in states.values())
    pool = [j for j, s in states.items() if s.elapsed == least]
    share = speed / len(pool)
    return {j: share for j in pool}


def rr_allocation(
    states: Mapping[int, JobState], speed: Rat = Fraction(1)
) -> dict[int, Rat]:
    """Equal rates among all active jobs."""
    if not states:
        return {}
    share = speed / len(states)
    return {j: share for j in states}


def allocation_for(
    policy: str,
    states: Mapping[int, JobState],
    eps: Rat,
    speed: Rat = Fraction(1),
) -> dict[int, Rat]:
    if policy == "slf":
        if eps == 1:
            return srpt_allocation(states, speed)
        return slf_allocation(states, eps, speed)
    if policy == "srpt":
        return srpt_allocation(states, speed)
    if policy == "setf":
        return setf_allocation(states, speed)
    if policy == "rr":
        return rr_allocation(states, speed)
    raise PolicyError(f"unknown policy {policy!r}")
