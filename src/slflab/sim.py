"""Deterministic event-driven fluid simulator with exact rational arithmetic.

Executes a rate-allocation policy (slf, srpt, setf, rr) on an instance,
optionally with speed augmentation and forbidden (forced-idle) intervals.
Every event boundary solves a linear equation exactly; there is no rounding
and no numerical root finding. Identical inputs give identical schedules.

Parallel processing ("round-robin with infinitesimally small steps") is the
fluid limit: tied jobs share the speed at equal fractional rates. Tied jobs
are grouped and advance through a shared accumulator, so a segment costs
O(log n) bookkeeping regardless of group size. rr is the one-group case of
this pool step: its single group runs at offset 0 and never pauses.

`Schedule.elapsed_at` (and `state_at` on top of it) answers from a checkpoint
index of cumulative elapsed work. The index is built by a schedule's first
query, never by `simulate`, so runs that only read completions pay nothing.
A checkpoint is taken once the rate entries replayed since the last one are
at least the size of the running elapsed dict. The checkpoints then hold no
more entries than the segments themselves, and a query copies one
checkpoint and replays fewer than 2n rate entries past it (n jobs): O(n)
work instead of a walk from time 0.

Segments tile [0, end_time] in time order, each starting where the previous
one ends, so `Schedule.boundaries` is 0 followed by the segment ends, with
no merge or sort. Grids over several schedules are built in one place,
`metrics.count_profile`.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice
from operator import attrgetter

from .core import Instance, Rat

ZERO = Fraction(0)

POLICIES = ("slf", "srpt", "setf", "rr")


class SimulationError(ValueError):
    pass


@dataclass(frozen=True)
class JobState:
    """Visible state of one active job at a point in time."""

    id: int
    elapsed: Rat
    remaining: Rat | None  # None while the size is undeclared
    known: bool


@dataclass(frozen=True)
class IntervalSet:
    """Disjoint, sorted [start, end) intervals with rational endpoints."""

    intervals: tuple[tuple[Rat, Rat], ...] = ()

    @staticmethod
    def from_pairs(pairs) -> "IntervalSet":
        items = sorted((Fraction(a), Fraction(b)) for a, b in pairs if a < b)
        merged: list[tuple[Rat, Rat]] = []
        for a, b in items:
            if merged and a <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], b))
            else:
                merged.append((a, b))
        return IntervalSet(tuple(merged))

    def __bool__(self) -> bool:
        return bool(self.intervals)


EMPTY_INTERVALS = IntervalSet()


@dataclass(frozen=True, slots=True)
class Event:
    t: Rat
    kind: str  # arrival | known | completion | mode | forbidden
    job: int | None = None


@dataclass(frozen=True, slots=True)
class Segment:
    start: Rat
    end: Rat
    rates: dict  # job id -> Rat, work units per time unit


_END = attrgetter("end")


@dataclass
class Schedule:
    instance: Instance
    segments: list[Segment]
    completions: dict[int, Rat]
    events: list[Event]
    end_time: Rat
    final_elapsed: dict[int, Rat]  # exact elapsed at end_time, all released jobs
    _release_times: list[Rat] = field(default_factory=list, repr=False)
    _completion_times: list[Rat] = field(default_factory=list, repr=False)
    # (segment indices, elapsed over the segments before each), built lazily
    _checkpoints: tuple[list[int], list[dict[int, Rat]]] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self._release_times = sorted(j.release.time for j in self.instance.jobs)
        self._completion_times = sorted(self.completions.values())

    def boundaries(self) -> list[Rat]:
        """0 and every segment end, in time order: segments tile
        [0, end_time], each starting where the previous one ends."""
        return [ZERO, *map(_END, self.segments)]

    def active_count(self, t: Rat) -> int:
        """|{j : released by t, remaining > 0 at t}| (arrivals at t included)."""
        released = bisect_right(self._release_times, t)
        done = bisect_right(self._completion_times, t)
        return released - done

    def elapsed_at(self, t: Rat) -> dict[int, Rat]:
        """Exact elapsed work per job, counting work during [0, t).

        Copies the last checkpoint at or before the segment holding t and
        replays the segments after it; the caller owns the returned dict.
        """
        seg_idx, snaps = self._index()
        hold = bisect_left(self.segments, t, key=_END)  # first with end >= t
        c = bisect_right(seg_idx, hold) - 1
        elapsed = dict(snaps[c])
        for seg in islice(self.segments, seg_idx[c], hold + 1):
            if seg.start >= t:
                break
            dur = (seg.end if seg.end <= t else t) - seg.start
            for jid, rate in seg.rates.items():
                elapsed[jid] = elapsed.get(jid, ZERO) + rate * dur
        return elapsed

    def _index(self) -> tuple[list[int], list[dict[int, Rat]]]:
        """Checkpoints (i, elapsed over segments[:i]), built on first use;
        see the module docstring for when a checkpoint is taken."""
        if self._checkpoints is None:
            seg_idx: list[int] = [0]
            snaps: list[dict[int, Rat]] = [{}]
            running: dict[int, Rat] = {}
            since = 0
            for i, seg in enumerate(self.segments, 1):
                dur = seg.end - seg.start
                for jid, rate in seg.rates.items():
                    running[jid] = running.get(jid, ZERO) + rate * dur
                since += len(seg.rates)
                if since and since >= len(running):
                    seg_idx.append(i)
                    snaps.append(dict(running))
                    since = 0
            self._checkpoints = (seg_idx, snaps)
        return self._checkpoints

    # other modules read segments only through these queries

    def _segments_after(self, t: Rat):
        """Segments with end > t, in time order."""
        return islice(self.segments, bisect_right(self.segments, t, key=_END), None)

    def rates_before(self, t: Rat) -> dict[int, Rat]:
        """Rates of the segment with start < t <= end (the work right before
        t); empty when that segment is idle or t is outside (0, end_time]."""
        i = bisect_left(self.segments, t, key=_END)
        if i < len(self.segments) and self.segments[i].start < t:
            return self.segments[i].rates
        return {}

    def last_touch(self, job: int, t: Rat) -> Rat | None:
        """The end, capped at t, of the last segment starting before t that
        gives `job` positive rate; None if the job does not run before t."""
        i = bisect_left(self.segments, t, key=_END)
        for seg in reversed(self.segments[: i + 1]):
            if seg.start < t and seg.rates.get(job, ZERO) > 0:
                return min(seg.end, t)
        return None

    def solo_runs(self, start: Rat):
        """(start, end, job) for each segment with end > `start`, in time
        order; `job` is the only job receiving rate, or None when the
        segment is idle or shared."""
        for seg in self._segments_after(start):
            job = next(iter(seg.rates)) if len(seg.rates) == 1 else None
            yield seg.start, seg.end, job

    def known_times(self) -> dict[int, Rat]:
        """Job id -> the time of its `known` event (at most one per job)."""
        return {ev.job: ev.t for ev in self.events if ev.kind == "known"}

    def reach_times(self, levels: dict[int, Rat], after: Rat) -> dict[int, Rat]:
        """Job id -> the first time at which the job's work since `after`
        equals its (positive) level; jobs that never get there are absent."""
        done: dict[int, Rat] = {}
        out: dict[int, Rat] = {}
        for seg in self._segments_after(after):
            lo = max(seg.start, after)
            for jid, rate in seg.rates.items():
                if jid not in levels or jid in out:
                    continue
                need = levels[jid] - done.get(jid, ZERO)
                if need <= rate * (seg.end - lo):
                    out[jid] = lo + need / rate
                else:
                    done[jid] = done.get(jid, ZERO) + rate * (seg.end - lo)
            if len(out) == len(levels):
                break
        return out


class _Group:
    """Jobs sharing one elapsed level, advanced in fluid round-robin.

    Heaps carry absolute thresholds (knowledge level, completion level), so a
    group can be paused and resumed in O(1) without re-keying.
    """

    __slots__ = ("members", "know", "comp", "level", "off")

    def __init__(self, members: set[int], level: Rat):
        self.members = members
        self.know: list[tuple[Rat, int]] = []
        self.comp: list[tuple[Rat, int]] = []
        self.level = level  # static elapsed while paused
        self.off: Rat | None = None  # level = off + acc while running

    def absorb(self, other: "_Group") -> None:
        if len(other.members) > len(self.members):
            self.members, other.members = other.members, self.members
            self.know, other.know = other.know, self.know
            self.comp, other.comp = other.comp, self.comp
        self.members |= other.members
        for entry in other.know:
            heapq.heappush(self.know, entry)
        for entry in other.comp:
            heapq.heappush(self.comp, entry)


def simulate(
    inst: Instance,
    policy: str,
    speed: Rat = Fraction(1),
    forbidden: IntervalSet = EMPTY_INTERVALS,
    horizon: Rat | None = None,
) -> Schedule:
    """Run `policy` on `inst` exactly; see module docstring for semantics."""
    if policy not in POLICIES:
        raise SimulationError(f"unknown policy {policy!r}")
    speed = Fraction(speed)
    if speed <= 0:
        raise SimulationError("speed must be > 0")
    eps = inst.epsilon
    declared_all = inst.all_declared
    srpt_like = policy == "srpt" or (policy == "slf" and eps == 1)
    if srpt_like and not declared_all:
        raise SimulationError("policy requires declared sizes")
    if not declared_all and horizon is None:
        raise SimulationError("undeclared jobs never complete; horizon required")
    if horizon is not None:
        horizon = Fraction(horizon)

    size = {j.id: j.size for j in inst.jobs}
    # knowledge threshold: known iff elapsed >= (1-eps) * p (declared, eps > 0)
    thr = {j.id: (1 - eps) * j.size for j in inst.jobs if j.size is not None and eps > 0}

    batches: dict[Rat, list[int]] = {}
    for j in sorted(inst.jobs, key=lambda j: (j.release, j.id)):
        batches.setdefault(j.release.time, []).append(j.id)
    arrival_times = sorted(batches)
    next_arrival_idx = 0

    windows = list(forbidden.intervals)
    window_idx = 0

    t = ZERO
    elapsed: dict[int, Rat] = {}  # materialized elapsed (jobs outside groups)
    completions: dict[int, Rat] = {}
    known_logged: set[int] = set()
    n_active = 0

    acc = ZERO  # per-member work accumulated by the running group
    running: _Group | None = None  # slf (unknown pool) / setf / rr
    tiers: dict[Rat, _Group] = {}  # paused groups by elapsed level (slf/setf)
    tier_vals: list[Rat] = []

    # known active jobs (slf) or all active (srpt-like): lazy min-heap by (r, id)
    known_set: set[int] = set()
    kn_heap: list[tuple[Rat, int]] = []
    heap_rem: dict[int, Rat] = {}
    solo: int | None = None

    # rr: a member's elapsed is rr_off + acc, so its heap keys are levels of
    # acc; read only on arrival and by the final snapshot of a cut run
    rr_off: dict[int, Rat] = {}

    segments: list[Segment] = []
    events: list[Event] = []

    def log(kind: str, job: int | None = None) -> None:
        events.append(Event(t, kind, job))

    def remaining_of(jid: int) -> Rat:
        return size[jid] - elapsed[jid]

    def push_known(jid: int) -> None:
        r = remaining_of(jid)
        heap_rem[jid] = r
        heapq.heappush(kn_heap, (r, jid))

    def peek_known() -> tuple[Rat, int] | None:
        while kn_heap:
            r, jid = kn_heap[0]
            if jid in known_set and heap_rem.get(jid) == r:
                return r, jid
            heapq.heappop(kn_heap)
        return None

    def run_level() -> Rat:
        assert running is not None and running.off is not None
        # off is 0 for rr's group and for any group first run while acc
        # equals its level; a Fraction addition costs far more than the test
        return running.off + acc if running.off else acc

    def add_tier(group: _Group) -> None:
        group.off = None
        if group.level in tiers:
            tiers[group.level].absorb(group)
        else:
            tiers[group.level] = group
            insort(tier_vals, group.level)

    def new_group(ids: list[int], level: Rat) -> _Group:
        g = _Group(set(ids), level)
        for jid in ids:
            p = size[jid]
            if p is None:
                continue
            if jid in thr and jid not in known_logged:
                heapq.heappush(g.know, (thr[jid], jid))
            heapq.heappush(g.comp, (p, jid))
        return g

    def group_peek(heap: list[tuple[Rat, int]], g: _Group) -> Rat | None:
        while heap:
            key, jid = heap[0]
            if jid in g.members:
                return key
            heapq.heappop(heap)
        return None

    def pause_running() -> None:
        nonlocal running
        if running is not None:
            running.level = run_level()
            add_tier(running)
            running = None

    def activate_tier() -> None:
        nonlocal running
        assert running is None
        value = tier_vals.pop(0)
        running = tiers.pop(value)
        running.off = value - acc
        # absorb any group that sits exactly at the running level
        while tier_vals and tier_vals[0] == value:
            extra = tiers.pop(tier_vals.pop(0))
            running.absorb(extra)

    def complete(jid: int) -> None:
        nonlocal n_active, solo
        completions[jid] = t
        known_set.discard(jid)
        heap_rem.pop(jid, None)
        n_active -= 1
        if solo == jid:
            solo = None
        log("completion", jid)

    def mark_known(jid: int) -> None:
        if jid not in known_logged:
            known_logged.add(jid)
            log("known", jid)

    def arrive(jid: int) -> None:
        nonlocal n_active
        n_active += 1
        elapsed[jid] = ZERO
        log("arrival", jid)
        if srpt_like:
            known_set.add(jid)
            push_known(jid)
            if policy == "slf":  # eps == 1: sizes known on arrival
                mark_known(jid)
        elif policy == "rr":
            if jid in thr and thr[jid] <= 0:  # eps == 1: known on arrival
                mark_known(jid)
            rr_off[jid] = -acc
            assert running is not None
            running.members.add(jid)
            p = size[jid]
            if p is not None:
                if jid in thr and jid not in known_logged:
                    heapq.heappush(running.know, (thr[jid] - rr_off[jid], jid))
                heapq.heappush(running.comp, (p - rr_off[jid], jid))
        else:  # slf (eps < 1) / setf: a fresh zero-elapsed tier
            if jid in thr and thr[jid] <= 0:  # eps == 1 setf: known on arrival
                mark_known(jid)
            add_tier(new_group([jid], ZERO))

    def freeze_solo() -> None:
        nonlocal solo
        if solo is not None:
            push_known(solo)
            solo = None

    def in_window() -> bool:
        return window_idx < len(windows) and windows[window_idx][0] <= t

    # --- allocation for the segment starting at t ---------------------------

    def choose() -> tuple[dict, str]:
        nonlocal solo, running
        if in_window():
            freeze_solo()
            if policy in ("slf", "setf"):
                pause_running()
            return {}, "idle"
        if n_active == 0:
            return {}, "idle"
        if srpt_like:
            freeze_solo()
            top = peek_known()
            assert top is not None
            solo = top[1]
            return {solo: speed}, "solo"
        # the lowest-elapsed group runs (rr's one group never has tiers)
        if running is not None and tier_vals and tier_vals[0] < run_level():
            pause_running()
        if policy == "slf":
            freeze_solo()
            top = peek_known()
            if top is not None:
                level = run_level() if running is not None else None
                if tier_vals and (level is None or tier_vals[0] < level):
                    level = tier_vals[0]
                # run the known argmin when its remaining time is at most the
                # least lower-bound estimate of the unknown jobs (ties: known)
                if level is None or top[0] * (1 - eps) <= eps * level:
                    pause_running()
                    solo = top[1]
                    return {solo: speed}, "solo"
        if running is None:
            activate_tier()
        elif tier_vals and tier_vals[0] == run_level():
            extra = tiers.pop(tier_vals.pop(0))
            running.absorb(extra)
        k = len(running.members)
        rate = speed / k
        return {jid: rate for jid in running.members}, "pool"

    # --- earliest boundary after t for the chosen regime --------------------

    def next_boundary(regime: str) -> Rat:
        cands: list[Rat] = []
        if next_arrival_idx < len(arrival_times):
            cands.append(arrival_times[next_arrival_idx])
        if horizon is not None:
            cands.append(horizon)
        if regime == "idle":
            if in_window():
                cands.append(windows[window_idx][1])
        elif window_idx < len(windows):
            cands.append(windows[window_idx][0])
        if regime == "solo":
            assert solo is not None
            cands.append(t + remaining_of(solo) / speed)
            if solo in thr and solo not in known_logged:
                gap = thr[solo] - elapsed[solo]
                if gap > 0:
                    cands.append(t + gap / speed)
        elif regime == "pool":
            assert running is not None
            rate = speed / len(running.members)
            level = run_level()
            kk = group_peek(running.know, running)
            if kk is not None:
                cands.append(t + (kk - level) / rate)
            ck = group_peek(running.comp, running)
            if ck is not None:
                cands.append(t + (ck - level) / rate)
            if tier_vals:
                cands.append(t + (tier_vals[0] - level) / rate)
            if policy == "slf" and eps > 0:
                top = peek_known()
                if top is not None:
                    # estimates tie when the pool level reaches r*(1-e)/e
                    cands.append(t + (top[0] * (1 - eps) / eps - level) / rate)
        assert cands, "stalled: no candidate boundary"
        return min(cands)

    # --- main loop -----------------------------------------------------------

    if policy == "rr":
        running = _Group(set(), ZERO)
        running.off = ZERO

    while True:
        while (
            next_arrival_idx < len(arrival_times)
            and arrival_times[next_arrival_idx] == t
        ):
            for jid in batches[arrival_times[next_arrival_idx]]:
                arrive(jid)
            next_arrival_idx += 1
        while window_idx < len(windows) and windows[window_idx][1] <= t:
            window_idx += 1

        if horizon is not None and t >= horizon:
            break
        if n_active == 0 and next_arrival_idx >= len(arrival_times):
            break

        rates, regime = choose()
        t_next = next_boundary(regime)
        assert t_next > t, "no progress at a boundary"
        start = t

        if regime == "pool":
            acc += (t_next - t) * (speed / len(rates))
        elif regime == "solo":
            elapsed[solo] += (t_next - t) * speed
        t = t_next
        segments.append(Segment(start, t, rates))

        marked = False
        if window_idx < len(windows) and t in windows[window_idx]:
            log("forbidden")
            marked = True

        if regime == "pool":
            g = running
            level = run_level()
            while True:
                kk = group_peek(g.know, g)
                if kk is None or kk > level:
                    break
                _, jid = heapq.heappop(g.know)
                mark_known(jid)
                marked = True
                if policy == "slf":
                    g.members.discard(jid)
                    elapsed[jid] = level
                    known_set.add(jid)
                    push_known(jid)
            while True:
                ck = group_peek(g.comp, g)
                if ck is None or ck > level:
                    break
                _, jid = heapq.heappop(g.comp)
                # keys are absolute levels, so reaching one means the job is done
                assert ck == level
                g.members.discard(jid)
                elapsed[jid] = size[jid]
                complete(jid)
                marked = True
            if not g.members and policy != "rr":
                running = None
        elif regime == "solo":
            jid = solo
            assert jid is not None
            if jid in thr and jid not in known_logged and elapsed[jid] >= thr[jid]:
                mark_known(jid)
                marked = True
            if remaining_of(jid) == 0:
                complete(jid)
                marked = True

        if (
            next_arrival_idx < len(arrival_times)
            and arrival_times[next_arrival_idx] == t
        ):
            marked = True  # arrivals are logged at the top of the loop
        if horizon is not None and t == horizon:
            marked = True
        if not marked:
            log("mode")

    # materialize group members for the final snapshot
    final_elapsed = dict(elapsed)
    if running is not None:
        if policy == "rr":
            for jid in running.members:
                final_elapsed[jid] = rr_off[jid] + acc
        else:
            for jid in running.members:
                final_elapsed[jid] = run_level()
    for value, group in tiers.items():
        for jid in group.members:
            final_elapsed[jid] = value

    return Schedule(
        instance=inst,
        segments=segments,
        completions=completions,
        events=events,
        end_time=t,
        final_elapsed=final_elapsed,
    )


# --- queries over schedules -------------------------------------------------


def state_at(
    sched: Schedule,
    inst: Instance,
    t: Rat,
    release_cutoff: str = "all",
) -> dict[int, JobState]:
    """Active-job states at time t (work during [t-dt, t) included).

    `release_cutoff` picks which releases at exactly time t count as arrived:
      - "all": every epoch (the active-set convention |A(t)|),
      - "none": none; the state right before a batch at t arrives.
    """
    t = Fraction(t)
    if t < 0:
        raise SimulationError("state_at needs t >= 0")
    if release_cutoff not in ("all", "none"):
        raise SimulationError(f"bad release_cutoff {release_cutoff!r}")
    elapsed = sched.elapsed_at(t)
    eps = inst.epsilon
    out: dict[int, JobState] = {}
    for j in inst.jobs:
        rt = j.release.time
        if rt > t:
            continue
        if rt == t and release_cutoff == "none":
            continue
        e = elapsed.get(j.id, ZERO)
        if j.size is None:
            out[j.id] = JobState(j.id, e, None, False)
            continue
        r = j.size - e
        if r <= 0:
            continue
        out[j.id] = JobState(j.id, e, r, eps > 0 and e >= (1 - eps) * j.size)
    return out


def touched_jobs(sched: Schedule, start: Rat, end: Rat) -> set[int]:
    """Jobs receiving positive rate on a positive-measure subset of (start, end]."""
    start, end = Fraction(start), Fraction(end)
    if end < start:
        raise SimulationError("interval must have start <= end")
    out: set[int] = set()
    for seg in sched._segments_after(start) if end > start else ():
        if seg.start >= end:
            break
        out.update(jid for jid, rate in seg.rates.items() if rate > 0)
    return out


def export_segments_csv(sched: Schedule) -> str:
    from .core import rat_str

    lines = ["start,end,job_id,rate"]
    for seg in sched.segments:
        if not seg.rates:
            lines.append(f"{rat_str(seg.start)},{rat_str(seg.end)},,0")
        for jid in sorted(seg.rates):
            lines.append(
                f"{rat_str(seg.start)},{rat_str(seg.end)},{jid},{rat_str(seg.rates[jid])}"
            )
    return "\n".join(lines) + "\n"


def export_events_jsonl(sched: Schedule) -> str:
    import json

    from .core import rat_str

    lines = []
    for ev in sched.events:
        doc = {"t": rat_str(ev.t), "kind": ev.kind}
        if ev.job is not None:
            doc["job"] = ev.job
        lines.append(json.dumps(doc))
    return "\n".join(lines) + ("\n" if lines else "")
