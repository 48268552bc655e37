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

Every heap entry is `_entry(level, id)` = (floor(level * 2**64), level,
id). Its order is exactly the (level, id) order, and a heap move compares
two ints unless the floors tie, i.e. unless the levels agree in their first
64 binary digits. On the integer clock (below) most levels are ints, and
two ints tie on the floor only when they are equal.

The jobs that may run alone wait in one such min-heap by (remaining, id),
one entry per waiting job: slf's known jobs, or every job under srpt (and
slf at eps = 1). The job running alone leaves the heap and keeps the machine
until it completes or a batch arrives; only an arrival returns it to the
heap, with its new remaining. Between arrivals its (remaining, id) only
shrinks, so it stays the minimum, and under slf the paused pool makes no job
known. A forbidden window idles the machine with the job still held.

A group's two heaps hold the level at which each member becomes known and
completes, and a group reads the level its top entry waits for from the
entry. A tier group's (slf, setf) levels are its members' thresholds and
sizes; rr's one group holds absolute accumulator levels, which depend on
when a job arrived. Paused tier groups are keyed by their level, an int or
a Fraction, which hash and compare equal when their values are.

The engine runs on an integer clock. L is the lcm of every release, size,
horizon and window-endpoint denominator, times eps's; for speed c/d a time
runs as t * L * c and a work as w * L * d, so every job runs at unit speed
and each threshold (1 - eps) * p is an int. The run's own next event is the
minimum of its targets in work units (the solo job's threshold or size, or
the pool's next knowledge, completion or tier level and slf's tie level).
Work w to go lies w time units away for a solo job and w * k for a pool of
k, and is compared with the next arrival, the horizon and the window edge.
A value leaves the integers only through `_div`, the one division: where a
pool cut short advances its accumulator by dt / k, and at slf's tie level
r * (b - a) / a (eps = a/b). It returns an int when exact, else a Fraction,
never a float. `Schedule` holds completions, end_time and final_elapsed as
Fractions and the run in engine units; the first read of `segments` or
`events` builds both, one Fraction per segment end, and drops the run.

A job whose size is known at elapsed 0 (eps = 1) is logged `known` on
arrival, under every policy. A segment end that logs no event of its own
(forbidden, known, completion), has no arrival and is not the horizon logs
`mode`: the allocation changes there.

Every policy runs one job or shares the speed equally in one pool, so a
`Segment` is (start, end, rate, jobs), and a reader multiplies once per
segment. `Schedule.jobs_before(t)` names the jobs that ran right before t.

A time asked on its own goes to `Schedule.elapsed_at`, answered from
checkpoints of cumulative elapsed work that the first query builds (never
`simulate`), or to `active_count`, which counts the releases and the
completions up to t. A checkpoint is taken once the job entries replayed
since the last one reach the size of the running elapsed dict, so the
checkpoints hold no more entries than the segments' job tuples and a query
replays fewer than 2n job entries (n jobs). One pass of
`states_from_elapsed` over the jobs builds both queue views at t from one
elapsed map: every release at t arrived, and right before that batch.
`state_at` is its argument checks, one `elapsed_at` and the first view;
callers holding the elapsed map (the certifier, and the adversary for every
queue it reads) call the builder alone.

The boundaries of several schedules go to `merge_grid`, which merges them
once into a `Grid`: deduped by (numerator, denominator), ordered by the
`_entry` floor and read as integer positions, so its readers compare no
times: `metrics.grid_counts` sums counts over positions and `Grid.steps`
gives a schedule's work at each.
Segments tile [0, end_time], so `Schedule.boundaries` is 0 followed by the
segment ends, with no merge or sort.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import islice
from math import lcm
from operator import attrgetter
from typing import NamedTuple

from .core import Instance, Rat

ZERO = Fraction(0)
_NO_WORK = (ZERO, ())

POLICIES = ("slf", "srpt", "setf", "rr")


class SimulationError(ValueError):
    pass


@dataclass(frozen=True, slots=True)
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
    rate: Rat  # work units per time unit of each job; 0 exactly when idle
    jobs: tuple[int, ...]  # in the engine's member order; empty when idle

    @property
    def rates(self) -> dict[int, Rat]:
        """Job id -> rate, built per read: the package never reads it; the
        benchmark's rate-entry and denominator counts and tests do."""
        return dict.fromkeys(self.jobs, self.rate)


_END = attrgetter("end")


class _Run:
    """A run in engine units: the time unit, the speed, each segment as
    (end, jobs) and each event as (segments before it, kind, job). The first
    read of `views` builds the segments and events and drops the run."""

    def __init__(self, *parts):
        self._parts = parts

    @cached_property
    def views(self) -> tuple[list[Segment], list[Event]]:
        unit, speed, run, logged = self._parts
        del self._parts
        rates = {k: speed / k if k else ZERO for k in {len(jobs) for _, jobs in run}}
        segments: list[Segment] = []
        start = ZERO
        for end, jobs in run:
            end = Fraction(end, unit)  # one Fraction per distinct time
            segments.append(Segment(start, end, rates[len(jobs)], jobs))
            start = end
        events = [Event(segments[i - 1].end if i else ZERO, *ev) for i, *ev in logged]
        return segments, events


@dataclass(eq=False)  # compared by identity: its engine-unit run has no value equality
class Schedule:
    instance: Instance
    completions: dict[int, Rat]
    end_time: Rat
    final_elapsed: dict[int, Rat]  # exact elapsed at end_time, all released jobs
    run: _Run = field(repr=False)  # read through `segments` and `events`

    @cached_property
    def segments(self) -> list[Segment]:
        return self.run.views[0]

    @cached_property
    def events(self) -> list[Event]:
        return self.run.views[1]

    def boundaries(self) -> list[Rat]:
        """0 and every segment end, in time order: segments tile
        [0, end_time], each starting where the previous one ends."""
        return [ZERO, *map(_END, self.segments)]

    def active_count(self, t: Rat) -> int:
        """|{j : released by t, remaining > 0 at t}| (arrivals at t included):
        the releases up to t minus the completions up to t."""
        released = sum(j.release.time <= t for j in self.instance.jobs)
        return released - sum(c <= t for c in self.completions.values())

    def elapsed_at(self, t: Rat) -> dict[int, Rat]:
        """Exact elapsed work per job, counting work during [0, t).

        Copies the last checkpoint at or before the segment holding t and
        replays the segments after it; the caller owns the returned dict.
        """
        seg_idx, snaps = self._index
        hold = bisect_left(self.segments, t, key=_END)  # first with end >= t
        c = bisect_right(seg_idx, hold) - 1
        elapsed = dict(snaps[c])
        for seg in islice(self.segments, seg_idx[c], hold + 1):
            if seg.start >= t:
                break
            work = seg.rate * ((seg.end if seg.end <= t else t) - seg.start)
            for jid in seg.jobs:
                elapsed[jid] = elapsed.get(jid, ZERO) + work
        return elapsed

    @cached_property
    def _index(self) -> tuple[list[int], list[dict[int, Rat]]]:
        """Checkpoints (i, elapsed over segments[:i]), built on first use;
        see the module docstring for when a checkpoint is taken."""
        seg_idx: list[int] = [0]
        snaps: list[dict[int, Rat]] = [{}]
        running: dict[int, Rat] = {}
        since = 0
        for i, seg in enumerate(self.segments, 1):
            work = seg.rate * (seg.end - seg.start)
            for jid in seg.jobs:
                running[jid] = running.get(jid, ZERO) + work
            since += len(seg.jobs)
            if since and since >= len(running):
                seg_idx.append(i)
                snaps.append(dict(running))
                since = 0
        return seg_idx, snaps

    # other modules read segments only through these queries

    def _segments_after(self, t: Rat):
        """Segments with end > t, in time order."""
        return islice(self.segments, bisect_right(self.segments, t, key=_END), None)

    def jobs_before(self, t: Rat) -> tuple[int, ...]:
        """Jobs of the segment with start < t <= end (the work right before
        t); empty when that segment is idle or t is outside (0, end_time]."""
        i = bisect_left(self.segments, t, key=_END)
        if i < len(self.segments) and self.segments[i].start < t:
            return self.segments[i].jobs
        return ()

    def last_touch(self, job: int, t: Rat) -> Rat | None:
        """The end, capped at t, of the last segment starting before t that
        runs `job`; None if the job does not run before t."""
        segs = self.segments
        for i in range(min(bisect_left(segs, t, key=_END), len(segs) - 1), -1, -1):
            seg = segs[i]
            if seg.start < t and job in seg.jobs:
                return min(seg.end, t)
        return None

    def solo_runs(self, start: Rat):
        """(start, end, job) for each segment with end > `start`, in time
        order; `job` is the only job that runs, or None when the segment is
        idle or shared."""
        for seg in self._segments_after(start):
            job = seg.jobs[0] if len(seg.jobs) == 1 else None
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
            work = seg.rate * (seg.end - lo)
            for jid in seg.jobs:
                if jid not in levels or jid in out:
                    continue
                need = levels[jid] - done.get(jid, ZERO)
                if need <= work:
                    out[jid] = lo + need / seg.rate
                else:
                    done[jid] = done.get(jid, ZERO) + work
            if len(out) == len(levels):
                break
        return out


def _entry(level, jid: int) -> tuple:
    """A heap entry ordered exactly as (level, jid): floor(level * 2**64)
    settles most comparisons as integers; only equal floors compare the
    levels, and only equal levels the ids. An int level takes no division."""
    if type(level) is int:
        return level << 64, level, jid
    return (level.numerator << 64) // level.denominator, level, jid


def _div(x, k: int):
    """x / k exactly: an int when k divides the int x, else a Fraction. The
    engine's one division, so it never makes a float."""
    if type(x) is int and not x % k:
        return x // k
    return Fraction(x, k)


def _ascending(times) -> tuple[list[Rat], dict[tuple[int, int], int]]:
    """The distinct `times`, ascending, and the index of each by (numerator,
    denominator); two times compare only when their `_entry` floors tie."""
    distinct = {(t.numerator, t.denominator): t for t in times}
    order = sorted(distinct, key=lambda k: _entry(distinct[k], 0))
    return [distinct[k] for k in order], {k: i for i, k in enumerate(order)}


class Grid(NamedTuple):
    """Schedules' boundaries merged once: the distinct `times` in order,
    `positions[k]` the index in `times` of each boundary of `schedules[k]`,
    and `index` the index of each time by (numerator, denominator)."""

    schedules: tuple[Schedule, ...]
    times: list[Rat]
    positions: list[list[int]]
    index: dict[tuple[int, int], int]

    def position(self, t: Rat) -> int:
        """The index of the first grid time >= t; len(times) past the end."""
        i = self.index.get((t.numerator, t.denominator))
        return bisect_left(self.times, t) if i is None else i

    def steps(self, k: int, qs):
        """Yield, for each q of the ascending `qs` (which hold every position
        of schedule k), two (work per job, jobs) pairs: the segment ending at
        q, whole, and the one holding times[q] inside it, up to times[q]."""
        segs, pos, times = self.schedules[k].segments, self.positions[k], self.times
        s = 0
        for q in qs:
            ended = inside = _NO_WORK
            if s < len(segs) and pos[s + 1] == q:
                seg = segs[s]
                ended = seg.rate * (seg.end - seg.start), seg.jobs
                s += 1
            if s < len(segs) and pos[s] < q and segs[s].jobs:
                seg = segs[s]
                inside = seg.rate * (times[q] - seg.start), seg.jobs
            yield ended, inside


def merge_grid(*schedules: Schedule) -> Grid:
    """The `Grid` of the schedules' boundaries (see the module docstring)."""
    bounds = [s.boundaries() for s in schedules]
    times, index = _ascending(t for b in bounds for t in b)
    positions = [[index[t.numerator, t.denominator] for t in b] for b in bounds]
    return Grid(schedules, times, positions, index)


class _Group:
    """Jobs sharing one elapsed level, advanced in fluid round-robin.

    The heaps hold `_entry(level, id)` entries whose levels never change,
    so a group can be paused and resumed in O(1) without re-keying; the
    level a top entry waits for is read from the entry. A tier group's
    levels are its members' thresholds and sizes; rr's are absolute
    accumulator levels.
    """

    __slots__ = ("members", "know", "comp", "level", "off")

    def __init__(self, members: set[int], level):
        self.members = members
        self.know: list[tuple] = []
        self.comp: list[tuple] = []
        self.level = level  # static elapsed while paused
        self.off = None  # level = off + acc while running

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

    # the run's units (see the module docstring): time * L * c and work * L * d
    # for speed c/d, so every job runs at unit speed
    a, b = eps.numerator, eps.denominator
    horizon = None if horizon is None else Fraction(horizon)
    inputs = [x for j in inst.jobs for x in (j.release.time, j.size)]
    inputs += [x for window in forbidden.intervals for x in window] + [horizon]
    unit = b * lcm(*(x.denominator for x in inputs if x is not None))
    tu, wu = unit * speed.numerator, unit * speed.denominator

    def scaled(x: Rat | None, u: int) -> int | None:
        return None if x is None else x.numerator * (u // x.denominator)

    horizon = scaled(horizon, tu)
    size = {j.id: scaled(j.size, wu) for j in inst.jobs}
    # knowledge threshold: known iff elapsed >= (1-eps) * p (declared, eps > 0)
    thr = {jid: p * (b - a) // b for jid, p in size.items() if p is not None and a}

    # arrival batches in time order, each in (epoch, id) order
    by_time: dict[int, list[int]] = {}
    for j in sorted(inst.jobs, key=lambda j: (j.release.epoch, j.id)):
        by_time.setdefault(scaled(j.release.time, tu), []).append(j.id)
    arrival_times = sorted(by_time)
    batches = [by_time[x] for x in arrival_times]
    next_arrival_idx = 0

    windows = [(scaled(lo, tu), scaled(hi, tu)) for lo, hi in forbidden.intervals]
    window_idx = 0

    t = 0
    elapsed: dict = {}  # materialized elapsed (jobs outside groups)
    completions: dict = {}
    known_logged: set[int] = set()
    n_active = 0

    acc = 0  # per-member work accumulated by the running group
    running: _Group | None = None  # slf (unknown pool) / setf / rr
    # paused groups (slf/setf) by elapsed level, and their levels ascending
    tiers: dict = {}
    tier_vals: list = []

    # waiting known jobs (slf) or all waiting jobs (srpt-like), one entry
    # each: min-heap of `_entry(remaining, id)`; the solo job is out of it
    kn_heap: list[tuple] = []
    solo: int | None = None

    # rr: a member's elapsed is rr_off + acc; read only by the final
    # snapshot of a cut run
    rr_off: dict = {}

    # the run: each segment's (end, jobs); each event's segment count
    run: list[tuple] = []
    events: list[tuple[int, str, int | None]] = []

    def log(kind: str, job: int | None = None) -> None:
        events.append((len(run), kind, job))

    def push_known(jid: int) -> None:
        heapq.heappush(kn_heap, _entry(size[jid] - elapsed[jid], jid))

    def run_level():
        assert running is not None and running.off is not None
        # rr's group runs at off = 0 while acc leaves the grid, so without
        # the test `0 + acc` would build a new Fraction on every pool segment
        return running.off + acc if running.off else acc

    def add_tier(group: _Group) -> None:
        group.off = None
        tier = tiers.setdefault(group.level, group)
        if tier is group:
            insort(tier_vals, group.level)
        else:
            tier.absorb(group)

    def new_group(jid: int) -> _Group:
        g = _Group({jid}, 0)
        p = size[jid]
        if p is not None:
            if jid in thr and jid not in known_logged:
                g.know.append(_entry(thr[jid], jid))
            g.comp.append(_entry(p, jid))
        return g

    def group_peek(heap: list[tuple], g: _Group):
        """The level the first member of `heap` waits for; drops the entries
        of jobs that left `g` on the way."""
        while heap:
            _, level, jid = heap[0]
            if jid in g.members:
                return level
            heapq.heappop(heap)
        return None

    def pause_running(level) -> None:
        nonlocal running
        assert running is not None
        running.level = level
        add_tier(running)
        running = None

    def activate_tier():
        nonlocal running
        assert running is None
        value = tier_vals.pop(0)
        running = tiers.pop(value)
        running.off = value - acc
        return value

    def complete(jid: int) -> None:
        nonlocal n_active
        completions[jid] = t
        n_active -= 1
        log("completion", jid)

    def mark_known(jid: int) -> None:
        if jid not in known_logged:
            known_logged.add(jid)
            log("known", jid)

    def arrive(jid: int) -> None:
        nonlocal n_active, solo
        if solo is not None:  # an arrival is what ends a solo run early
            push_known(solo)
            solo = None
        n_active += 1
        elapsed[jid] = 0
        log("arrival", jid)
        if thr.get(jid) == 0:  # eps == 1: known on arrival, for every policy
            mark_known(jid)
        if srpt_like:
            push_known(jid)
        elif policy == "rr":
            rr_off[jid] = -acc
            assert running is not None
            running.members.add(jid)
            p = size[jid]
            if p is not None:  # keys are absolute levels of acc
                if jid in thr and jid not in known_logged:
                    heapq.heappush(running.know, _entry(thr[jid] + acc, jid))
                heapq.heappush(running.comp, _entry(p + acc, jid))
        else:  # slf (eps < 1) / setf: a fresh zero-elapsed tier
            add_tier(new_group(jid))

    def in_window() -> bool:
        return window_idx < len(windows) and windows[window_idx][0] <= t

    # --- allocation for the segment starting at t ---------------------------

    def choose() -> tuple[tuple[int, ...], str, object, object]:
        """(jobs, regime, goal, work) of the segment starting at t.

        goal is the elapsed (solo) or group level (pool) at which the run's
        own next event falls, and work the per-job work up to it; both are
        None when no such event is pending.
        """
        nonlocal running, solo
        if in_window():
            if policy in ("slf", "setf") and running is not None:
                pause_running(run_level())
            return (), "idle", None, None
        level = tie = None
        if solo is None and n_active == 0:
            return (), "idle", None, None
        if solo is None and srpt_like:
            solo = heapq.heappop(kn_heap)[2]
        elif solo is None:
            # the lowest-elapsed group runs (rr's one group never has tiers)
            if running is not None:
                level = run_level()
                if tier_vals and tier_vals[0] < level:
                    pause_running(level)
                    level = None
            if policy == "slf" and kn_heap:
                least = tier_vals[0] if level is None and tier_vals else level
                # remaining r ties the unknown jobs at level r * (1-eps)/eps
                tie = _div(kn_heap[0][1] * (b - a), a)
                # run the known argmin when its remaining time is at most the
                # least lower-bound estimate of the unknown jobs (ties: known)
                if least is None or tie <= least:
                    if level is not None:
                        pause_running(level)
                    solo = heapq.heappop(kn_heap)[2]
        if solo is not None:
            # the solo job keeps the machine until it completes or a batch
            # arrives: its (remaining, id) only shrinks, and under slf the
            # paused pool makes no job known
            if solo in thr and solo not in known_logged:
                goal = thr[solo]
            else:
                goal = size[solo]
            return (solo,), "solo", goal, goal - elapsed[solo]
        if level is None:
            level = activate_tier()
        elif tier_vals and tier_vals[0] == level:
            running.absorb(tiers.pop(level))
            tier_vals.pop(0)
        goals = [
            x
            for x in (
                group_peek(running.know, running),
                group_peek(running.comp, running),
                tier_vals[0] if tier_vals else None,
                tie,  # slf: the estimates tie at this level
            )
            if x is not None
        ]
        if not goals:
            return tuple(running.members), "pool", None, None
        goal = min(goals)
        return tuple(running.members), "pool", goal, goal - level

    # --- main loop -----------------------------------------------------------

    if policy == "rr":
        running = _Group(set(), 0)
        running.off = 0

    while True:
        while (
            next_arrival_idx < len(arrival_times)
            and arrival_times[next_arrival_idx] == t
        ):
            for jid in batches[next_arrival_idx]:
                arrive(jid)
            next_arrival_idx += 1
        while window_idx < len(windows) and windows[window_idx][1] <= t:
            window_idx += 1

        if horizon is not None and t >= horizon:
            break
        if n_active == 0 and next_arrival_idx >= len(arrival_times):
            break

        jobs, regime, goal, work = choose()
        # the first boundary set from outside the run: arrival, horizon or
        # window edge; at unit speed the run's own goal is work * k away
        outside: list = []
        if next_arrival_idx < len(arrival_times):
            outside.append(arrival_times[next_arrival_idx])
        if horizon is not None:
            outside.append(horizon)
        if regime == "idle":
            if in_window():
                outside.append(windows[window_idx][1])
        elif window_idx < len(windows):
            outside.append(windows[window_idx][0])
        stop = min(outside) if outside else None
        hit = False
        if work is not None:
            t_hit = t + work * len(jobs)
            if stop is None or t_hit <= stop:
                stop, hit = t_hit, True
        assert stop is not None, "stalled: no candidate boundary"
        assert stop > t, "no progress at a boundary"
        # reaching the goal sets the level to it, exactly; otherwise the run
        # advances by the time over k, which can leave the grid
        if regime == "pool":
            if hit:
                acc = goal - running.off
            else:
                acc += _div(stop - t, len(jobs))
        elif regime == "solo":
            elapsed[solo] = goal if hit else elapsed[solo] + (stop - t)
        t = stop
        run.append((t, jobs))
        n_events = len(events)
        if window_idx < len(windows) and t in windows[window_idx]:
            log("forbidden")

        if hit and regime == "pool":
            g = running
            while True:
                kk = group_peek(g.know, g)
                if kk is None or kk > goal:
                    break
                jid = heapq.heappop(g.know)[2]
                mark_known(jid)
                if policy == "slf":
                    g.members.discard(jid)
                    elapsed[jid] = goal
                    push_known(jid)
            while True:
                ck = group_peek(g.comp, g)
                if ck is None or ck > goal:
                    break
                jid = heapq.heappop(g.comp)[2]
                # keys are absolute levels, so reaching one means the job is done
                assert ck == goal
                g.members.discard(jid)
                elapsed[jid] = size[jid]
                complete(jid)
            if not g.members and policy != "rr":
                running = None
        elif hit and regime == "solo":
            # the goal was the threshold while unknown, else the size
            if solo in thr and solo not in known_logged:
                mark_known(solo)
            else:
                complete(solo)
                solo = None

        # a boundary with no event of its own, no arrival (logged at the top
        # of the loop) and short of the horizon is a change of allocation
        if len(events) == n_events and (horizon is None or t != horizon):
            i = next_arrival_idx
            if i == len(arrival_times) or arrival_times[i] != t:
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
    for group in tiers.values():
        for jid in group.members:
            final_elapsed[jid] = group.level

    return Schedule(
        inst,
        {jid: Fraction(x, tu) for jid, x in completions.items()},
        Fraction(t, tu),
        {
            jid: inst.job(jid).size if jid in completions else Fraction(e, wu)
            for jid, e in final_elapsed.items()
        },
        _Run(tu, speed, run, events),
    )


# --- queries over schedules -------------------------------------------------


def state_at(sched: Schedule, inst: Instance, t: Rat) -> dict[int, JobState]:
    """Active-job states at time t (work during [t-dt, t) included), with
    every release at t arrived: the active-set convention |A(t)|."""
    t = Fraction(t)
    if t < 0:
        raise SimulationError("state_at needs t >= 0")
    return states_from_elapsed(inst, t, sched.elapsed_at(t))[0]


def states_from_elapsed(
    inst: Instance, t: Rat, elapsed
) -> tuple[dict[int, JobState], dict[int, JobState]]:
    """Both queue views at t, built in one pass from `elapsed`, the elapsed
    work per job at t (a job it omits has none); no argument checks, no walk.
    `states` has every release at t arrived (what `state_at` returns);
    `before` is the queue right before the batch released at t arrives, and
    is `states` itself when no job is released at t. The certifier and the
    adversary read every queue through it.

    A release rt is tested against t as rt.n * t.d against t.n * rt.d on
    numerators (n) and denominators (d). A declared job is known iff eps > 0
    and e >= (1 - eps) * p: with eps = a/b, e.n * b * p.d >= (b - a) * p.n *
    e.d. Each is one exact integer comparison per job."""
    a, b = inst.epsilon.numerator, inst.epsilon.denominator
    keep = b - a
    tn, td = t.numerator, t.denominator
    states: dict[int, JobState] = {}
    before = states  # split off at the first job released at t
    for j in inst.jobs:
        rt = j.release.time
        x, y = rt.numerator * td, tn * rt.denominator
        if x > y:
            continue
        at_t = x == y
        if at_t and before is states:
            before = dict(states)
        e = elapsed.get(j.id, ZERO)
        p = j.size
        if p is None:
            st = JobState(j.id, e, None, False)
        else:
            r = p - e
            if r.numerator <= 0:
                continue
            known = e.numerator * b * p.denominator >= keep * p.numerator * e.denominator
            st = JobState(j.id, e, r, a > 0 and known)
        states[j.id] = st
        if not at_t and before is not states:
            before[j.id] = st
    return states, before


def touched_jobs(sched: Schedule, start: Rat, end: Rat) -> set[int]:
    """Jobs that run on a positive-measure subset of (start, end]."""
    if type(start) is not Fraction or type(end) is not Fraction:
        start, end = Fraction(start), Fraction(end)
    if end < start:
        raise SimulationError("interval must have start <= end")
    out: set[int] = set()
    for seg in sched._segments_after(start) if end > start else ():
        if seg.start >= end:
            break
        out.update(seg.jobs)
    return out


def export_segments_csv(sched: Schedule) -> str:
    from .core import rat_str

    lines = ["start,end,job_id,rate"]
    for seg in sched.segments:
        span = f"{rat_str(seg.start)},{rat_str(seg.end)}"
        if not seg.jobs:
            lines.append(f"{span},,0")
        rate = rat_str(seg.rate)
        lines.extend(f"{span},{jid},{rate}" for jid in sorted(seg.jobs))
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
