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

The jobs that may run alone wait in one min-heap by (remaining, id), one
entry per waiting job: slf's known jobs, or every job under srpt (and slf at
eps = 1). The job running alone leaves the heap and keeps the machine until
it completes or a batch arrives; only an arrival returns it to the heap,
with its new remaining. Between arrivals its (remaining, id) only shrinks,
so it stays the minimum, and under slf the paused pool makes no job known.
A forbidden window idles the machine with the job still held.

A tier group's heaps (slf, setf) key a job by its integer rank in (size, id)
order, sorted once per run; for eps < 1 that is also the (threshold, id)
order, so heap moves compare integers and a Fraction level is read only at
the top. rr's one group keys by the level of its accumulator, which depends
on when the job arrived.

A boundary takes one conversion from work to time. The run's own next event
is the minimum of its targets in work units: the solo job's threshold or
size, or the pool's next knowledge, completion or tier level and slf's tie
level. It is divided by the rate once and compared with the next arrival,
the horizon and the window edge; when it wins, the group accumulator or the
solo job's elapsed advances by exactly that work.

A job whose size is known at elapsed 0 (eps = 1) is logged `known` on
arrival, under every policy. A segment end that logs no event of its own
(forbidden, known, completion), has no arrival and is not the horizon logs
`mode`: the allocation changes there.

Every policy runs one job or shares the speed equally in one pool, so a
`Segment` is (start, end, rate, jobs), and a reader multiplies once per
segment. `Schedule.jobs_before(t)` names the jobs that ran right before t.

Two kinds of query read the segments. Random access, for a time asked on
its own: `Schedule.elapsed_at` answers from a checkpoint index of cumulative
elapsed work, and `active_count` bisects the sorted release and completion
times. The index is built by a schedule's first query, never by `simulate`,
so runs that only read completions pay nothing.
A checkpoint is taken once the job entries replayed since the last one are
at least the size of the running elapsed dict. The checkpoints then hold no
more entries than the segments' job tuples, and a query copies one
checkpoint and replays fewer than 2n job entries past it (n jobs): O(n)
work instead of a walk from time 0.

`state_at` is its argument checks, then one `elapsed_at` walk, then the
builder `states_from_elapsed`, which turns an elapsed map at t into job
states. A caller that already holds the elapsed map (the certifier's
snapshot cache) calls the builder alone and walks no second time.

Ascending times, for a whole sorted list at once: `active_counts` and
`elapsed_changes` answer it in one forward walk, with no index and no copy
per time. `elapsed_changes` yields only the jobs whose elapsed work changed
since the previous time, so a caller that keeps a running dict compares
only those. `metrics.count_profile` and `reduction.setfi_vs_setf` use these.

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
            work = seg.rate * ((seg.end if seg.end <= t else t) - seg.start)
            for jid in seg.jobs:
                elapsed[jid] = elapsed.get(jid, ZERO) + work
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
                work = seg.rate * (seg.end - seg.start)
                for jid in seg.jobs:
                    running[jid] = running.get(jid, ZERO) + work
                since += len(seg.jobs)
                if since and since >= len(running):
                    seg_idx.append(i)
                    snaps.append(dict(running))
                    since = 0
            self._checkpoints = (seg_idx, snaps)
        return self._checkpoints

    # other modules read segments only through these queries

    def active_counts(self, times):
        """Yield `active_count(t)` for each t of `times`, which must be in
        ascending order: one forward walk over the sorted release and
        completion times, not two bisects per t."""
        rel, comp = self._release_times, self._completion_times
        r = c = 0
        for t in times:
            while r < len(rel) and rel[r] <= t:
                r += 1
            while c < len(comp) and comp[c] <= t:
                c += 1
            yield r - c

    def elapsed_changes(self, times):
        """Yield, for each t of `times` (ascending), {job: elapsed at t} for
        the jobs whose elapsed work changed since the previous t (since 0 for
        the first t); applying every yield in turn to one dict gives
        `elapsed_at(t)`. One forward walk: whole segments ending at or before
        t join a running dict, the segment holding t is counted up to t
        without being stored, and nothing is copied per t."""
        segs = self.segments
        done: dict[int, Rat] = {}
        i = 0
        prev = None
        for t in times:
            changed: dict[int, Rat] = {}
            if t == prev:
                yield changed
                continue
            prev = t
            while i < len(segs) and segs[i].end <= t:
                seg = segs[i]
                work = seg.rate * (seg.end - seg.start)
                for jid in seg.jobs:
                    changed[jid] = done[jid] = done.get(jid, ZERO) + work
                i += 1
            if i < len(segs) and segs[i].start < t:
                seg = segs[i]
                work = seg.rate * (t - seg.start)
                for jid in seg.jobs:
                    changed[jid] = done.get(jid, ZERO) + work
            yield changed

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


class _Group:
    """Jobs sharing one elapsed level, advanced in fluid round-robin.

    The heaps hold (key, id) entries whose keys never change, so a group can
    be paused and resumed in O(1) without re-keying; the level a top entry
    waits for is looked up by id (see `know_at` and `comp_at` in `simulate`).
    """

    __slots__ = ("members", "know", "comp", "level", "off")

    def __init__(self, members: set[int], level: Rat):
        self.members = members
        self.know: list[tuple] = []
        self.comp: list[tuple] = []
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
    # slf: a known job with remaining r ties the unknown jobs at level
    # r * tie_ratio
    tie_ratio = (1 - eps) / eps if eps > 0 else None

    # Group heap keys, and where the level of a key is read. A tier group
    # (slf, setf) keys a job by its rank in (size, id) order, which for eps < 1
    # is also the (threshold, id) order, and reads thr / size at the top. rr's
    # one group keys by the level of acc that depends on the arrival time.
    know_at, comp_at = thr, size
    if policy == "rr":
        know_at, comp_at = {}, {}
    elif not srpt_like:

        def size_key(jid: int) -> tuple[int, Rat]:
            # floor(p * 2**64) orders the sizes it tells apart with one
            # integer comparison; only equal floors compare the Fractions
            p = size[jid]
            return (p.numerator << 64) // p.denominator, p

        declared = sorted(jid for jid, p in size.items() if p is not None)
        rank = {jid: r for r, jid in enumerate(sorted(declared, key=size_key))}

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

    # waiting known jobs (slf) or all waiting jobs (srpt-like), one entry
    # each: min-heap by (remaining, id); the solo job is out of it
    kn_heap: list[tuple[Rat, int]] = []
    solo: int | None = None

    # rr: a member's elapsed is rr_off + acc; read only by the final
    # snapshot of a cut run
    rr_off: dict[int, Rat] = {}

    segments: list[Segment] = []
    events: list[Event] = []

    def log(kind: str, job: int | None = None) -> None:
        events.append(Event(t, kind, job))

    def push_known(jid: int) -> None:
        heapq.heappush(kn_heap, (size[jid] - elapsed[jid], jid))

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

    def new_group(jid: int) -> _Group:
        g = _Group({jid}, ZERO)
        if size[jid] is not None:
            key = (rank[jid], jid)
            if jid in thr and jid not in known_logged:
                g.know.append(key)
            g.comp.append(key)
        return g

    def group_peek(heap: list[tuple], g: _Group, level_of: dict[int, Rat]) -> Rat | None:
        """The level the first member of `heap` waits for; drops the entries
        of jobs that left `g` on the way."""
        while heap:
            jid = heap[0][1]
            if jid in g.members:
                return level_of[jid]
            heapq.heappop(heap)
        return None

    def pause_running(level: Rat) -> None:
        nonlocal running
        assert running is not None
        running.level = level
        add_tier(running)
        running = None

    def activate_tier() -> Rat:
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
        elapsed[jid] = ZERO
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
            if p is not None:
                if jid in thr and jid not in known_logged:
                    know_at[jid] = thr[jid] + acc
                    heapq.heappush(running.know, (know_at[jid], jid))
                comp_at[jid] = p + acc
                heapq.heappush(running.comp, (comp_at[jid], jid))
        else:  # slf (eps < 1) / setf: a fresh zero-elapsed tier
            add_tier(new_group(jid))

    def in_window() -> bool:
        return window_idx < len(windows) and windows[window_idx][0] <= t

    # --- allocation for the segment starting at t ---------------------------

    def choose() -> tuple[Rat, tuple[int, ...], str, Rat | None, Rat | None]:
        """(rate, jobs, regime, goal, work) of the segment starting at t.

        goal is the elapsed (solo) or group level (pool) at which the run's
        own next event falls, and work the per-job work up to it; both are
        None when no such event is pending.
        """
        nonlocal running, solo
        if in_window():
            if policy in ("slf", "setf") and running is not None:
                pause_running(run_level())
            return ZERO, (), "idle", None, None
        level = tie = None
        if solo is None and n_active == 0:
            return ZERO, (), "idle", None, None
        if solo is None and srpt_like:
            solo = heapq.heappop(kn_heap)[1]
        elif solo is None:
            # the lowest-elapsed group runs (rr's one group never has tiers)
            if running is not None:
                level = run_level()
                if tier_vals and tier_vals[0] < level:
                    pause_running(level)
                    level = None
            if policy == "slf" and kn_heap:
                least = tier_vals[0] if level is None and tier_vals else level
                tie = kn_heap[0][0] * tie_ratio
                # run the known argmin when its remaining time is at most the
                # least lower-bound estimate of the unknown jobs (ties: known)
                if least is None or tie <= least:
                    if level is not None:
                        pause_running(level)
                    solo = heapq.heappop(kn_heap)[1]
        if solo is not None:
            # the solo job keeps the machine until it completes or a batch
            # arrives: its (remaining, id) only shrinks, and under slf the
            # paused pool makes no job known
            if solo in thr and solo not in known_logged:
                goal = thr[solo]
            else:
                goal = size[solo]
            return speed, (solo,), "solo", goal, goal - elapsed[solo]
        if level is None:
            level = activate_tier()
        elif tier_vals and tier_vals[0] == level:
            running.absorb(tiers.pop(tier_vals.pop(0)))
        goals = [
            x
            for x in (
                group_peek(running.know, running, know_at),
                group_peek(running.comp, running, comp_at),
                tier_vals[0] if tier_vals else None,
                tie,  # slf: the estimates tie at this level
            )
            if x is not None
        ]
        rate = speed / len(running.members)
        if not goals:
            return rate, tuple(running.members), "pool", None, None
        goal = min(goals)
        return rate, tuple(running.members), "pool", goal, goal - level

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

        rate, jobs, regime, goal, work = choose()
        # the first boundary set from outside the run: arrival, horizon or
        # window edge; the run's own goal takes one conversion to time
        outside: list[Rat] = []
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
            t_hit = t + work / rate
            if stop is None or t_hit <= stop:
                stop, hit = t_hit, True
        assert stop is not None, "stalled: no candidate boundary"
        assert stop > t, "no progress at a boundary"
        # reaching the goal advances by the work already known, exactly
        if regime == "pool":
            acc += work if hit else (stop - t) * rate
        elif regime == "solo":
            elapsed[solo] = goal if hit else elapsed[solo] + (stop - t) * rate
        start, t = t, stop
        segments.append(Segment(start, t, rate, jobs))
        n_events = len(events)
        if window_idx < len(windows) and t in windows[window_idx]:
            log("forbidden")

        if hit and regime == "pool":
            g = running
            while True:
                kk = group_peek(g.know, g, know_at)
                if kk is None or kk > goal:
                    break
                jid = heapq.heappop(g.know)[1]
                mark_known(jid)
                if policy == "slf":
                    g.members.discard(jid)
                    elapsed[jid] = goal
                    push_known(jid)
            while True:
                ck = group_peek(g.comp, g, comp_at)
                if ck is None or ck > goal:
                    break
                jid = heapq.heappop(g.comp)[1]
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
    return states_from_elapsed(inst, t, sched.elapsed_at(t), release_cutoff)


def states_from_elapsed(
    inst: Instance, t: Rat, elapsed, release_cutoff: str = "all"
) -> dict[int, JobState]:
    """The states `state_at` returns, built from `elapsed`, the elapsed work
    per job at t (a job it omits has none); no argument checks, no walk."""
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
    """Jobs that run on a positive-measure subset of (start, end]."""
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
