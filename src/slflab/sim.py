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
horizon and window-endpoint denominator, times eps's. For speed c/d a time
runs as t * L * c ticks and a work as w * L * d * K units, where K is the
run's work per tick: a solo job gains K units per tick, and each member of
a pool of k gains K / k. K is lcm(2..m), grown one k at a time while it
stays below 2**64, for the m jobs released strictly before the run's last
arrival or window end; m = 0 under srpt and slf at eps = 1, which run no
pools. Only those m jobs can be in a pool that a boundary from outside (an
arrival or a window start; the horizon ends the run) cuts short, so such a
cut leaves the pool's level an int while k divides K. A simultaneous
release without windows has m = 0 and K = 1. The cap keeps every level
within a few machine words whatever n is: lcm(2..1000) alone has 1438 bits.
Each threshold (1 - eps) * p is an int. The run's own next event is the
minimum of its targets in work units (the solo job's threshold or size, or
the pool's next knowledge, completion or tier level and slf's tie level).
Work w to go lies w * k / K ticks away for a pool of k (k = 1 for a solo
job), and is compared with the next arrival, the horizon and the window
edge. A value leaves the integers only through `_div`, the one division,
which returns an int when exact, else a Fraction, never a float. Three
kinds of values still leave them: a tick where a goal is reached w * k / K
ticks away with K not dividing w * k, and the cut levels that follow from
such an off-grid tick; slf's tie level r * (b - a) / a (eps = a/b); and the
level of a pool of k that does not divide K, once m passes the cap (rr's
long staggered runs). Where t, the accumulator, a group's offset or a solo
job's elapsed is set, a Fraction that comes back to a whole number is an
int again.

The run is `Schedule`'s one store, in engine units (`_Run`): tu = L * c,
wu = L * d * K, K itself, the speed, the boundary ticks (0, then each
segment end: an int, or a Fraction off the grid), and per segment, in O(1)
whatever its pool size, its pool size k, its holder (the solo job, or the
running group's negative key; None when idle) and its end level (the solo
job's elapsed or the group's level once the engine has stepped to the
segment's end, to which rr's members add their offset). Each job's spans
(from segment index, holder) log the holders it joins: on arrival, when its
group merges into one at least as large (the larger side keeps its key, so
a job moves at most log2 n times) and on slf's exit on knowledge. The rule
of membership: a job is with every holder it joins until it completes, as
no holder it has left runs again while it lives. A merge retires the
smaller side's key, and a job leaving an slf pool on knowledge ties at the
pool's level, which never falls while the job's tie only does, so the job
runs first. Then each event as (tick index, kind, job), the tick index of
each job's completion and of its `known` event, both recorded as the run
goes, and each arrived job's level at the last tick. Only the `events`
view reads the event log. Every query turns its times into ticks (t * tu,
an int when t's denominator divides tu), compares and sums in engine units
(a pool of k gives each member dt * K / k work in dt ticks) and turns only
its answer into Fractions. `completions`, `end_time`, `final_elapsed`,
`known_times()` and `known_runs` (the maximal runs of solo segments whose
job was known at the segment's start) are Fraction views of the run, built
on first read, as are `segments` and `events` (for export, the benchmark's
tracer and tests). `metrics.total_flow_time` sums the completion ticks and
the reduction chain reads tick indices, so neither builds a view.

A job whose size is known at elapsed 0 (eps = 1) is logged `known` on
arrival, under every policy. A segment end that logs no event of its own
(forbidden, known, completion), has no arrival and is not the horizon logs
`mode`: the allocation changes there.

Every policy runs one job or shares the speed equally in one pool, so a
`Segment` is (start, end, rate, jobs), and a reader multiplies once per
segment. Only the `segments` view and `Grid.steps` list a segment's jobs,
built on first read from the holders' stays (below).

A time asked on its own goes to `Schedule.elapsed_units`, or to
`active_count`, which counts the releases and the completions up to t. The
first query (never `simulate`) lists each holder's segments, O(segments)
ints in all. A job's elapsed at t is the end level of the last segment
starting before t that runs it, less the work after t in the segment
holding t: its spans from the latest, each bisecting its holder's
segments. `elapsed_units` returns those levels in `wu` units, as the run
holds them; `elapsed_at` is the same walk read over `wu`, as Fractions.
`last_touch` and `reach_times` read the same spans. Who ran in a group's
segments is read from one table instead, built by the first such query in
one pass over the spans: each holder's stays (from segment, to the job's
`done`, job).
`touched_jobs` reads the stays of the holders in its window, `jobs_before`
those of one segment, and `known_runs` slices each known job's stays by its
holder's segments of one, a solo job's and a pool of one's alike; no query
lists a segment's jobs.
One pass of `states_from_elapsed` over the jobs builds both queue
views at t from one elapsed map, in the unit the map is in: every release
at t arrived, and right before that batch. `state_at` is its argument
checks, one `elapsed_at` and the first view in time; callers holding the
elapsed map call the builder alone: the adversary for every queue it reads,
in time, and the certifier on `elapsed_units`, in the run's `wu`.

The boundaries of several schedules go to `merge_grid`, which puts them on
one unit U: the lcm of their time units times the denominators of their
off-grid ticks, times the lcm of k * d over their pools of k at speed c/d.
It merges their ticks once into a `Grid` of ints and reads them as integer
positions, so its readers compare no times: `metrics.grid_counts` sums
counts over the positions of each job's release and completion, and
`Grid.steps` gives a schedule's work at each in 1/U units, dt * c // (k *
d), an int. `Grid.times` builds the Fraction times on first read.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, bisect_right, insort
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import count
from math import lcm
from typing import NamedTuple

from .core import Instance, Rat

ZERO = Fraction(0)
_NO_WORK = (0, ())

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
    jobs: tuple[int, ...]  # ascending; empty when idle

    @property
    def rates(self) -> dict[int, Rat]:
        """Job id -> rate, built per read: the package never reads it; the
        benchmark's rate-entry and denominator counts and tests do."""
        return dict.fromkeys(self.jobs, self.rate)


class _Run(NamedTuple):
    """A run in engine units: time unit `tu`, work unit `wu` (L * d * K),
    `per_tick` (K: the work a solo job gains per tick), `speed`, the
    boundary `ticks` (0, then each segment's end: an int, or a Fraction
    off the grid), and per segment its pool size in `sizes` (0 when idle),
    its `holders` (the solo job, the running group's negative key, or None
    when idle) and the end `levels` the engine steps to (the pool's
    `run_level()` or the solo job's elapsed; None when idle). `spans`, job
    -> its (segment index, holder) pairs, in arrival order: from that
    segment on the job is with that holder until its `done` index (the
    module docstring's rule; `Schedule._stays` holds the same, per
    holder). Then each event as (tick index, kind, job), rr's `offs`, job
    -> what it adds to a level (empty under the other policies), `done`
    and `known`, job -> the tick index of its completion or its `known`
    event, in event order, and `final`, job -> its level at the last tick,
    in arrival order. Only the `Schedule.events` view reads `events`."""

    tu: int
    wu: int
    per_tick: int
    speed: Fraction
    ticks: list
    sizes: list[int]
    holders: list
    levels: list
    spans: dict[int, list[tuple]]
    events: list[tuple[int, str, int | None]]
    offs: dict
    done: dict[int, int]
    known: dict[int, int]
    final: dict


def _units(x: Rat, u: int):
    """x * u: an int when x's denominator divides u, else a Fraction."""
    d = x.denominator
    return x.numerator * (u // d) if not u % d else x * u


def _real(x, u: int) -> Fraction:
    """x / u as a Fraction, for an int or Fraction x in engine units."""
    if type(x) is int:
        return Fraction(x, u)
    return Fraction(x.numerator, x.denominator * u)


def _whole(x):
    """x, as an int when it is a Fraction of denominator 1."""
    return x.numerator if type(x) is not int and x.denominator == 1 else x


def _div(x, k: int):
    """x / k exactly: an int when k divides the int x, else a Fraction. The
    engine's one division, so it never makes a float."""
    if type(x) is int:
        return x // k if not x % k else Fraction(x, k)
    return x / k


@dataclass(eq=False)  # compared by identity: its engine-unit run has no value equality
class Schedule:
    instance: Instance
    run: _Run = field(repr=False)  # the one store: every query reads it

    @cached_property
    def completions(self) -> dict[int, Rat]:
        """Job id -> completion time, in completion order: a view of the
        run's `done`, built on first read."""
        ticks, tu = self.run.ticks, self.run.tu
        return {jid: _real(ticks[i], tu) for jid, i in self.run.done.items()}

    @cached_property
    def end_time(self) -> Rat:
        return _real(self.run.ticks[-1], self.run.tu)

    @cached_property
    def final_elapsed(self) -> dict[int, Rat]:
        """Exact elapsed work at end_time of every job that arrived, in
        arrival order: a view of the run's `final`, built on first read."""
        done, wu, job = self.run.done, self.run.wu, self.instance.job
        return {
            jid: job(jid).size if jid in done else _real(e, wu)
            for jid, e in self.run.final.items()
        }

    @cached_property
    def _times(self) -> list[Rat]:
        """The boundary times, read by the views and `boundaries()`."""
        return [_real(x, self.run.tu) for x in self.run.ticks]

    @cached_property
    def segments(self) -> list[Segment]:
        """Fraction views of the run, built on first read; no query reads
        them (export, the benchmark's tracer and tests do)."""
        run, times = self.run, self._times
        rates = {k: run.speed / k if k else ZERO for k in set(run.sizes)}
        return [
            Segment(times[i], times[i + 1], rates[k], js)
            for i, (k, js) in enumerate(zip(run.sizes, self._members))
        ]

    @cached_property
    def _members(self) -> list[tuple[int, ...]]:
        """Each segment's jobs, ascending, built on first read: each stay
        adds its job to its holder's segments in [from, to); only `segments`
        and `Grid.steps` read it."""
        runs, out = self._runs, [[] for _ in self.run.holders]
        for h, stays in self._stays.items():
            r = runs.get(h, ())
            for f, to, jid in stays:  # in job order, so each list ascends
                for i in r[bisect_left(r, f) : bisect_left(r, to)]:
                    out[i].append(jid)
        for i, jobs in enumerate(out):  # each list freed as its tuple is made
            out[i] = tuple(jobs)
        return out

    @cached_property
    def events(self) -> list[Event]:
        times = self._times
        return [Event(times[i], kind, job) for i, kind, job in self.run.events]

    def boundaries(self) -> list[Rat]:
        """0 and every segment end, in time order (a new list per call):
        segments tile [0, end_time], each starting where the previous ends."""
        return self._times.copy()

    def active_count(self, t: Rat) -> int:
        """|{j : released by t, remaining > 0 at t}| (arrivals at t included):
        the releases up to t minus the completions up to t."""
        released = sum(j.release.time <= t for j in self.instance.jobs)
        return released - sum(c <= t for c in self.completions.values())

    # these queries read the jobs' spans or the holders' stays, and each
    # holder's segments: they take and return Fractions and compare ticks;
    # other modules read the run directly only for tick indices and
    # completion ticks (`metrics`, `reduction`)

    @cached_property
    def _runs(self) -> dict:
        """Holder -> the ascending indices of the segments it runs."""
        runs: dict = defaultdict(list)
        for i, h in enumerate(self.run.holders):
            runs[h].append(i)
        runs.pop(None, None)  # idle segments run no one
        return runs

    def _last_run(self, jid: int, log: list, hi: int) -> int:
        """The last segment before segment `hi` that runs `jid` (spans `log`),
        or -1: its completing segment once complete (its holders run on),
        else its spans from the latest, each bisecting its holder's segments."""
        d = self.run.done.get(jid)
        if d is not None and d <= hi:
            return d - 1
        runs = self._runs
        for f, h in reversed(log):
            if f < hi:
                r = runs.get(h, ())
                q = bisect_left(r, hi)
                if q and r[q - 1] >= f:
                    return r[q - 1]
        return -1

    @cached_property
    def _stays(self) -> dict:
        """Holder -> its stays (from segment, to segment, job), in job order,
        one per span: the job is with the holder in segments [from, to), to
        its `done` index (the run's end if it never completes)."""
        run, stays, end = self.run, defaultdict(list), len(self.run.levels)
        for jid in sorted(run.spans):
            to = run.done.get(jid, end)
            for f, h in run.spans[jid]:
                stays[h].append((f, to, jid))
        return stays

    def _ran(self, lo: int, hi: int) -> set[int]:
        """The jobs that run in a segment of [lo, hi): per holder there, the
        jobs of its stays that hold one of its segments in it."""
        runs, out = self._runs, set()
        for h in set(self.run.holders[lo:hi]) - {None}:
            r = runs[h]
            a, b = bisect_left(r, lo), bisect_left(r, hi)
            for f, to, jid in self._stays[h]:
                q = bisect_left(r, f, a, b)
                if q < b and r[q] < to:
                    out.add(jid)
        return out

    def elapsed_at(self, t: Rat) -> dict[int, Rat]:
        """Exact elapsed work per job, counting work during [0, t), as
        Fractions: the `elapsed_units` walk, each level over `run.wu`; the
        caller owns the returned dict."""
        wu = self.run.wu
        return {jid: _real(e, wu) for jid, e in self.elapsed_units(t).items()}

    def elapsed_units(self, t: Rat) -> dict:
        """Elapsed work per job during [0, t) in `run.wu` units (an int, or
        off the grid a Fraction, as `_div` gives): each job's end level in
        the last segment starting before t that runs it, less the work after
        t in the segment holding t; the caller owns the returned dict."""
        run = self.run
        ticks, ends, offs, x = run.ticks, run.levels, run.offs, _units(t, run.tu)
        p = bisect_left(ticks, x)  # segments [0, p) start before t
        hold, cut = p - 1, 0
        if 0 < p < len(ticks) and run.sizes[hold]:
            cut = _div((ticks[p] - x) * run.per_tick, run.sizes[hold])
        out = {}
        for jid, log in run.spans.items():
            if log[0][0] >= p:
                break  # spans is in arrival order
            i = self._last_run(jid, log, p)
            if i >= 0:
                e = ends[i] - cut if i == hold else ends[i]
                out[jid] = e + offs[jid] if offs else e
        return out

    def jobs_before(self, t: Rat) -> tuple[int, ...]:
        """Jobs of the segment with start < t <= end (the work right before
        t), ascending: `_ran` of that one segment; empty when it is idle or
        t is outside (0, end_time], where no holder is in the window."""
        p = bisect_left(self.run.ticks, _units(t, self.run.tu))
        return tuple(sorted(self._ran(p - 1, p)))

    def last_touch(self, job: int, t: Rat) -> Rat | None:
        """The end, capped at t, of the last segment starting before t that
        runs `job`; None if the job does not run before t."""
        tu, ticks = self.run.tu, self.run.ticks
        x = _units(t, tu)
        i = self._last_run(job, self.run.spans.get(job, ()), bisect_left(ticks, x))
        if i < 0:
            return None
        end = ticks[i + 1]
        return t if end >= x else _real(end, tu)

    def known_times(self) -> dict[int, Rat]:
        """Job id -> the time of its `known` event (at most one per job)."""
        tu, ticks = self.run.tu, self.run.ticks
        return {job: _real(ticks[i], tu) for job, i in self.run.known.items()}

    @cached_property
    def known_runs(self) -> tuple[tuple[Rat, Rat], ...]:
        """The maximal runs of solo segments whose job was known at the
        segment's start, as (start, end) pairs in time order."""
        run, known, runs = self.run, self.run.known, self._runs
        ones: set[int] = set()
        for h, stays in self._stays.items():  # a solo job's one stay, a group's
            r = [i for i in runs.get(h, ()) if run.sizes[i] == 1]
            for f, to, jid in stays:
                if jid in known:  # its segments of one from its `known` tick on
                    ones.update(r[bisect_left(r, max(f, known[jid])) : bisect_left(r, to)])
        starts = sorted(i for i in ones if i - 1 not in ones)
        ends = sorted(i + 1 for i in ones if i + 1 not in ones)
        ticks, tu = run.ticks, run.tu
        # from a list: a tuple built from a generator is resized, and CPython
        # 3.11 keeps it, once freed, on a free list it is not taken from
        return tuple([(_real(ticks[a], tu), _real(ticks[b], tu)) for a, b in zip(starts, ends)])

    def reach_times(self, levels: dict[int, Rat], after: Rat) -> dict[int, Rat]:
        """Job id -> the first time at which the job's work since `after`
        equals its (positive) level; jobs that never get there are absent.
        Bisects the end levels of each span's holder's segments from the
        span to the job's `done`, for its elapsed at `after` plus the level:
        every segment ending by `after` ends below."""
        run, runs = self.run, self._runs
        ticks, ends, offs = run.ticks, run.levels, run.offs
        base = self.elapsed_units(after)
        out: dict[int, Rat] = {}
        for jid, level in levels.items():
            goal = base.get(jid, 0) + _units(level, run.wu) - offs.get(jid, 0)
            to = run.done.get(jid, len(ends))
            for f, h in run.spans.get(jid, ()):
                r = runs.get(h, ())
                a, b = bisect_left(r, f), bisect_left(r, to)
                q = bisect_left(r, goal, a, b, key=ends.__getitem__)
                if q < b:
                    i = r[q]  # back from the segment's end, k / K ticks per unit of work
                    back = _div((ends[i] - goal) * run.sizes[i], run.per_tick)
                    out[jid] = _real(ticks[i + 1] - back, run.tu)
                    break
        return out


def _entry(level, jid: int) -> tuple:
    """A heap entry ordered exactly as (level, jid): floor(level * 2**64)
    settles most comparisons as integers; only equal floors compare the
    levels, and only equal levels the ids. An int level takes no division."""
    if type(level) is int:
        return level << 64, level, jid
    return (level.numerator << 64) // level.denominator, level, jid


@dataclass(frozen=True)
class Grid:
    """Schedules' boundaries merged once on one `unit` (see `merge_grid`),
    as ints: the distinct `ticks` ascending, `positions[k]` the index in
    `ticks` of each boundary of `schedules[k]`, and `index` that of each tick."""

    schedules: tuple[Schedule, ...]
    unit: int
    ticks: list
    positions: list[list[int]]
    index: dict

    @cached_property
    def times(self) -> list[Rat]:
        return [_real(x, self.unit) for x in self.ticks]

    def position(self, t: Rat) -> int:
        """The index of the first grid time >= t; len(ticks) past the end."""
        x = _units(t, self.unit)
        q = self.index.get(x)
        return bisect_left(self.ticks, x) if q is None else q

    def steps(self, k: int, qs):
        """Yield, for each q of the ascending `qs` (which hold every position
        of schedule k), two (work per job, jobs) pairs: the segment ending at
        q, whole, and the one holding times[q] inside it, up to times[q].
        Work is in 1/unit: m jobs at speed c/d do dt * c // (m * d) in dt
        ticks, an int, as the unit clears m * d."""
        sched = self.schedules[k]
        c, d = sched.run.speed.numerator, sched.run.speed.denominator
        pos, ticks, sizes, jobs = self.positions[k], self.ticks, sched.run.sizes, sched._members
        s = 0
        for q in qs:
            ended = inside = _NO_WORK
            if s < len(sizes) and pos[s + 1] == q:
                if sizes[s]:
                    ended = (ticks[q] - ticks[pos[s]]) * c // (sizes[s] * d), jobs[s]
                s += 1
            if s < len(sizes) and pos[s] < q and sizes[s]:
                inside = (ticks[q] - ticks[pos[s]]) * c // (sizes[s] * d), jobs[s]
            yield ended, inside


def merge_grid(*schedules: Schedule) -> Grid:
    """The `Grid` of the schedules' boundaries (see the module docstring).
    Its unit is the lcm of each run's time unit times the denominators of
    its off-grid ticks, times the lcm of m * d over each run's pools of m
    at speed c/d: so every tick is an int, and `Grid.steps`' work too."""
    time = work = 1
    for s in schedules:
        run = s.run
        off_grid = {x.denominator for x in run.ticks if type(x) is not int}
        time = lcm(time, run.tu * lcm(*off_grid))
        # from a set, not a generator (see the unit in `simulate`)
        work = lcm(work, *{m * run.speed.denominator for m in run.sizes if m})
    unit = time * work
    bounds = []
    for s in schedules:
        m = unit // s.run.tu  # a multiple of every tick's denominator
        bounds.append([x.numerator * (m // x.denominator) for x in s.run.ticks])
    ticks = sorted({x for b in bounds for x in b})
    index = {x: q for q, x in enumerate(ticks)}
    return Grid(schedules, unit, ticks, [[index[x] for x in b] for b in bounds], index)


class _Group:
    """Jobs sharing one elapsed level, advanced in fluid round-robin.

    The heaps hold `_entry(level, id)` entries whose levels never change,
    so a group can be paused and resumed in O(1) without re-keying; the
    level a top entry waits for is read from the entry. A tier group's
    levels are its members' thresholds and sizes; rr's are absolute
    accumulator levels. `key`, a negative int, names the group as the
    holder of the segments it runs.
    """

    __slots__ = ("members", "know", "comp", "level", "off", "key")

    def __init__(self, key: int):
        self.members: set[int] = set()
        self.know: list[tuple] = []
        self.comp: list[tuple] = []
        self.level = 0  # static elapsed while paused
        self.off = None  # level = off + acc while running
        self.key = key

    def absorb(self, other: "_Group") -> set[int]:
        """Take `other`'s members in; the larger side keeps its key, so only
        the smaller side's members change holder. Returns those."""
        if len(other.members) > len(self.members):
            self.members, other.members = other.members, self.members
            self.know, other.know = other.know, self.know
            self.comp, other.comp = other.comp, self.comp
            self.key, other.key = other.key, self.key
        self.members |= other.members
        for entry in other.know:
            heapq.heappush(self.know, entry)
        for entry in other.comp:
            heapq.heappush(self.comp, entry)
        return other.members


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

    # the run's units (see the module docstring): time * L * c and work
    # * L * d * K for speed c/d, so every job runs at K work units per tick
    a, b = eps.numerator, eps.denominator
    horizon = None if horizon is None else Fraction(horizon)
    inputs = [x for j in inst.jobs for x in (j.release.time, j.size)]
    inputs += [x for window in forbidden.intervals for x in window] + [horizon]
    # the distinct denominators, from a set: CPython 3.11 keeps a tuple built
    # from a generator on the free list of its resized length, and a freed
    # 20-tuple on a free list it never takes from, until a full collection
    unit = b * lcm(*{x.denominator for x in inputs if x is not None})
    tu = unit * speed.numerator
    horizon = None if horizon is None else _units(horizon, tu)

    # arrival batches in time order, each in (epoch, id) order
    by_time: dict[int, list[int]] = {}
    for j in sorted(inst.jobs, key=lambda j: (j.release.epoch, j.id)):
        by_time.setdefault(_units(j.release.time, tu), []).append(j.id)
    arrival_times = sorted(by_time)
    batches = [by_time[x] for x in arrival_times]
    next_arrival_idx = 0

    windows = [(_units(lo, tu), _units(hi, tu)) for lo, hi in forbidden.intervals]
    window_idx = 0

    # K = lcm(2..m), grown while below 2**64, for the m jobs released before
    # the last arrival or window end: only those can be in a pool that a
    # boundary from outside cuts short, and a pool of k | K gains K / k each
    cut_by = max([*arrival_times[-1:], *(hi for _, hi in windows[-1:])], default=0)
    m = 0 if srpt_like else sum(map(len, batches[: bisect_left(arrival_times, cut_by)]))
    per_tick = 1
    for k in range(2, m + 1):
        if (grown := lcm(per_tick, k)) >> 64:
            break
        per_tick = grown
    wu = unit * speed.denominator * per_tick

    size = {j.id: None if j.size is None else _units(j.size, wu) for j in inst.jobs}
    # knowledge threshold: known iff elapsed >= (1-eps) * p (declared, eps > 0)
    thr = {jid: p * (b - a) // b for jid, p in size.items() if p is not None and a}

    t = 0
    elapsed: dict = {}  # materialized elapsed (jobs outside groups)
    done: dict = {}  # job -> the tick index of its completion
    known: dict = {}  # job -> the tick index of its `known` event
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

    # rr: a member's elapsed is rr_off + acc; read by the final snapshot of
    # a cut run and, as the run's `offs`, by the schedule's queries
    rr_off: dict = {}

    # the run: the boundary ticks, each segment's pool size, holder and end
    # level, each job's spans, each event's tick index
    ticks: list = [0]
    sizes: list[int] = []
    holders: list = []
    levels: list = []
    spans: dict[int, list[tuple]] = {}
    events: list[tuple[int, str, int | None]] = []
    keys = count(-1, -1)  # group keys, negative: job ids are positive

    def log(kind: str, job: int | None = None) -> None:
        events.append((len(levels), kind, job))

    def merge(into: _Group, other: _Group) -> None:
        """`other` joins `into`: the jobs that change holder run with it
        from the next segment on."""
        i = len(levels)
        for jid in into.absorb(other):
            spans[jid].append((i, into.key))

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
            merge(tier, group)

    def join(g: _Group, jid: int, base) -> None:
        """The arriving `jid` joins `g`, whose heap levels start at `base`."""
        g.members.add(jid)
        spans[jid] = [(len(levels), g.key)]
        p = size[jid]
        if p is not None:
            if jid in thr:
                heapq.heappush(g.know, _entry(thr[jid] + base, jid))
            heapq.heappush(g.comp, _entry(p + base, jid))

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
        running.off = _whole(value - acc)
        return value

    def complete(jid: int) -> None:
        nonlocal n_active
        done[jid] = len(levels)
        n_active -= 1
        log("completion", jid)

    def mark_known(jid: int) -> None:
        del thr[jid]  # thr holds only the jobs not yet known
        known[jid] = len(levels)
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
            spans[jid] = [(len(levels), jid)]
            push_known(jid)
        elif policy == "rr":  # keys are absolute levels of acc
            rr_off[jid] = -acc
            assert running is not None
            join(running, jid, acc)
        else:  # slf (eps < 1) / setf: the zero-elapsed tier
            if 0 not in tiers:
                add_tier(_Group(next(keys)))
            join(tiers[0], jid, 0)

    def in_window() -> bool:
        return window_idx < len(windows) and windows[window_idx][0] <= t

    # --- allocation for the segment starting at t ---------------------------

    def choose() -> tuple:
        """(holder, k, regime, goal, level) of the segment starting at t.

        holder is the solo job or the running group's key (None when idle),
        k the pool size (1 for a solo job, 0 when idle), level the solo job's
        elapsed or the pool's group level at t (None when idle; rr's members
        add their `rr_off`), and goal the level at which the run's own next
        event falls, None when none is pending.
        """
        nonlocal running, solo
        if in_window():
            if policy in ("slf", "setf") and running is not None:
                pause_running(run_level())
            return None, 0, "idle", None, None
        level = tie = None
        if solo is None and n_active == 0:
            return None, 0, "idle", None, None
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
            if solo in thr:
                goal = thr[solo]
            else:
                goal = size[solo]
            return solo, 1, "solo", goal, elapsed[solo]
        if level is None:
            level = activate_tier()
        elif tier_vals and tier_vals[0] == level:
            merge(running, tiers.pop(level))
            tier_vals.pop(0)
        # the least of the next knowledge, completion and tier levels and
        # slf's tie level: a running minimum over the candidates
        goal = group_peek(running.know, running)
        x = group_peek(running.comp, running)
        if x is not None and (goal is None or x < goal):
            goal = x
        if tier_vals and (goal is None or tier_vals[0] < goal):
            goal = tier_vals[0]
        if tie is not None and (goal is None or tie < goal):
            goal = tie
        return running.key, len(running.members), "pool", goal, level

    # --- main loop -----------------------------------------------------------

    if policy == "rr":
        running = _Group(next(keys))
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

        holder, k, regime, goal, level = choose()
        # the first boundary set from outside the run, a running minimum over
        # the horizon, the next arrival and the window edge; the run's own
        # goal is work * k / K ticks away
        stop = horizon
        if next_arrival_idx < len(arrival_times):
            x = arrival_times[next_arrival_idx]
            if stop is None or x < stop:
                stop = x
        if regime == "idle":
            x = windows[window_idx][1] if in_window() else None
        else:
            x = windows[window_idx][0] if window_idx < len(windows) else None
        if x is not None and (stop is None or x < stop):
            stop = x
        hit = False
        if goal is not None:
            away = (goal - level) * k
            t_hit = t + (away if per_tick == 1 else _div(away, per_tick))
            if stop is None or t_hit <= stop:
                stop, hit = t_hit, True
        assert stop is not None, "stalled: no candidate boundary"
        assert stop > t, "no progress at a boundary"
        # reaching the goal sets the level to it, exactly; otherwise the run
        # advances by K times the time over k, which leaves the integers only
        # when k does not divide K or the time is off the grid; a value that
        # comes back to a whole number is an int again; `level` becomes the
        # segment's end level (still None when idle)
        if regime == "pool":
            if hit:
                acc = _whole(goal - running.off)
            else:
                acc = _whole(acc + _div((stop - t) * per_tick, k))
            level = run_level()
        elif regime == "solo":
            level = elapsed[solo] = goal if hit else _whole(elapsed[solo] + (stop - t) * per_tick)
        t = _whole(stop)
        ticks.append(t)
        sizes.append(k)
        holders.append(holder)
        levels.append(level)
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
                    spans[jid].append((len(levels), jid))
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
            if solo in thr:
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
    if running is not None:
        if policy == "rr":
            for jid in running.members:
                elapsed[jid] = rr_off[jid] + acc
        else:
            for jid in running.members:
                elapsed[jid] = run_level()
    for group in tiers.values():
        for jid in group.members:
            elapsed[jid] = group.level

    run = _Run(
        tu, wu, per_tick, speed, ticks, sizes, holders, levels, spans, events, rr_off, done, known,
        elapsed,
    )
    return Schedule(inst, run)


# --- queries over schedules -------------------------------------------------


def state_at(sched: Schedule, inst: Instance, t: Rat) -> dict[int, JobState]:
    """Active-job states at time t (work during [t-dt, t) included), with
    every release at t arrived: the active-set convention |A(t)|."""
    t = Fraction(t)
    if t < 0:
        raise SimulationError("state_at needs t >= 0")
    return states_from_elapsed(inst, t, sched.elapsed_at(t), 1)[0]


def states_from_elapsed(
    inst: Instance, t: Rat, elapsed, unit: int
) -> tuple[dict[int, JobState], dict[int, JobState]]:
    """Both queue views at t, built in one pass from `elapsed`, the elapsed
    work per job at t in 1/unit time units (a job it omits has none); no
    argument checks, no walk. Each state's elapsed and remaining work are in
    the same units, with every size read as `_units(size, unit)`: unit 1 is
    time itself (`state_at` and the adversary), the certifier passes a run's
    `wu` with the map `elapsed_units` gives, and its states hold ints.
    `states` has every release at t arrived (what `state_at` returns);
    `before` is the queue right before the batch released at t arrives, and
    is `states` itself when no job is released at t. The certifier and the
    adversary read every queue through it.

    A release rt is tested against t as rt.n * t.d against t.n * rt.d on
    numerators (n) and denominators (d). A declared job is known iff eps > 0
    and e >= (1 - eps) * p: with eps = a/b, e.n * b * p.d >= (b - a) * p.n *
    e.d, ints having n = e and d = 1. Each is one exact integer comparison
    per job."""
    a, b = inst.epsilon.numerator, inst.epsilon.denominator
    keep = b - a
    # a job with no work has 0 in the map's own numbers: time stays Fractions
    none = ZERO if unit == 1 else 0
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
        e = elapsed.get(j.id, none)
        p = j.size
        if p is None:
            st = JobState(j.id, e, None, False)
        else:
            p = _units(p, unit)
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
    if end == start:
        return set()
    ticks, tu = sched.run.ticks, sched.run.tu
    i = bisect_right(ticks, _units(start, tu), 1) - 1  # first with end > start
    return sched._ran(i, bisect_left(ticks, _units(end, tu)))


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
