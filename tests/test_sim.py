import hashlib
import random
from fractions import Fraction as F
from math import lcm

import pytest

from slflab import certifier, reduction
from slflab.adversary import exp_simultaneous_sample
from slflab.core import Instance, Job, ReleaseTag, scale_instance
from slflab.metrics import count_profile, total_flow_time
from slflab.policies import allocation_for
from slflab.sim import (
    EMPTY_INTERVALS,
    POLICIES,
    IntervalSet,
    SimulationError,
    export_events_jsonl,
    export_segments_csv,
    merge_grid,
    simulate,
    state_at,
    states_from_elapsed,
    touched_jobs,
)

from .helpers import (
    check_membership_rule,
    random_instance,
    scan_known_runs,
    segment_tuples,
    toy_instance,
)


def test_toy_worked_example():
    inst = toy_instance()
    sched = simulate(inst, "slf")
    assert sched.completions[6] == F(7, 2)
    assert sched.completions[5] == F(7)
    states = state_at(sched, inst, F(9))
    assert sorted(states) == [1, 2, 3, 4]
    assert all(states[i].elapsed == F(3, 2) for i in (1, 2, 3, 4))


def test_single_job_any_policy():
    inst = Instance(F(1, 3), (Job(1, ReleaseTag(F(0)), F(7)),))
    for policy in ("slf", "srpt", "setf", "rr"):
        sched = simulate(inst, policy)
        assert sched.completions[1] == F(7)


def test_two_job_hand_trace():
    # eps=1/2: the late short job preempts, becomes known, finishes first
    inst = Instance(
        F(1, 2),
        (Job(1, ReleaseTag(F(0)), F(2)), Job(2, ReleaseTag(F(1)), F(1))),
    )
    sched = simulate(inst, "slf")
    assert sched.completions[2] == F(2)
    assert sched.completions[1] == F(3)
    kn = [(e.t, e.job) for e in sched.events if e.kind == "known"]
    assert (F(1), 1) in kn and (F(3, 2), 2) in kn


def test_state_at_conventions():
    inst = toy_instance()
    sched = simulate(inst, "slf")
    at0 = state_at(sched, inst, F(0))
    assert sorted(at0) == [1, 2, 3, 4, 5, 6]
    assert all(s.elapsed == 0 for s in at0.values())
    # right before the batch at 0 the queue is empty
    assert states_from_elapsed(inst, F(0), {}, 1) == (at0, {})
    assert state_at(sched, inst, F(100)) == {}
    with pytest.raises(SimulationError):
        state_at(sched, inst, F(-1))


def test_active_count_profile():
    inst = toy_instance()
    alg = simulate(inst, "slf")
    opt = simulate(inst, "srpt")
    assert alg.active_count(F(9)) == 4
    assert opt.active_count(F(9)) == 2
    assert alg.active_count(F(-1) + F(1)) == 6  # at t=0 arrivals count
    assert alg.active_count(F(18)) == 0


def test_touched_jobs():
    inst = toy_instance()
    sched = simulate(inst, "slf")
    assert touched_jobs(sched, F(3), F(7, 2)) == {6}
    assert touched_jobs(sched, F(2), F(2)) == set()
    assert touched_jobs(sched, F(0), F(3)) == {1, 2, 3, 4, 5, 6}


def test_work_conservation_and_event_exactness():
    rng = random.Random(3)
    window = IntervalSet.from_pairs([(F(1), F(5, 2))])
    for _ in range(60):
        inst = random_instance(rng, F(rng.randint(1, 9), 10), rng.randint(1, 9))
        for policy in POLICIES:
            for speed, forbidden in ((F(1), EMPTY_INTERVALS), (F(3, 2), window)):
                sched = simulate(inst, policy, speed=speed, forbidden=forbidden)
                case = (policy, speed, bool(forbidden))
                # conservation: one rate per segment, shared by distinct jobs
                # that together receive the speed; idle exactly at rate 0
                t = F(0)
                for seg in sched.segments:
                    assert seg.start == t, case
                    t = seg.end
                    assert (seg.rate == 0) == (not seg.jobs), case
                    if seg.jobs:
                        assert seg.rate * len(seg.jobs) == speed, case
                    assert len(set(seg.jobs)) == len(seg.jobs), case
                    assert seg.rates == dict.fromkeys(seg.jobs, seg.rate), case
                # completions exact: integrate and compare
                elapsed = sched.elapsed_at(sched.end_time)
                for j in inst.jobs:
                    assert elapsed[j.id] == j.size, case
                    assert sched.completions[j.id] <= sched.end_time, case


def test_horizon_cut_matches_full_run():
    # a run cut at h ends in the state the uncut run passes through at h
    rng = random.Random(8)
    for _ in range(50):
        inst = random_instance(rng, F(rng.randint(0, 10), 10), rng.randint(1, 8))
        for policy in ("slf", "srpt", "setf", "rr"):
            full = simulate(inst, policy)
            for _ in range(4):
                h = F(rng.randint(0, 60), rng.randint(1, 3))
                cut = simulate(inst, policy, horizon=h).final_elapsed
                want = full.elapsed_at(h)
                released = {j.id for j in inst.jobs if j.release.time <= h}
                assert set(cut) == released, (policy, h)
                for jid in released:
                    assert cut[jid] == want.get(jid, F(0)), (policy, h, jid)


def test_replay_determinism():
    rng = random.Random(4)
    inst = random_instance(rng, F(1, 2), 8)
    a = simulate(inst, "slf")
    b = simulate(inst, "slf")
    assert segment_tuples(a) == segment_tuples(b)
    assert a.completions == b.completions


def test_engine_matches_pure_allocations_per_segment():
    rng = random.Random(5)
    insts = [
        random_instance(rng, F(rng.randint(0, 10), 10), rng.randint(1, 7))
        for _ in range(40)
    ]
    # each meets two paused tiers (setf at eps 0, slf at eps 3/4) whose
    # levels are an int and an equal Fraction
    for eps, jobs in (
        (F(0), ((1, 0, 3), (2, 2, F(3, 2)), (3, 1, 6), (4, F(1, 2), F(3, 2)),
                (5, F(2, 3), F(5, 2)))),
        (F(0), ((1, F(4, 3), 5), (2, 2, 1), (3, F(5, 2), 4), (4, 2, 3))),
        (F(3, 4), ((1, 1, 1), (2, 1, 2), (3, 2, 1), (4, 2, F(3, 2)))),
        (F(3, 4), ((1, F(5, 2), F(5, 2)), (2, F(7, 2), 5), (3, 2, 5))),
    ):
        insts.append(Instance(eps, tuple(Job(i, ReleaseTag(F(r)), F(p)) for i, r, p in jobs)))
    for inst in insts:
        eps = inst.epsilon
        for policy in ("slf", "srpt", "setf", "rr"):
            sched = simulate(inst, policy)
            for seg in sched.segments:
                states = state_at(sched, inst, seg.start)
                if not states:
                    assert seg.rates == {}
                    continue
                want = allocation_for(policy, states, eps, F(1))
                assert seg.rates == want, (policy, eps, seg.start)


def test_speed_scale_equivalence():
    rng = random.Random(6)
    for _ in range(30):
        inst = random_instance(rng, F(0), rng.randint(1, 8))
        s = F(rng.randint(2, 5), rng.randint(1, 3))
        fast = simulate(inst, "setf", speed=s)
        slow = simulate(scale_instance(inst, 1 / s), "setf")
        assert fast.boundaries() == slow.boundaries()
        assert fast.completions == slow.completions
        for t in fast.boundaries():
            assert fast.active_count(t) == slow.active_count(t)


def test_forbidden_idling():
    inst = Instance(F(0), (Job(1, ReleaseTag(F(0)), F(2)),))
    sched = simulate(inst, "setf", forbidden=IntervalSet.from_pairs([(F(1), F(2))]))
    assert sched.completions[1] == F(3)
    idle = [seg for seg in sched.segments if not seg.rates]
    assert idle and idle[0].start == F(1) and idle[0].end == F(2)


def _runs(sched):
    return [(seg.start, seg.end, seg.jobs) for seg in sched.segments]


def test_solo_job_resumes_after_forbidden_window():
    # srpt holds job 1 through the idle window [1, 2) and resumes it at 2
    inst = Instance(F(0), (Job(1, ReleaseTag(F(0)), F(3)), Job(2, ReleaseTag(F(0)), F(5))))
    sched = simulate(inst, "srpt", forbidden=IntervalSet.from_pairs([(F(1), F(2))]))
    assert _runs(sched) == [(0, 1, (1,)), (1, 2, ()), (2, 4, (1,)), (4, 9, (2,))]


def test_arrival_with_equal_remaining_preempts_by_id():
    # at t = 1 the running job and the arrival both have remaining 2: the
    # lower id runs, whichever of the two it is
    lower = Instance(F(0), (Job(2, ReleaseTag(F(0)), F(3)), Job(1, ReleaseTag(F(1)), F(2))))
    assert _runs(simulate(lower, "srpt")) == [(0, 1, (2,)), (1, 3, (1,)), (3, 5, (2,))]
    higher = Instance(F(0), (Job(1, ReleaseTag(F(0)), F(3)), Job(2, ReleaseTag(F(1)), F(2))))
    assert _runs(simulate(higher, "srpt")) == [(0, 1, (1,)), (1, 3, (1,)), (3, 5, (2,))]


def test_slf_solo_known_job_yields_to_unknown_arrival():
    # job 1 is known from t = 1 and runs alone; job 2 arrives unknown at level
    # 0 < 1/2 * (1 - eps) / eps and runs until the estimates tie at t = 2
    inst = Instance(
        F(1, 2), (Job(1, ReleaseTag(F(0)), F(2)), Job(2, ReleaseTag(F(3, 2)), F(4)))
    )
    sched = simulate(inst, "slf")
    assert _runs(sched) == [
        (0, 1, (1,)),
        (1, F(3, 2), (1,)),
        (F(3, 2), 2, (2,)),
        (2, F(5, 2), (1,)),
        (F(5, 2), 4, (2,)),
        (4, 6, (2,)),
    ]
    assert sched.known_times() == {1: F(1), 2: F(4)}


# Two levels that agree in their first 64 binary digits, so their heap
# entries tie on the integer floor and only the exact Fractions decide.
LOW = F(1, 3)
HIGH = F(1, 3) + F(1, 2**70)


def _assert_allocations(inst, policy, sched):
    for seg in sched.segments:
        states = state_at(sched, inst, seg.start)
        want = allocation_for(policy, states, inst.epsilon, F(1)) if states else {}
        assert seg.rates == want, (policy, seg.start)


def test_heap_floor_ties_follow_exact_level_order():
    assert (LOW * 2**64).__floor__() == (HIGH * 2**64).__floor__() and LOW < HIGH
    # each case gives the lower level to the higher id: (policy, eps, jobs,
    # completions, known times)
    cases = [
        # srpt, both fresh at 0
        ("srpt", F(0), [(1, 0, HIGH), (2, 0, LOW)], {2: LOW, 1: LOW + HIGH}, {}),
        # srpt: the arrival's size ties the running job's remaining and wins
        (
            "srpt",
            F(0),
            [(1, 0, F(1, 2) + HIGH), (2, F(1, 2), LOW)],
            {2: F(1, 2) + LOW, 1: F(1, 2) + LOW + HIGH},
            {},
        ),
        # srpt: the running job keeps the machine against a lower id
        (
            "srpt",
            F(0),
            [(2, 0, F(1, 2) + LOW), (1, F(1, 2), HIGH)],
            {2: F(1, 2) + LOW, 1: F(1, 2) + LOW + HIGH},
            {},
        ),
        # slf's known queue: job 1 is preempted with remaining HIGH; job 2
        # becomes known with remaining LOW while job 1 waits, and runs first
        (
            "slf",
            F(1, 2),
            [(1, 0, F(1)), (2, 1 - HIGH, 2 * LOW)],
            {2: 1 - HIGH + 2 * LOW, 1: 1 + 2 * LOW},
            {1: F(1, 2), 2: 1 - HIGH + LOW},
        ),
        # rr, staggered: absolute completion levels 1 + HIGH and 1 + LOW
        (
            "rr",
            F(0),
            [(1, 0, 1 + HIGH), (2, F(1, 2), F(1, 2) + LOW)],
            {2: F(3, 2) + 2 * LOW, 1: F(3, 2) + LOW + HIGH},
            {},
        ),
        # rr, staggered: absolute knowledge levels 1 + HIGH and 1 + LOW
        (
            "rr",
            F(1, 2),
            [(1, 0, 2 + 2 * HIGH), (2, F(1, 2), 1 + 2 * LOW)],
            {2: F(5, 2) + 4 * LOW, 1: 3 + 2 * LOW + 2 * HIGH},
            {2: F(3, 2) + 2 * LOW, 1: F(3, 2) + 2 * HIGH},
        ),
    ]
    for policy, eps, jobs, completions, known in cases:
        inst = Instance(eps, tuple(Job(i, ReleaseTag(F(r)), p) for i, r, p in jobs))
        sched = simulate(inst, policy)
        assert sched.completions == completions, policy
        assert sched.known_times() == known, policy
        _assert_allocations(inst, policy, sched)


def test_undeclared_jobs():
    inst = Instance(
        F(1, 2),
        (Job(1, ReleaseTag(F(0)), None), Job(2, ReleaseTag(F(0)), F(2))),
    )
    with pytest.raises(SimulationError):
        simulate(inst, "srpt", horizon=F(10))
    with pytest.raises(SimulationError):
        simulate(inst, "slf")  # undeclared needs a horizon
    sched = simulate(inst, "slf", horizon=F(10))
    check_membership_rule(sched.run)  # job 1 never completes: its stays run to the end
    # the undeclared job never becomes known or completes; elapsed is tracked
    assert 1 not in sched.completions
    assert sched.final_elapsed[1] > 0
    states = state_at(sched, inst, F(10))
    assert states[1].remaining is None and not states[1].known


def test_knowledge_monotone_and_events():
    rng = random.Random(8)
    for _ in range(30):
        inst = random_instance(rng, F(rng.randint(1, 9), 10), rng.randint(1, 7))
        sched = simulate(inst, "slf")
        seen = set()
        for ev in sched.events:
            if ev.kind == "known":
                assert ev.job not in seen
                seen.add(ev.job)
        # boundary convention: knowledge at t applies to the allocation at t
        for ev in sched.events:
            if ev.kind == "known":
                st = state_at(sched, inst, ev.t)
                if ev.job in st:
                    assert st[ev.job].known


def test_eps_one_known_on_arrival():
    # at eps = 1 every policy logs `known` right after the job's arrival,
    # also for a job that waits past a horizon: srpt runs job 2, then job 3
    # from t = 1, then job 1 from t = 3
    single = Instance(F(1), (Job(1, ReleaseTag(F(2)), F(3)),))
    inst = Instance(
        F(1),
        (
            Job(1, ReleaseTag(F(0)), F(3)),
            Job(2, ReleaseTag(F(0)), F(1)),
            Job(3, ReleaseTag(F(1, 2)), F(2)),
        ),
    )
    releases = {j.id: j.release.time for j in inst.jobs}
    assert simulate(inst, "srpt", horizon=F(2)).final_elapsed[1] == 0
    for policy in POLICIES:
        sched = simulate(single, policy)
        assert [(e.t, e.kind) for e in sched.events if e.job == 1][:2] == [
            (F(2), "arrival"),
            (F(2), "known"),
        ], policy
        for horizon in (None, F(2)):
            sched = simulate(inst, policy, horizon=horizon)
            assert sched.known_times() == releases, (policy, horizon)
            for j in inst.jobs:
                at = [e.kind for e in sched.events if e.job == j.id]
                assert at[:2] == ["arrival", "known"], (policy, horizon, j.id)


def test_schedule_queries_match_plain_scans():
    rng = random.Random(9)
    for trial in range(25):
        eps = F(rng.randint(1, 9), 10)
        if trial % 4 == 0:
            eps = F(1)  # sizes known on arrival, for every policy
        inst = random_instance(rng, eps, rng.randint(1, 7))
        for policy in ("slf", "srpt", "setf", "rr"):
            _check_queries(simulate(inst, policy), inst, rng)
    # groups that merge and split: the queries read each job's spans across
    # the groups it moved through
    moves = 0
    for inst, kwargs in _absorb_heavy_cases(random.Random(10)):
        for policy in ("slf", "srpt", "setf", "rr"):
            sched = simulate(inst, policy, **kwargs)
            _check_queries(sched, inst, rng, probes=24)
            for log in sched.run.spans.values():
                moves += max(0, sum(h is not None and h < 0 for _, h in log) - 1)
    assert moves > 150


def _absorb_heavy_cases(rng):
    """12 to 40 jobs in three to six simultaneous batches, sizes drawn from
    three, so slf and setf tiers meet at equal levels many times; the 20-job
    instance again with a forbidden window and cut by a horizon."""
    cases = []
    for n in (12, 20, 28, 40):
        times = [F(rng.randint(0, 4 * n), 4) for _ in range(rng.randint(3, 6))]
        sizes = [F(rng.randint(1, 8), rng.randint(1, 2)) for _ in range(3)]
        jobs = tuple(
            Job(i + 1, ReleaseTag(rng.choice(times)), rng.choice(sizes)) for i in range(n)
        )
        cases.append((Instance(F(rng.randint(1, 3), 4), jobs), {}))
    inst = cases[1][0]
    end = simulate(inst, "rr").end_time
    cases.append((inst, {"forbidden": IntervalSet.from_pairs([(end / 4, end / 3)])}))
    cases.append((inst, {"horizon": end / 2}))
    return cases


def _check_queries(sched, inst, rng, probes=None):
    """Every query that reads the spans against a scan of the `segments`
    view, at every boundary and midpoint (`probes` of them, drawn, if set).
    The view, `elapsed_at` and the group queries all rely on the membership
    rule (a job is with every holder it joins until it completes), so the
    rule is first checked on the raw run, and the view against `elapsed_at`,
    which reads the spans alone: a segment's jobs are those whose elapsed
    work rises across it."""
    check_membership_rule(sched.run)
    segs = sched.segments
    assert [len(seg.jobs) for seg in segs] == sched.run.sizes
    times = sched.boundaries()
    at = [sched.elapsed_at(t) for t in times]
    for seg, e0, e1 in zip(segs, at, at[1:]):
        assert seg.jobs == tuple(sorted(j for j, e in e1.items() if e > e0.get(j, 0)))
    points = sorted(set(times) | {(a + b) / 2 for a, b in zip(times, times[1:])})
    # each known event is the first boundary where state_at says known
    first_known: dict = {}
    for t in times:
        for jid, st in state_at(sched, inst, t).items():
            if st.known:
                first_known.setdefault(jid, t)
    assert sched.known_times() == first_known
    assert sched.known_runs == scan_known_runs(sched)
    # reach_times: work since `after` first equals the level there
    after = rng.choice(points)
    base = sched.elapsed_at(after)
    levels = {j.id: j.size * F(rng.randint(1, 4), 4) for j in inst.jobs}
    reach = sched.reach_times(levels, after)
    for jid, level in levels.items():
        def work(t):
            return sched.elapsed_at(t).get(jid, F(0)) - base.get(jid, F(0))

        if jid in reach:
            assert work(reach[jid]) == level
            assert all(work(b) < level for b in times if after <= b < reach[jid])
        else:
            assert work(sched.end_time) < level
    if probes is not None:
        assert reach == _scan_reach(sched, levels, after)
        points = rng.sample(points, min(probes, len(points)))
    # the bisected queries agree with scans over every segment
    for t in points + [sched.end_time + 1]:
        cover = [seg.jobs for seg in segs if seg.start < t <= seg.end]
        assert sched.jobs_before(t) == (cover[0] if cover else ())
        for j in inst.jobs:
            assert sched.last_touch(j.id, t) == _scan_last_touch(sched, j.id, t)
        end = t + F(rng.randint(0, 3), 2)
        touched = {
            jid
            for seg in segs
            if min(seg.end, end) > max(seg.start, t)
            for jid in seg.rates
        }
        assert touched_jobs(sched, t, end) == touched
        if probes is not None:
            assert sched.elapsed_at(t) == _walk_elapsed(sched, t)


def _walk_elapsed(sched, t):
    """Reference: elapsed work during [0, t), summed over every segment."""
    out: dict = {}
    for seg in sched.segments:
        dur = min(seg.end, t) - seg.start
        if dur > 0:
            for jid, rate in seg.rates.items():
                out[jid] = out.get(jid, F(0)) + rate * dur
    return out


def _scan_last_touch(sched, jid, t):
    """Reference: the end, capped at t, of the last segment starting before t
    that runs `jid`, from a scan over every segment."""
    ends = [min(seg.end, t) for seg in sched.segments if seg.start < t and jid in seg.jobs]
    return ends[-1] if ends else None


def _scan_reach(sched, levels, after):
    """Reference: the first time each job's work since `after` reaches its
    level, accumulated segment by segment."""
    done: dict = {}
    out: dict = {}
    for seg in sched.segments:
        lo = max(seg.start, after)
        if seg.end <= lo:
            continue
        for jid in seg.jobs:
            if jid in levels and jid not in out:
                rest = levels[jid] - done.get(jid, F(0))
                if rest <= seg.rate * (seg.end - lo):
                    out[jid] = lo + rest / seg.rate
                else:
                    done[jid] = done.get(jid, F(0)) + seg.rate * (seg.end - lo)
    return out


def _walk_states(inst, elapsed, t, released_at_t):
    """Reference states over walked elapsed work, one job at a time; without
    `released_at_t`, the queue right before the batch released at t."""
    out = {}
    for j in inst.jobs:
        rt = j.release.time
        if rt > t or (rt == t and not released_at_t):
            continue
        e = elapsed.get(j.id, F(0))
        if e < j.size:
            known = inst.epsilon > 0 and e >= (1 - inst.epsilon) * j.size
            out[j.id] = (e, j.size - e, known)
    return out


def test_knowledge_integer_rule_matches_fraction_threshold():
    # e >= (1 - eps) * p, exactly at the threshold and 2^-70 to either side
    tiny = F(1, 2**70)
    for eps in (F(0), F(1, 3), F(1, 2), F(9, 10), F(1)):
        for p in (F(1), F(7, 3), F(5, 11), F(2**80 + 1, 3)):
            inst = Instance(eps, (Job(1, ReleaseTag(F(0)), p),))
            threshold = (1 - eps) * p
            for e, want in (
                (threshold - tiny, False),
                (threshold, eps > 0),
                (threshold + tiny, eps > 0),
            ):
                if not 0 <= e < p:  # no work, or complete: not an active state
                    continue
                states, before = states_from_elapsed(inst, F(1), {1: e}, 1)
                assert before is states  # no release at t = 1
                state = states[1]
                assert want is (eps > 0 and e >= (1 - eps) * p)
                assert state.known is want, (eps, p, e)


def test_indexed_elapsed_matches_plain_walk():
    rng = random.Random(11)
    for trial in range(30):
        inst = random_instance(rng, F(rng.randint(0, 10), 10), rng.randint(1, 12))
        if trial % 4 == 0:  # re-released jobs: epochs do not change the dynamics
            inst = inst.with_jobs(
                Job(j.id, ReleaseTag(j.release.time, j.id % 2), j.size) for j in inst.jobs
            )
        for policy in ("slf", "srpt", "setf", "rr"):
            speed = F(rng.randint(1, 5), rng.randint(1, 3))
            a = F(rng.randint(0, 20), 2)
            forbidden = IntervalSet.from_pairs([(a, a + F(rng.randint(1, 6), 2))])
            horizon = F(rng.randint(1, 40), 2) if trial % 3 == 0 else None
            sched = simulate(
                inst, policy, speed=speed, forbidden=forbidden, horizon=horizon
            )
            check_membership_rule(sched.run)
            times = sched.boundaries()
            assert times == sorted({F(0), *(seg.end for seg in sched.segments)})
            mids = [(x + y) / 2 for x, y in zip(times, times[1:])]
            probes = [F(0), *times, *mids, sched.end_time + F(1, 3), sched.end_time + 50]
            rng.shuffle(probes)  # queries in any order see the same index
            for t in probes:
                for j in inst.jobs:
                    assert sched.last_touch(j.id, t) == _scan_last_touch(sched, j.id, t)
                levels = {j.id: F(rng.randint(1, 8), rng.randint(1, 4)) for j in inst.jobs}
                assert sched.reach_times(levels, t) == _scan_reach(sched, levels, t), (policy, t)
                want = _walk_elapsed(sched, t)
                got = sched.elapsed_at(t)
                assert got == want, (policy, t)
                # the caller owns the returned dict: editing it changes nothing
                got[len(inst.jobs) + 1] = F(7)
                for jid in got:
                    got[jid] += 1
                assert sched.elapsed_at(t) == want, (policy, t)
                states = state_at(sched, inst, t)
                views = states_from_elapsed(inst, t, want, 1)
                assert views[0] == states, (policy, t)
                for view, released_at_t in zip(views, (True, False)):
                    assert {
                        i: (st.elapsed, st.remaining, st.known) for i, st in view.items()
                    } == _walk_states(inst, want, t, released_at_t), (policy, t)
                # the same walk in the run's work units, and the views on it
                wu = sched.run.wu
                units = sched.elapsed_units(t)
                assert units == {i: e * wu for i, e in want.items()}, (policy, t)
                for view, in_units in zip(views, states_from_elapsed(inst, t, units, wu)):
                    assert {
                        i: (st.elapsed * wu, st.remaining * wu, st.known) for i, st in view.items()
                    } == {
                        i: (st.elapsed, st.remaining, st.known) for i, st in in_units.items()
                    }, (policy, t)


def _check_grid(scheds):
    # the merged grid against the per-boundary queries: every boundary of
    # every schedule once, in order; counts equal active_count, and each
    # schedule's steps, in the grid's unit, rebuild elapsed_at at every time
    grid = merge_grid(*scheds)
    want = sorted({t for s in scheds for t in s.boundaries()})
    assert grid.times == want
    for s, pos in zip(scheds, grid.positions):
        assert [grid.times[q] for q in pos] == s.boundaries()
    assert count_profile(*scheds) == [
        (t, tuple(s.active_count(t) for s in scheds)) for t in want
    ]
    qs = range(len(want))
    for k, s in enumerate(scheds):
        done: dict = {}
        for t, ((work, ended), (part, inside)) in zip(want, grid.steps(k, qs)):
            for jid in ended:
                done[jid] = done.get(jid, 0) + work
            elapsed = dict(done)
            for jid in inside:
                elapsed[jid] = elapsed.get(jid, 0) + part
            want_work = {jid: e * grid.unit for jid, e in s.elapsed_at(t).items()}
            assert elapsed == want_work, (k, t)


def test_grid_matches_random_access_queries():
    # one grid over schedules of every policy, speed, window and horizon
    rng = random.Random(12)
    window = IntervalSet.from_pairs([(F(1), F(5, 2))])
    for trial in range(20):
        inst = random_instance(rng, F(rng.randint(1, 9), 10), rng.randint(1, 9))
        horizon = F(rng.randint(1, 40), 2) if trial % 3 == 0 else None
        scheds = [
            simulate(inst, policy, speed=speed, forbidden=forbidden, horizon=horizon)
            for policy in POLICIES
            for speed in (F(1), F(3, 2))
            for forbidden in (EMPTY_INTERVALS, window)
        ]
        _check_grid(scheds[trial % 4 :: 3])


def test_grid_edge_cases():
    tie = F(1, 3) + F(1, 2**70)  # floor(t * 2**64) equals that of 1/3
    cut = Instance(F(1, 2), (Job(1, ReleaseTag(F(0)), F(3)), Job(2, ReleaseTag(F(7)), F(1))))
    other = Instance(F(1, 2), (Job(1, ReleaseTag(F(0)), F(10)), Job(3, ReleaseTag(F(9)), F(2))))
    epochs = Instance(
        F(1, 2),
        (
            Job(1, ReleaseTag(F(1)), F(2)),
            Job(2, ReleaseTag(F(1), 1), F(1)),
            Job(3, ReleaseTag(F(1), 2), F(3)),
            Job(4, ReleaseTag(F(0)), F(1)),
        ),
    )
    floors = Instance(
        F(1, 2), (Job(1, ReleaseTag(F(1, 3)), F(1)), Job(2, ReleaseTag(tie), F(1, 2)))
    )
    # slf's tie level and rr's pools leave the integers: Fraction ticks
    off = Instance(
        F(1, 3),
        (
            Job(1, ReleaseTag(F(0)), F(1)),
            Job(2, ReleaseTag(F(0)), F(1)),
            Job(3, ReleaseTag(F(1)), F(2)),
        ),
    )
    cases = [
        # horizon cuts, releases after every schedule's end
        [simulate(cut, p, horizon=F(2)) for p in ("setf", "rr")],
        # a cut release off the other schedule's grid, inside its span
        [simulate(cut, "setf", horizon=F(2)), simulate(other, "setf")],
        # re-released epochs at one time
        [simulate(epochs, p) for p in POLICIES],
        # boundaries whose 64-bit floors tie
        [simulate(floors, p) for p in POLICIES],
        # two instances
        [simulate(inst, "setf") for inst in (epochs, scale_instance(epochs, F(1, 2)))],
        # ticks off the integers, on one unit and on units 3 and 9
        [simulate(off, p) for p in POLICIES],
        [simulate(off, p, speed=s) for p in ("slf", "rr") for s in (F(1), F(3, 2))],
    ]
    assert any(type(x) is F for s in cases[-1] for x in s.run.ticks)
    for scheds in cases:
        _check_grid(scheds)
    assert merge_grid(*cases[3]).times[1:3] == [F(1, 3), tie]


def test_event_log_marks_every_boundary():
    # a segment end logs exactly one `mode` event unless another event
    # (forbidden, known, completion, arrival) shares its time or it is the
    # horizon; every event sits at 0, a release or a segment end
    rng = random.Random(13)
    windows = (
        EMPTY_INTERVALS,
        IntervalSet.from_pairs([(F(1), F(5, 2))]),
        IntervalSet.from_pairs([(F(1, 2), F(2)), (F(4), F(11, 2))]),
    )
    for trial in range(30):
        inst = random_instance(rng, F(rng.randint(0, 10), 10), rng.randint(1, 8))
        horizon = F(rng.randint(1, 30), 2) if trial % 2 else None
        releases = {j.release.time for j in inst.jobs}
        for policy in POLICIES:
            for speed in (F(1), F(3, 2)):
                for forbidden in windows:
                    case = (trial, policy, speed, forbidden)
                    sched = simulate(
                        inst, policy, speed=speed, forbidden=forbidden, horizon=horizon
                    )
                    ends = {seg.end for seg in sched.segments}
                    kinds: dict = {}
                    for ev in sched.events:
                        assert ev.t == 0 or ev.t in releases or ev.t in ends, case
                        kinds.setdefault(ev.t, []).append(ev.kind)
                    for t in ends:
                        at = kinds.get(t, [])
                        others = [k for k in at if k != "mode"]
                        want = 0 if others or t == horizon else 1
                        assert at.count("mode") == want, (case, t, at)
                    modes = {ev.t for ev in sched.events if ev.kind == "mode"}
                    assert modes <= ends, case


# sha256 of every export of the fixed set in test_pinned_schedules_digest
PINNED_DIGEST = (
    "e1eecdd4049efdddb7b6223e3d98d797f1e4ca4a51820de2dbc09d2bf3f62656"
)


def test_pinned_schedules_digest():
    # the exact bytes of each schedule over a fixed random set: all four
    # policies, eps 0..1, speed 1 and 3/2, forbidden windows, horizon cuts,
    # re-released epochs and undeclared jobs; an engine rewrite that keeps
    # the digest keeps every schedule byte-identical
    rng = random.Random(14)
    windows = (
        EMPTY_INTERVALS,
        IntervalSet.from_pairs([(F(1), F(5, 2))]),
        IntervalSet.from_pairs([(F(1, 2), F(2)), (F(4), F(11, 2))]),
    )
    h = hashlib.sha256()
    for trial in range(48):
        eps = (F(0), F(1))[trial % 2] if trial % 3 == 0 else F(rng.randint(1, 9), 10)
        inst = random_instance(rng, eps, rng.randint(1, 12))
        if trial % 4 == 1:
            inst = inst.with_jobs(
                Job(j.id, ReleaseTag(j.release.time, j.id % 2), j.size) for j in inst.jobs
            )
        undeclared = trial % 8 == 5
        if undeclared:
            inst = inst.with_jobs(
                Job(j.id, j.release, None if j.id == 1 else j.size) for j in inst.jobs
            )
        horizon = F(rng.randint(1, 30), 2) if undeclared or trial % 3 == 1 else None
        for policy in POLICIES:
            if undeclared and (policy == "srpt" or (policy == "slf" and eps == 1)):
                continue
            for speed in (F(1), F(3, 2)):
                forbidden = windows[(trial + len(policy)) % 3]
                sched = simulate(
                    inst, policy, speed=speed, forbidden=forbidden, horizon=horizon
                )
                _digest_update(h, sched)
    assert h.hexdigest() == PINNED_DIGEST


def _digest_update(h, sched) -> None:
    h.update(export_segments_csv(sched).encode())
    h.update(export_events_jsonl(sched).encode())
    for part in (sched.completions, sched.final_elapsed):
        h.update(repr(sorted(part.items())).encode())
    h.update(repr(sched.end_time).encode())


def _off_grid_runs():
    """Runs whose values leave the integers of one scale: speeds 4/3, 2 and 4
    (the fast machine of the reduction at 1/(1-eps) for eps 1/4, 1/2, 3/4),
    pools cut by staggered arrivals, windows in sevenths, horizons whose
    denominators are coprime to every input, and one n = 30 instance whose
    denominators are 60 distinct primes; all four policies."""
    rng = random.Random(18)
    primes = [p for p in range(3, 400) if all(p % q for q in range(2, p))][:60]
    wide = Instance(
        F(1, 3),
        tuple(
            Job(
                i + 1,
                ReleaseTag(F(rng.randint(0, 3 * primes[2 * i]), primes[2 * i])),
                F(rng.randint(1, 5 * primes[2 * i + 1]), primes[2 * i + 1]),
            )
            for i in range(30)
        ),
    )
    sevenths = IntervalSet.from_pairs([(F(3, 7), F(11, 7)), (F(20, 7), F(30, 7))])
    cases = [(wide, EMPTY_INTERVALS, None)]
    for trial in range(12):
        inst = random_instance(rng, F(rng.randint(1, 3), 4), rng.randint(3, 10))
        horizon = F(rng.randint(10, 200), (13, 17)[trial % 3 - 1]) if trial % 3 else None
        cases.append((inst, (EMPTY_INTERVALS, sevenths)[trial % 2], horizon))
    for inst, forbidden, horizon in cases:
        for policy in POLICIES:
            for speed in (F(4, 3), F(2), F(4)):
                yield simulate(
                    inst, policy, speed=speed, forbidden=forbidden, horizon=horizon
                )


# sha256 of every export of the runs of _off_grid_runs
PINNED_OFF_GRID_DIGEST = (
    "c27ed43eacfb35c545681d28d7ff05e9ff81cc7bb0bd71b09d1b108c86414eb8"
)


def test_pinned_off_grid_digest():
    h = hashlib.sha256()
    for sched in _off_grid_runs():
        _digest_update(h, sched)
    assert h.hexdigest() == PINNED_OFF_GRID_DIGEST


def test_index_agrees_with_the_end_snapshot():
    # the engine's end snapshot and elapsed_at, read from the spans, are two
    # computations of the work each job did by end_time; the views built from
    # the run equal scans of the event log, in its order
    for sched in _off_grid_runs():
        done = sched.elapsed_at(sched.end_time)
        assert done == {j: e for j, e in sched.final_elapsed.items() if e > 0}
        events = sched.events
        completed = [(ev.job, ev.t) for ev in events if ev.kind == "completion"]
        assert list(sched.completions.items()) == completed
        assert sched.end_time == sched.boundaries()[-1]
        known = [(ev.job, ev.t) for ev in events if ev.kind == "known"]
        assert list(sched.known_times().items()) == known
        arrived = [ev.job for ev in events if ev.kind == "arrival"]
        sizes = {j: sched.instance.job(j).size for j, _ in completed}
        want = [(j, sizes[j] if j in sizes else done.get(j, F(0))) for j in arrived]
        assert list(sched.final_elapsed.items()) == want


def test_work_per_tick_is_capped_and_one_without_cut_pools():
    # K = lcm(2..m) over the m jobs released before the last arrival or
    # window end, grown while below 2**64; srpt and a simultaneous release
    # have no pool that a boundary from outside cuts short
    rng = random.Random(59)
    staggered = Instance(
        F(1, 2),
        tuple(
            Job(i + 1, ReleaseTag(F(i, 2)), F(rng.randint(1, 800), rng.randint(1, 3)))
            for i in range(200)
        ),
    )
    at_once = staggered.with_jobs(Job(j.id, ReleaseTag(F(0)), j.size) for j in staggered.jobs)
    window = IntervalSet.from_pairs([(F(1), F(2))])
    cap = lcm(*range(2, 47))  # lcm(2..47) >= 2**64
    assert cap < 2**64 <= lcm(cap, 47)
    for policy in POLICIES:
        assert simulate(staggered, policy).run.per_tick == (1 if policy == "srpt" else cap)
        assert simulate(at_once, policy).run.per_tick == 1
        windowed = simulate(at_once, policy, forbidden=window).run.per_tick
        assert windowed == (1 if policy == "srpt" else cap)
    few = staggered.with_jobs(staggered.jobs[:6])  # jobs 1..5 precede the last
    assert simulate(few, "setf").run.per_tick == lcm(2, 3, 4, 5)
    assert simulate(Instance(F(1), few.jobs), "slf").run.per_tick == 1  # slf at eps 1 is srpt


def test_every_returned_value_is_a_fraction():
    # the engine runs on ints; none may leak out of a schedule or a query on
    # it, nor a float
    on_grid = [simulate(toy_instance(), policy) for policy in POLICIES]
    for sched in (*on_grid, *_off_grid_runs()):
        values = [sched.end_time, *sched.completions.values(), *sched.final_elapsed.values()]
        values += [ev.t for ev in sched.events]
        for seg in sched.segments:
            values += [seg.start, seg.end, seg.rate]
        mid = sched.end_time / 3
        values += [*sched.boundaries(), *sched.known_times().values()]
        values += [*sched.elapsed_at(mid).values(), *sched.elapsed_at(sched.end_time).values()]
        values += [x for run in sched.known_runs for x in run]
        values += sched.reach_times(dict.fromkeys(sched.final_elapsed, F(1, 7)), mid).values()
        values += [sched.last_touch(j, sched.end_time) for j in sched.final_elapsed]
        values += merge_grid(sched, on_grid[0]).times
        assert all(type(x) is F for x in values if x is not None)


def _recorded_runs(monkeypatch, *modules):
    """Every schedule that `modules` build through `simulate`, as a list
    that fills while the test runs."""
    made = []

    def recording(*args, **kwargs):
        made.append(simulate(*args, **kwargs))
        return made[-1]

    for module in modules:
        monkeypatch.setattr(module, "simulate", recording)
    return made


def _reduce_shaped(rng, n):
    """The reduce workload's shape: releases on a 1/4 grid over [0, n]."""
    eps = F(rng.randint(1, 3), 4)
    return Instance(
        eps,
        tuple(
            Job(
                i + 1,
                ReleaseTag(F(rng.randint(0, 4 * n), 4)),
                F(rng.randint(1, 12), rng.randint(1, 4)),
            )
            for i in range(n)
        ),
    )


def test_run_ends_are_never_whole_fractions(monkeypatch):
    # a value that leaves the integers and comes back is an int again: the
    # four runs of reduction_check (slf, setf at speed 1/(1-eps), setf on
    # scaled sizes, with and without forbidden windows) end no segment at a
    # Fraction of denominator 1
    made = _recorded_runs(monkeypatch, reduction)
    rng = random.Random(58)
    for _ in range(24):
        inst = _reduce_shaped(rng, rng.randint(8, 16))
        assert reduction.reduction_check(inst, inst.epsilon).ok
    assert any(s.run.speed != 1 for s in made)
    assert any(kind == "forbidden" for s in made for _, kind, _ in s.run.events)
    assert any(type(x) is F for s in made for x in s.run.ticks)  # some leave the grid
    for s in made:
        assert not any(type(x) is F and x.denominator == 1 for x in s.run.ticks)


def test_setf_pools_on_reduce_shapes_stay_on_the_integers():
    # on releases in quarters, every setf pool cut short gains K / k per
    # member and tick, an int, at speeds 1 and 4/3, with or without a window
    rng = random.Random(60)
    window = IntervalSet.from_pairs([(F(1, 3), F(5, 2))])
    segments = 0
    for _ in range(16):
        inst = _reduce_shaped(rng, rng.randint(2, 16))
        for speed in (F(1), F(4, 3)):
            for forbidden in (EMPTY_INTERVALS, window):
                run = simulate(inst, "setf", speed=speed, forbidden=forbidden).run
                assert not any(type(x) is F for x in run.levels), (inst, speed, forbidden)
                segments += len(run.levels)
    assert segments > 1000


def test_queries_leave_the_views_unbuilt(monkeypatch):
    # reduction_check and one certify op (construction and verification)
    # answer every query from the engine-unit run: no schedule they build
    # has a Fraction view built
    reduced = _recorded_runs(monkeypatch, reduction)
    certified = _recorded_runs(monkeypatch, certifier)
    for cache in (certifier._sched, certifier._snapshot, certifier._plan, certifier._advance):
        cache.cache_clear()
    rng = random.Random(57)
    for _ in range(8):
        inst = _reduce_shaped(rng, rng.randint(4, 10))
        assert reduction.reduction_check(inst, inst.epsilon).ok
        times = simulate(inst, "slf").boundaries()
        cert = certifier.create_valid_assignment(inst, times[len(times) // 2])
        assert certifier.verify_certificate(cert).passed
    assert reduced and certified
    views = {"_times", "segments", "events", "completions", "end_time", "final_elapsed"}
    for s in reduced + certified:
        assert not views & set(vars(s))


def test_spans_stay_within_n_log_n_and_sweep_builds_no_member_view():
    # a job's spans: its arrival, each move into a group at least as large
    # (so at most floor(log2 n) of them), slf's exit on knowledge and its
    # completion
    rng = random.Random(62)
    for n, staggered in ((256, False), (500, True)):
        inst = Instance(
            F(1, 2),
            tuple(
                Job(
                    i + 1,
                    ReleaseTag(F(i, 2) if staggered else F(0)),
                    F(rng.randint(1, 4 * n), rng.randint(1, 3)),
                )
                for i in range(n)
            ),
        )
        for policy in ("slf", "setf", "rr"):
            s = simulate(inst, policy)
            check_membership_rule(s.run)
            stored = sum(map(len, s.run.spans.values()))
            assert stored <= n * (n.bit_length() + 1), (n, policy, stored)
            if staggered:  # the group queries read the stays, not a member view
                half, end = s.end_time / 2, s.end_time
                s.jobs_before(half)
                touched_jobs(s, end / 4, half)
                s.known_runs
                s.reach_times({j.id: j.size / 2 for j in inst.jobs[:50]}, end / 4)
                s.last_touch(1, half)
                assert "_stays" in vars(s), policy
                assert not {"_members", "segments"} & set(vars(s)), policy
    # the sweep op's path: simulate, the exact flow ratio, the completions
    inst = exp_simultaneous_sample(200, seed=7, epsilon=F(1, 2))
    for policy in ("slf", "setf", "rr"):
        alg, opt = simulate(inst, policy), simulate(inst, "srpt")
        assert 1 <= total_flow_time(alg, inst) / total_flow_time(opt, inst) <= 2
        assert len(alg.completions) == len(opt.completions) == 200
        for s in (alg, opt):
            assert not {"_stays", "_members", "segments"} & set(vars(s)), policy
