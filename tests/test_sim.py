import random
from fractions import Fraction as F

import pytest

from slflab.core import Instance, Job, ReleaseTag, scale_instance
from slflab.policies import allocation_for
from slflab.sim import (
    IntervalSet,
    SimulationError,
    simulate,
    state_at,
    touched_jobs,
)

from .helpers import random_instance, segment_tuples, toy_instance


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
    assert state_at(sched, inst, F(0), release_cutoff="none") == {}
    at0 = state_at(sched, inst, F(0))
    assert sorted(at0) == [1, 2, 3, 4, 5, 6]
    assert all(s.elapsed == 0 for s in at0.values())
    assert state_at(sched, inst, F(100)) == {}
    with pytest.raises(SimulationError):
        state_at(sched, inst, F(0), release_cutoff="plain")


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
    for _ in range(60):
        inst = random_instance(rng, F(rng.randint(1, 9), 10), rng.randint(1, 9))
        sched = simulate(inst, "slf")
        # conservation: every segment with work sums to the speed
        t = F(0)
        for seg in sched.segments:
            assert seg.start == t
            t = seg.end
            if seg.rates:
                assert sum(seg.rates.values()) == 1
        # completions exact: integrate and compare
        elapsed = sched.elapsed_at(sched.end_time)
        for j in inst.jobs:
            assert elapsed[j.id] == j.size
            assert sched.completions[j.id] <= sched.end_time


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
    for _ in range(40):
        eps = F(rng.randint(0, 10), 10)
        inst = random_instance(rng, eps, rng.randint(1, 7))
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
    inst = Instance(F(1), (Job(1, ReleaseTag(F(2)), F(3)),))
    sched = simulate(inst, "slf")
    assert [(e.t, e.kind) for e in sched.events if e.job == 1][:2] == [
        (F(2), "arrival"),
        (F(2), "known"),
    ]


def test_schedule_queries_match_plain_scans():
    rng = random.Random(9)
    for _ in range(25):
        inst = random_instance(rng, F(rng.randint(1, 9), 10), rng.randint(1, 7))
        for policy in ("slf", "srpt", "setf", "rr"):
            sched = simulate(inst, policy)
            segs = sched.segments
            times = sched.boundaries()
            probes = sorted(set(times) | {(a + b) / 2 for a, b in zip(times, times[1:])})
            # each known event is the first boundary where state_at says known
            first_known: dict = {}
            for t in times:
                for jid, st in state_at(sched, inst, t).items():
                    if st.known:
                        first_known.setdefault(jid, t)
            assert sched.known_times() == first_known, policy
            # reach_times: work since `after` first equals the level there
            after = rng.choice(probes)
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
            # the bisected queries agree with scans over every segment
            for t in probes + [sched.end_time + 1]:
                cover = [seg.rates for seg in segs if seg.start < t <= seg.end]
                assert sched.rates_before(t) == (cover[0] if cover else {})
                for j in inst.jobs:
                    ends = [
                        min(seg.end, t)
                        for seg in segs
                        if seg.start < t and seg.rates.get(j.id, 0) > 0
                    ]
                    assert sched.last_touch(j.id, t) == (ends[-1] if ends else None)
                runs = [
                    (seg.start, seg.end, next(iter(seg.rates)) if len(seg.rates) == 1 else None)
                    for seg in segs
                    if seg.end > t
                ]
                assert list(sched.solo_runs(t)) == runs
                end = t + F(rng.randint(0, 3), 2)
                touched = {
                    jid
                    for seg in segs
                    if min(seg.end, end) > max(seg.start, t)
                    for jid in seg.rates
                }
                assert touched_jobs(sched, t, end) == touched


def _walk_elapsed(sched, t):
    """Reference: elapsed work during [0, t), summed over every segment."""
    out: dict = {}
    for seg in sched.segments:
        dur = min(seg.end, t) - seg.start
        if dur > 0:
            for jid, rate in seg.rates.items():
                out[jid] = out.get(jid, F(0)) + rate * dur
    return out


def _walk_states(inst, elapsed, t, cutoff):
    """Reference state_at over walked elapsed work, one job at a time."""
    out = {}
    for j in inst.jobs:
        rt = j.release.time
        if rt > t or (rt == t and cutoff == "none"):
            continue
        e = elapsed.get(j.id, F(0))
        if e < j.size:
            known = inst.epsilon > 0 and e >= (1 - inst.epsilon) * j.size
            out[j.id] = (e, j.size - e, known)
    return out


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
            times = sched.boundaries()
            assert times == sorted({F(0), *(seg.end for seg in sched.segments)})
            mids = [(x + y) / 2 for x, y in zip(times, times[1:])]
            probes = [F(0), *times, *mids, sched.end_time + F(1, 3), sched.end_time + 50]
            rng.shuffle(probes)  # queries in any order see the same index
            for t in probes:
                want = _walk_elapsed(sched, t)
                got = sched.elapsed_at(t)
                assert got == want, (policy, t)
                # the caller owns the returned dict: editing it changes nothing
                got[len(inst.jobs) + 1] = F(7)
                for jid in got:
                    got[jid] += 1
                assert sched.elapsed_at(t) == want, (policy, t)
                for cutoff in ("all", "none"):
                    states = state_at(sched, inst, t, release_cutoff=cutoff)
                    assert {
                        i: (st.elapsed, st.remaining, st.known) for i, st in states.items()
                    } == _walk_states(inst, want, t, cutoff), (policy, t, cutoff)
