import random
from fractions import Fraction as F

import pytest

from slflab.policies import (
    PolicyError,
    estimate,
    rr_allocation,
    setf_allocation,
    slf_allocation,
    srpt_allocation,
)
from slflab.sim import JobState, simulate, state_at, touched_jobs

from .helpers import random_instance, segment_tuples


def st(jid, elapsed, remaining, known):
    return JobState(jid, F(elapsed), None if remaining is None else F(remaining), known)


def test_slf_toy_moments():
    # six unknown jobs at release: equal sixths
    states = {i: st(i, 0, p, False) for i, p in zip(range(1, 7), (5, 4, 3, 3, 2, 1))}
    assert slf_allocation(states, F(1, 2)) == {i: F(1, 6) for i in range(1, 7)}
    # at t=3 job 6 is known with remaining 1/2, the rest unknown at estimate 1/2
    states = {i: st(i, F(1, 2), p - F(1, 2), False) for i, p in zip(range(1, 6), (5, 4, 3, 3, 2))}
    states[6] = st(6, F(1, 2), F(1, 2), True)
    assert slf_allocation(states, F(1, 2)) == {6: F(1)}


def test_slf_eps_one_is_srpt():
    states = {1: st(1, 1, 4, True), 2: st(2, 0, 2, True)}
    assert slf_allocation(states, F(1)) == srpt_allocation(states)


def test_srpt_allocation():
    states = {i: st(i, 0, p, True) for i, p in zip(range(1, 7), (5, 4, 3, 3, 2, 1))}
    assert srpt_allocation(states) == {6: F(1)}
    assert srpt_allocation({1: st(1, 0, 5, True)}) == {1: F(1)}
    tie = {1: st(1, 0, 2, True), 2: st(2, 0, 2, True)}
    assert srpt_allocation(tie) == {1: F(1)}
    with pytest.raises(PolicyError):
        srpt_allocation({1: st(1, 0, None, False)})


def test_setf_allocation():
    states = {1: st(1, 0, 5, False), 2: st(2, 0, 4, False), 3: st(3, 1, 2, False)}
    assert setf_allocation(states) == {1: F(1, 2), 2: F(1, 2)}
    assert setf_allocation({1: st(1, 3, 1, False)}) == {1: F(1)}
    equal = {i: st(i, F(1, 2), p, False) for i, p in zip((1, 2, 3), (5, 4, 3))}
    assert setf_allocation(equal) == {i: F(1, 3) for i in (1, 2, 3)}


def test_rr_allocation():
    states = {i: st(i, i, 5, False) for i in range(1, 5)}
    assert rr_allocation(states) == {i: F(1, 4) for i in range(1, 5)}
    assert rr_allocation({7: st(7, 0, 1, False)}) == {7: F(1)}
    assert rr_allocation({}) == {}


def test_estimate_monotone_and_continuous():
    rng = random.Random(10)
    for _ in range(25):
        eps = F(rng.randint(1, 9), 10)
        inst = random_instance(rng, eps, rng.randint(1, 6))
        sched = simulate(inst, "slf")
        for j in inst.jobs:
            prev = None
            was_known = False
            for t in sched.boundaries():
                states = state_at(sched, inst, t)
                if j.id not in states:
                    continue
                s = states[j.id]
                val = estimate(s, eps)
                # lower bound on the remaining time
                assert val <= s.remaining
                if prev is not None:
                    if was_known:
                        assert val <= prev  # known: non-increasing
                    elif not s.known:
                        assert val >= prev  # unknown: non-decreasing
                # continuity at the knowledge transition: eps * p both sides
                if s.known and not was_known and s.elapsed == (1 - eps) * j.size:
                    assert val == eps * j.size
                prev, was_known = val, s.known


def test_degeneration_quick():
    rng = random.Random(11)
    for _ in range(50):
        inst = random_instance(rng, F(1), rng.randint(1, 8))
        assert segment_tuples(simulate(inst, "slf")) == segment_tuples(
            simulate(inst, "srpt")
        )
        inst0 = random_instance(rng, F(0), rng.randint(1, 8))
        assert segment_tuples(simulate(inst0, "slf")) == segment_tuples(
            simulate(inst0, "setf")
        )


def test_new_job_joins_pool_property():
    # any job arriving while i is unknown either matches i's elapsed when i
    # is touched later, or has completed by then
    rng = random.Random(12)
    for _ in range(40):
        eps = F(rng.randint(1, 9), 10)
        inst = random_instance(rng, eps, rng.randint(2, 8))
        sched = simulate(inst, "slf")
        thr = {j.id: (1 - eps) * j.size for j in inst.jobs}
        rel = {j.id: j.release.time for j in inst.jobs}
        for seg in sched.segments:
            for i, rate in seg.rates.items():
                if rate <= 0:
                    continue
                st_i = state_at(sched, inst, seg.start).get(i)
                if st_i is None or st_i.known:
                    continue
                for j in inst.jobs:
                    if j.id == i or rel[j.id] <= rel[i] or rel[j.id] > seg.start:
                        continue
                    # j arrived at q_j > q_i while i stayed unknown since then?
                    sj = state_at(sched, inst, rel[j.id]).get(i)
                    if sj is None or sj.known:
                        continue
                    stj = state_at(sched, inst, seg.start).get(j.id)
                    if stj is not None:
                        assert stj.elapsed == st_i.elapsed or stj.remaining == 0


def test_known_jobs_block_property():
    rng = random.Random(13)
    for _ in range(40):
        eps = F(rng.randint(1, 9), 10)
        inst = random_instance(rng, eps, rng.randint(2, 8))
        sched = simulate(inst, "slf")
        rel = {j.id: j.release.time for j in inst.jobs}
        for seg in sched.segments:
            if len(seg.rates) != 1:
                continue
            (jid,) = seg.rates
            states = state_at(sched, inst, seg.start)
            if jid not in states or not states[jid].known:
                continue
            c_j = sched.completions[jid]
            touched = touched_jobs(sched, seg.start, c_j)
            for other in touched - {jid}:
                if rel[other] < seg.start:
                    st_o = state_at(sched, inst, seg.start).get(other)
                    assert st_o is None or st_o.known
