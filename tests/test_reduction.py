import dataclasses
import random
from fractions import Fraction as F

import pytest

from slflab import reduction as reduction_module
from slflab.core import Instance, Job, ReleaseTag
from slflab.metrics import count_profile
from slflab.reduction import (
    ReductionError,
    WaterFillingConfig,
    known_work_intervals,
    reduction_check,
    setfi_vs_setf,
    water_filling_dominance,
    water_filling_trajectories,
)
from slflab.sim import POLICIES, IntervalSet, Schedule, simulate

from .helpers import random_instance, toy_instance


def levels_at(traj, t):
    from slflab.reduction import _levels_at

    return _levels_at(traj, t)


def test_water_filling_hand_trace():
    cfg = WaterFillingConfig((F(0), F(0)), (F(0), F(1)), (F(2), F(2)))
    lo, hi = water_filling_trajectories(cfg)
    assert levels_at(lo, F(1)) == (F(1, 2), F(1, 2))
    assert levels_at(hi, F(1)) == (F(1), F(1))
    assert water_filling_dominance(cfg).ok
    # all capacities reached when the poured volume equals the total gap
    assert lo[-1][0] == F(4) and lo[-1][1] == (F(2), F(2))
    assert hi[-1][0] == F(3)


def test_water_filling_identical():
    cfg = WaterFillingConfig((F(1), F(0)), (F(1), F(0)), (F(3), F(2)))
    lo, hi = water_filling_trajectories(cfg)
    assert lo == hi
    assert water_filling_dominance(cfg).ok


def test_water_filling_precondition():
    with pytest.raises(ReductionError):
        WaterFillingConfig((F(2),), (F(1),), (F(3),))
    with pytest.raises(ReductionError):
        WaterFillingConfig((F(1),), (F(4),), (F(3),))


def random_config(rng, n):
    p = tuple(F(rng.randint(1, 12), rng.randint(1, 3)) for _ in range(n))
    x = tuple(
        min(pi, F(rng.randint(0, 12), rng.randint(1, 3))) for pi in p
    )
    xp = tuple(min(pi, xi + F(rng.randint(0, 6), rng.randint(1, 3))) for pi, xi in zip(p, x))
    return WaterFillingConfig(x, xp, p)


def test_water_filling_random():
    rng = random.Random(50)
    for _ in range(500):
        cfg = random_config(rng, rng.randint(1, 10))
        rep = water_filling_dominance(cfg)
        assert rep.ok, (cfg, rep.witness)


def test_setfi_empty_interval_identical():
    inst = toy_instance()
    plain = simulate(inst, "setf")
    idled = simulate(inst, "setf", forbidden=IntervalSet.from_pairs([]))
    assert plain.segments == idled.segments
    assert setfi_vs_setf(plain, idled).ok


def test_setfi_dominance_toy():
    inst = toy_instance()
    plain = simulate(inst, "setf")
    idled = simulate(inst, "setf", forbidden=IntervalSet.from_pairs([(F(1), F(2))]))
    rep = setfi_vs_setf(plain, idled)
    assert rep.ok
    assert max(idled.completions.values()) >= max(plain.completions.values())


def test_setfi_dominance_random():
    rng = random.Random(51)
    for _ in range(60):
        inst = random_instance(rng, F(0), rng.randint(1, 7))
        a = F(rng.randint(0, 8), rng.randint(1, 2))
        b = a + F(rng.randint(1, 5), rng.randint(1, 2))
        idled = simulate(inst, "setf", forbidden=IntervalSet.from_pairs([(a, b)]))
        rep = setfi_vs_setf(simulate(inst, "setf"), idled)
        assert rep.ok, rep.witness


def _setfi_vs_setf_per_boundary(plain, idled):
    """Reference: the per-boundary definition of setfi_vs_setf, built from
    the random-access queries elapsed_at and active_count."""
    checks = {"elapsed-dominance": True, "count": True}
    witness: dict = {}
    for t in sorted(set(plain.boundaries()) | set(idled.boundaries())):
        ei = idled.elapsed_at(t)
        ep = plain.elapsed_at(t)
        for j in plain.instance.jobs:
            if ei.get(j.id, F(0)) > ep.get(j.id, F(0)):
                checks["elapsed-dominance"] = False
                witness.setdefault("elapsed", (t, j.id))
        if plain.active_count(t) > idled.active_count(t):
            checks["count"] = False
            witness.setdefault("count", t)
    return all(checks.values()), checks, witness


def test_setfi_vs_setf_matches_per_boundary_definition():
    # any policy on the plain side, setf/rr with a random forbidden window on
    # the idled side; each pair is also passed swapped, so about half violate
    rng = random.Random(54)
    failed = {"elapsed-dominance": 0, "count": 0}
    for _ in range(25):
        inst = random_instance(rng, F(rng.randint(1, 9), 10), rng.randint(1, 7))
        # job order, not id order, picks among violators at one time
        inst = inst.with_jobs(rng.sample(inst.jobs, len(inst.jobs)))
        a = F(rng.randint(0, 8), rng.randint(1, 2))
        window = IntervalSet.from_pairs([(a, a + F(rng.randint(1, 5), rng.randint(1, 2)))])
        for policy in POLICIES:
            plain = simulate(inst, policy)
            for idled_policy in ("setf", "rr"):
                idled = simulate(inst, idled_policy, forbidden=window)
                for x, y in ((plain, idled), (idled, plain)):
                    rep = setfi_vs_setf(x, y)
                    want = _setfi_vs_setf_per_boundary(x, y)
                    assert (rep.ok, rep.checks, rep.witness) == want, (policy, idled_policy)
                    for name, ok in rep.checks.items():
                        failed[name] += not ok
    assert min(failed.values()) >= 50, failed


def test_setfi_vs_setf_violation_witnesses():
    # job 2 (size 1) is listed before job 1 (size 2); the "plain" side idles
    # on [0, 1), so at t = 1 both jobs have more work on the other side
    inst = Instance(F(1, 2), (Job(2, ReleaseTag(F(0)), F(1)), Job(1, ReleaseTag(F(0)), F(2))))
    late = simulate(inst, "setf", forbidden=IntervalSet.from_pairs([(F(0), F(1))]))
    rep = setfi_vs_setf(late, simulate(inst, "setf"))
    assert not rep.ok
    assert rep.checks == {"elapsed-dominance": False, "count": False}
    # the first violator in job order; the count breaks when job 2 finishes
    # at t = 2 on the unidled side and only at t = 3 on the idled one
    assert rep.witness == {"elapsed": (F(1), 2), "count": F(2)}


def test_chain_checks_use_forward_walks_only(monkeypatch):
    # reduction_check and count_profile answer every boundary in one forward
    # walk; per-boundary random access must not creep back into them
    def no_random_access(self, t):
        raise AssertionError("per-boundary random-access query")

    rng = random.Random(55)
    inst = random_instance(rng, F(1, 2), 7)
    schedules = [simulate(inst, policy) for policy in POLICIES]
    want = [
        (t, tuple(s.active_count(t) for s in schedules))
        for t in sorted({t for s in schedules for t in s.boundaries()})
    ]
    monkeypatch.setattr(Schedule, "elapsed_at", no_random_access)
    monkeypatch.setattr(Schedule, "active_count", no_random_access)
    assert count_profile(*schedules) == want
    rep = reduction_check(inst, F(1, 2))
    assert rep.ok, (rep.checks, rep.witness)


def _chain_per_boundary(fast, slow, idled, alg):
    """Reference: reduction_check's (ok, checks, witness) from its four
    schedules, by the per-boundary definition (elapsed_at, active_count)."""
    setfi_ok, _, setfi_witness = _setfi_vs_setf_per_boundary(slow, idled)
    checks = {
        "scale-identity-boundaries": fast.boundaries() == slow.boundaries(),
        "scale-identity-completions": fast.completions == slow.completions,
        "scale-identity-counts": True,
        "setfi-dominance": setfi_ok,
        "count-vs-alg": True,
        "chain": True,
    }
    witness: dict = {} if setfi_ok else {"setfi": setfi_witness}
    schedules = (fast, slow, idled, alg)
    for t in sorted({t for s in schedules for t in s.boundaries()}):
        n_fast, n_slow, n_idled, n_alg = (s.active_count(t) for s in schedules)
        if n_fast != n_slow:
            checks["scale-identity-counts"] = False
            witness.setdefault("scale-counts", t)
        if n_idled > n_alg:
            checks["count-vs-alg"] = False
            witness.setdefault("count-vs-alg", t)
        if not (n_fast == n_slow <= n_idled <= n_alg):
            checks["chain"] = False
            witness.setdefault("chain", t)
    return all(checks.values()), checks, witness


def _swap_first_completions(sched):
    a, b, *_ = sorted(sched.run.done)
    done = dict(sched.run.done)
    done[a], done[b] = done[b], done[a]
    return dataclasses.replace(sched, run=sched.run._replace(done=done))


def _delayed(inst):
    return inst.with_jobs(
        dataclasses.replace(j, release=ReleaseTag(j.release.time + 1)) for j in inst.jobs
    )


# (role, check, wrong): the schedule a faulty engine returns for one of
# reduction_check's four runs, and the check that this must break
FAULTS = (
    ("fast", "scale-identity-boundaries", lambda sim, inst, kw: sim(inst, "rr", **kw)),
    (
        "fast",
        "scale-identity-completions",
        lambda sim, inst, kw: _swap_first_completions(sim(inst, "setf", **kw)),
    ),
    ("slow", "scale-identity-counts", lambda sim, inst, kw: sim(inst, "srpt", **kw)),
    ("idled", "setfi-dominance", lambda sim, inst, kw: sim(inst, "setf", speed=F(3, 2))),
    # the count breaks first, then the elapsed dominance
    ("idled", "setfi-dominance", lambda sim, inst, kw: sim(_delayed(inst), "setf", speed=F(3))),
    ("alg", "count-vs-alg", lambda sim, inst, kw: sim(inst, "slf", speed=F(3))),
    ("idled", "chain", lambda sim, inst, kw: sim(inst, "srpt", **kw)),
)


def _role(policy, kw):
    if policy == "slf":
        return "alg"
    return "fast" if "speed" in kw else "idled" if "forbidden" in kw else "slow"


def test_reduction_check_witnesses_under_faulty_engine(monkeypatch):
    # real engines never fail a check, so faults drive the witness paths: on
    # every instance the checks and witnesses, key order included, match
    # the reference, and each fault breaks its check on some instance
    real = reduction_module.simulate
    rng = random.Random(56)
    insts = [random_instance(rng, F(1, 2), rng.randint(2, 7)) for _ in range(12)]
    for role, check, wrong in FAULTS:
        broke = 0
        for inst in insts:
            made = {}

            def faulty(inst, policy, **kw):
                who = _role(policy, kw)
                made[who] = wrong(real, inst, kw) if who == role else real(inst, policy, **kw)
                return made[who]

            monkeypatch.setattr(reduction_module, "simulate", faulty)
            rep = reduction_check(inst, F(1, 2))
            want = _chain_per_boundary(made["fast"], made["slow"], made["idled"], made["alg"])
            assert (rep.ok, rep.checks, rep.witness) == want, (role, check)
            assert repr(rep.witness) == repr(want[2]), (role, check)
            broke += not rep.checks[check]
        assert broke, (role, check)


def test_known_work_intervals_toy():
    inst = toy_instance()
    intervals = known_work_intervals(simulate(inst, "slf"))
    # the known runs in the worked example: job 6, job 5, jobs 3,4, job 2, job 1
    assert (F(3), F(7, 2)) in intervals.intervals
    assert (F(6), F(7)) in intervals.intervals


def test_known_work_intervals_match_the_merged_solo_runs():
    # the tick walk against its definition: the solo segments of a known
    # job, scanned from the `segments` and `events` views, as Fraction pairs
    # merged by `IntervalSet.from_pairs`
    rng = random.Random(59)
    for trial in range(40):
        eps = F(rng.randint(1, 3), 4)
        inst = random_instance(rng, eps, rng.randint(1, 9))
        alg = simulate(inst, "slf", speed=(F(1), F(4, 3))[trial % 2])
        known = {ev.job: ev.t for ev in alg.events if ev.kind == "known"}
        want = IntervalSet.from_pairs(
            (seg.start, seg.end)
            for seg in alg.segments
            if len(seg.jobs) == 1 and seg.jobs[0] in known and known[seg.jobs[0]] <= seg.start
        )
        assert known_work_intervals(alg) == want, inst


def test_reduction_chain_toy():
    rep = reduction_check(toy_instance(), F(1, 2))
    assert rep.ok, (rep.checks, rep.witness)


def test_reduction_chain_single_job():
    inst = Instance(F(1, 2), (Job(1, ReleaseTag(F(0)), F(4)),))
    assert reduction_check(inst, F(1, 2)).ok


def test_reduction_chain_random():
    rng = random.Random(52)
    for _ in range(60):
        eps = rng.choice([F(1, 4), F(1, 2), F(3, 4)])
        inst = random_instance(rng, eps, rng.randint(1, 7))
        rep = reduction_check(inst, eps)
        assert rep.ok, (rep.checks, rep.witness)


def test_reduction_needs_open_epsilon():
    with pytest.raises(ReductionError):
        reduction_check(toy_instance(), F(1))


def test_setf_speed_augmentation_corollary():
    # the (1+eps)-speed run stays within (1 + ceil(1/eps)) of the unit-speed
    # optimum's counts at every event boundary
    from slflab.core import ceil_inv

    rng = random.Random(53)
    for _ in range(40):
        eps = rng.choice([F(1, 4), F(1, 2)])
        bound = 1 + ceil_inv(eps)
        inst = random_instance(rng, eps, rng.randint(1, 7))
        fast = simulate(inst, "setf", speed=1 + eps)
        opt = simulate(inst, "srpt")
        for t in sorted(set(fast.boundaries()) | set(opt.boundaries())):
            assert fast.active_count(t) <= bound * opt.active_count(t)
