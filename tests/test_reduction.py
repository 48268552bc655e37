import random
from fractions import Fraction as F

import pytest

from slflab.core import Instance, Job, ReleaseTag
from slflab.reduction import (
    ReductionError,
    WaterFillingConfig,
    known_work_intervals,
    reduction_check,
    setfi_vs_setf,
    water_filling_dominance,
    water_filling_trajectories,
)
from slflab.sim import IntervalSet, simulate

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


def test_known_work_intervals_toy():
    inst = toy_instance()
    intervals = known_work_intervals(simulate(inst, "slf"))
    # the known runs in the worked example: job 6, job 5, jobs 3,4, job 2, job 1
    assert (F(3), F(7, 2)) in intervals.intervals
    assert (F(6), F(7)) in intervals.intervals


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
