import random
from fractions import Fraction as F

import pytest

from slflab.core import Instance, Job, ReleaseTag, ceil_inv
from slflab.metrics import (
    MetricsError,
    competitive_ratio,
    count_profile,
    local_competitiveness,
    plot_data_csv,
    total_flow_time,
)
from slflab.sim import simulate

from .helpers import random_instance, toy_instance


def spt_flow(sizes) -> F:
    """Closed-form optimal flow for simultaneous release: sum (n-j+1) p_(j)."""
    ordered = sorted(sizes)
    n = len(ordered)
    return sum((F(n - j) * p for j, p in enumerate(ordered)), F(0))


def test_toy_flows():
    inst = toy_instance()
    assert total_flow_time(simulate(inst, "srpt"), inst) == F(50)
    assert spt_flow([5, 4, 3, 3, 2, 1]) == F(50)
    assert total_flow_time(simulate(inst, "slf"), inst) == F(66)


def test_single_job_flow():
    inst = Instance(F(1, 2), (Job(1, ReleaseTag(F(0)), F(11)),))
    assert total_flow_time(simulate(inst, "slf"), inst) == F(11)


def test_incomplete_schedule_rejected():
    inst = Instance(F(1, 2), (Job(1, ReleaseTag(F(0)), F(4)),))
    sched = simulate(inst, "slf", horizon=F(1))
    with pytest.raises(MetricsError):
        total_flow_time(sched, inst)


def test_competitive_ratio_examples():
    inst = toy_instance()
    ratio = competitive_ratio(simulate(inst, "slf"), simulate(inst, "srpt"), inst)
    assert ratio == F(33, 25)
    assert ratio <= 2 - inst.epsilon
    same = competitive_ratio(simulate(inst, "srpt"), simulate(inst, "srpt"), inst)
    assert same == 1
    two = Instance(F(0), (Job(1, ReleaseTag(F(0)), F(1)), Job(2, ReleaseTag(F(0)), F(1))))
    assert competitive_ratio(simulate(two, "setf"), simulate(two, "srpt"), two) == F(4, 3)


def test_local_competitiveness_toy():
    inst = toy_instance()
    rep = local_competitiveness(simulate(inst, "slf"), simulate(inst, "srpt"), F(2))
    assert rep.passed
    table = dict((t, (a, o)) for t, a, o in rep.table)
    assert table[F(9)] == (4, 2)
    same = local_competitiveness(simulate(inst, "srpt"), simulate(inst, "srpt"), F(1))
    assert same.passed


def test_local_competitiveness_random():
    rng = random.Random(20)
    for _ in range(60):
        inst = random_instance(rng, F(1, 3), rng.randint(1, 8))
        rep = local_competitiveness(
            simulate(inst, "slf"), simulate(inst, "srpt"), F(3)
        )
        assert rep.passed, rep.witness_time


def test_flow_equals_count_integral():
    rng = random.Random(21)
    for _ in range(40):
        inst = random_instance(rng, F(1, 2), rng.randint(1, 8))
        sched = simulate(inst, "slf")
        flow = total_flow_time(sched, inst)
        times = sched.boundaries()
        integral = sum(
            (sched.active_count(a) * (b - a) for a, b in zip(times, times[1:])),
            F(0),
        )
        assert integral == flow


def test_srpt_is_best():
    rng = random.Random(22)
    for _ in range(40):
        inst = random_instance(rng, F(1, 2), rng.randint(1, 8))
        opt = total_flow_time(simulate(inst, "srpt"), inst)
        assert total_flow_time(simulate(inst, "slf"), inst) >= opt
        assert total_flow_time(simulate(inst, "setf"), inst) >= opt


def test_count_profile_matches_merged_grid():
    rng = random.Random(24)
    for _ in range(30):
        inst = random_instance(rng, F(1, 2), rng.randint(0, 7))
        scheds = [simulate(inst, p) for p in ("slf", "srpt", "setf", "rr")]
        for k in range(1, 5):
            group = scheds[:k]
            grid = sorted({t for s in group for t in s.boundaries()})
            want = [(t, tuple(s.active_count(t) for s in group)) for t in grid]
            assert count_profile(*group) == want


def test_plot_csv_shape():
    inst = toy_instance()
    rep = local_competitiveness(simulate(inst, "slf"), simulate(inst, "srpt"), F(2))
    csv = plot_data_csv(rep)
    lines = csv.strip().split("\n")
    assert lines[0] == "t,count_alg,count_opt"
    assert lines[1].startswith("0,6,6")


def test_ceil_bound_matches_theorem_shape():
    # |SLF(t)| <= ceil(1/eps) |OPT(t)| across a small eps sweep
    rng = random.Random(23)
    for eps in (F(1, 5), F(1, 2), F(9, 10)):
        inst = random_instance(rng, eps, 7)
        rep = local_competitiveness(
            simulate(inst, "slf"), simulate(inst, "srpt"), F(ceil_inv(eps))
        )
        assert rep.passed
