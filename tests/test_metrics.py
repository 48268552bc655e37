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
from slflab.sim import EMPTY_INTERVALS, IntervalSet, simulate

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


def test_total_flow_time_matches_plain_sum():
    # staggered releases with denominators 1..3 and sizes with 1..4, under
    # every policy: rr's 1/k rates and slf's thresholds mix the denominators;
    # at speed 4/3 with a window in thirds, some completion ticks leave the
    # run's integers
    rng = random.Random(25)
    window = IntervalSet.from_pairs([(F(1, 3), F(5, 3))])
    dens = set()
    off_grid = 0
    for _ in range(30):
        eps = F(rng.randint(1, 9), 10)
        inst = random_instance(rng, eps, rng.randint(1, 9))
        for policy in ("slf", "srpt", "setf", "rr"):
            for speed, forbidden in ((F(1), EMPTY_INTERVALS), (F(4, 3), window)):
                sched = simulate(inst, policy, speed=speed, forbidden=forbidden)
                plain = F(0)
                for j in inst.jobs:
                    plain += sched.completions[j.id] - j.release.time
                assert total_flow_time(sched, inst) == plain
                dens.update(c.denominator for c in sched.completions.values())
                ticks = sched.run.ticks
                off_grid += any(type(ticks[i]) is F for i in sched.run.done.values())
    assert len(dens) > 10
    assert off_grid > 10


def test_total_flow_time_names_first_missing_job():
    inst = Instance(
        F(1, 2),
        (
            Job(3, ReleaseTag(F(0)), F(1)),
            Job(1, ReleaseTag(F(0)), F(5)),
            Job(2, ReleaseTag(F(0)), F(6)),
        ),
    )
    sched = simulate(inst, "srpt", horizon=F(2))
    assert sched.completions == {3: F(1)}
    with pytest.raises(MetricsError, match="job 1 does not complete"):
        total_flow_time(sched, inst)
    rng = random.Random(26)
    for _ in range(20):
        inst = random_instance(rng, F(1, 3), rng.randint(2, 8))
        sched = simulate(inst, "rr", horizon=F(rng.randint(1, 8), 2))
        missing = [j.id for j in inst.jobs if j.id not in sched.completions]
        if missing:
            with pytest.raises(MetricsError, match=f"job {missing[0]} does not"):
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


def test_local_competitiveness_violation_names_first_boundary():
    # toy at rho = 3/2: 5 > 3/2 * 3 first at t = 6; the worst ratio, 4/2,
    # comes later at t = 9 and does not move the witness
    inst = toy_instance()
    rep = local_competitiveness(simulate(inst, "slf"), simulate(inst, "srpt"), F(3, 2))
    assert not rep.passed
    first = next(t for t, a, o in rep.table if a > F(3, 2) * o)
    assert first == F(6) and rep.witness_time == first
    assert rep.max_count_ratio == F(2)
    assert dict((t, (a, o)) for t, a, o in rep.table)[F(9)] == (4, 2)


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


def test_counts_past_a_horizon():
    # job 3 is released exactly at the horizon and arrives there; job 4,
    # released after it, never arrives in the cut run and counts as active
    # from its release on, read off the full run's later boundaries
    horizon = F(2)
    inst = Instance(
        F(1, 2),
        (
            Job(1, ReleaseTag(F(0)), F(3)),
            Job(2, ReleaseTag(F(1, 2)), F(1)),
            Job(3, ReleaseTag(horizon), F(1)),
            Job(4, ReleaseTag(F(5, 2)), F(1, 2)),
        ),
    )
    for policy in ("slf", "srpt", "setf", "rr"):
        cut = simulate(inst, policy, horizon=horizon)
        assert cut.end_time == horizon and 3 in cut.final_elapsed and 4 not in cut.final_elapsed
        full = simulate(inst, policy)
        profile = count_profile(cut, full)
        assert [t for t, _ in profile] == full.boundaries(), policy
        for t, counts in profile:
            assert counts == (cut.active_count(t), full.active_count(t)), (policy, t)
        assert profile[-1][1][0] == len(inst.jobs) - len(cut.completions)


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
