import hashlib
import math
import random
from dataclasses import astuple
from fractions import Fraction as F

import pytest

from slflab.adversary import (
    AdversaryError,
    _count_pair,
    deterministic_lb_run,
    exp_simultaneous_sample,
    lb_statistics,
    phase_horizon,
    phase_lb_sample,
    randomized_lb_sample,
)
from slflab.core import ceil_inv, rat_str, serialize_instance
from slflab.metrics import total_flow_time
from slflab.sim import simulate


def test_one_round_half():
    tr = deterministic_lb_run(F(1, 2), 1)
    assert tr.k == 1
    r = tr.rounds[0]
    assert r.t_declare == F(2)
    assert set(r.declared.values()) == {F(2)}
    assert r.t_end == F(2)
    assert (r.smart_count, r.alg_count) == (1, 2)


def test_zero_rounds():
    tr = deterministic_lb_run(F(1, 2), 0)
    assert tr.rounds == [] and tr.final_ratio is None


def test_three_rounds_third():
    tr = deterministic_lb_run(F(1, 3), 3)
    assert [(r.smart_count, r.alg_count) for r in tr.rounds] == [
        (1, 3),
        (2, 6),
        (3, 9),
    ]


def test_counts_exact_and_ratio_with_tail():
    for eps in (F(1, 2), F(1, 3)):
        kp = ceil_inv(eps)
        tr = deterministic_lb_run(eps, 3, tail_m=200)
        assert tr.rounds[-1].alg_count == 3 * kp
        assert tr.final_ratio is not None
        assert float(tr.final_ratio) >= kp - 0.01
        # ratio is non-decreasing in the tail length
        shorter = deterministic_lb_run(eps, 3, tail_m=50)
        assert tr.final_ratio >= shorter.final_ratio


def test_lower_bound_against_setf_and_rr():
    # rr admits each round's undeclared jobs into its one running group
    for policy in ("setf", "rr"):
        for eps in (F(1, 2), F(1, 3)):
            kp = ceil_inv(eps)
            tr = deterministic_lb_run(eps, 3, tail_m=5, policy=policy)
            assert [r.alg_count for r in tr.rounds] == [c * kp for c in (1, 2, 3)]
            assert float(tr.final_ratio) >= kp - 0.01


def test_policy_gate():
    with pytest.raises(AdversaryError):
        deterministic_lb_run(F(1, 2), 1, policy="srpt")
    with pytest.raises(AdversaryError):
        deterministic_lb_run(F(1), 1)


def test_adversary_instance_replays():
    tr = deterministic_lb_run(F(1, 2), 2, tail_m=10)
    sched = simulate(tr.instance, "slf")
    # stuck jobs stay stuck through the tail
    for jid in tr.alg_stuck:
        assert sched.completions[jid] > tr.tail_end


def test_geometric_sampler():
    inst, tau = randomized_lb_sample(1, seed=5)
    assert tau == 0
    assert len(inst.jobs) == 2
    assert inst.epsilon == F(1, 2)
    inst, tau = randomized_lb_sample(4, seed=5)
    assert len(inst.jobs) == 16
    assert all(j.size >= 1 and j.size.denominator == 1 for j in inst.jobs)
    again, tau2 = randomized_lb_sample(4, seed=5)
    assert again == inst and tau2 == tau
    # mean size ~ 3 within three standard errors at k=10
    inst10, _ = randomized_lb_sample(10, seed=1)
    n = len(inst10.jobs)
    mean = sum(float(j.size) for j in inst10.jobs) / n
    # Var[P] = 2, so sigma of the mean is sqrt(2/n)
    assert abs(mean - 3.0) <= 3 * math.sqrt(2 / n)


def test_phase_sampler():
    inst = phase_lb_sample(F(1, 2), 1, seed=0)
    assert {j.size for j in inst.jobs} == {F(9), F(18)}
    assert all(j.release.time == 0 for j in inst.jobs)
    assert phase_lb_sample(F(1, 2), 0, seed=0).jobs == ()
    lam = F(9)
    assert phase_horizon(F(1, 2), 3) == lam + lam**2 + lam**3
    k3 = phase_lb_sample(F(1, 2), 3, seed=2)
    starts = sorted({j.release.time for j in k3.jobs})
    assert starts == [F(0), lam**3, lam**3 + lam**2]


def test_exp_sampler():
    inst = exp_simultaneous_sample(1, seed=3)
    assert len(inst.jobs) == 1 and inst.jobs[0].size > 0
    inst = exp_simultaneous_sample(500, seed=3)
    sizes = [j.size for j in inst.jobs]
    assert len(set(sizes)) == len(sizes)  # no collisions under the quantization
    assert all(s.denominator <= 1 << 64 for s in sizes)
    assert exp_simultaneous_sample(500, seed=3) == inst


def test_exp_sampler_mean():
    rng = random.Random(9)
    total, count = 0.0, 0
    for i in range(20):
        inst = exp_simultaneous_sample(500, seed=rng.randrange(2**32))
        total += sum(float(j.size) for j in inst.jobs)
        count += len(inst.jobs)
    assert 0.97 <= total / count <= 1.03


def test_lb_statistics_exp_single():
    s = lb_statistics("exp", {"n": 1, "epsilon": F(1, 2)}, 3, seed=4)
    assert all(v == 1.0 for v in s.values)


def test_lb_statistics_geometric_runs():
    s = lb_statistics("geometric", {"k": 3}, 5, seed=6)
    assert s.samples == 5 and len(s.values) <= 5
    assert all(v > 0 for v in s.values)


def test_small_flow_ratio_against_bound():
    # simultaneous-release upper bound: ratio <= 2 - eps on every instance
    for i in range(10):
        inst = exp_simultaneous_sample(40, seed=100 + i, epsilon=F(1, 2))
        alg = total_flow_time(simulate(inst, "slf"), inst)
        opt = total_flow_time(simulate(inst, "srpt"), inst)
        assert alg <= (2 - F(1, 2)) * opt


def test_criterion_10_size_three_jobs_cross_one_unit():
    # criterion 10's sawtooth: at tau, slf has raised the surviving jobs to
    # about one level L, so size-3 jobs keep 3 - L. L passes 2 between
    # n = 64 and n = 128, and those jobs stop counting in delta(tau, 1)
    for k, counted in ((6, True), (7, False)):
        for i in range(3):
            inst, tau = randomized_lb_sample(k, 1010 * 1_000_003 + i)
            elapsed = simulate(inst, "slf", horizon=F(tau)).final_elapsed
            threes = [j for j in inst.jobs if j.size == 3]
            assert threes, (k, i)
            for j in threes:
                assert (j.size - elapsed[j.id] >= 1) == counted, (k, i, j.id)
            dd, _ = _count_pair(inst, "slf", F(tau))
            longer = sum(1 for j in inst.jobs if j.size > 3)
            assert dd == longer + (len(threes) if counted else 0), (k, i)


def _pin_text(value) -> str:
    if value is None:
        return "None"
    if isinstance(value, F):
        return rat_str(value)
    if isinstance(value, dict):
        return "{" + ",".join(f"{k}:{_pin_text(v)}" for k, v in sorted(value.items())) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_pin_text(v) for v in value) + "]"
    return repr(value)


# sha256 of the fixed adversary and lb_statistics set in
# test_pinned_adversary_digest
PINNED_ADVERSARY_DIGEST = (
    "5374ccf844225a5fad04709c64153f953f12c6de158b71029c2bd9c792633efb"
)


def test_pinned_adversary_digest():
    # every round record, stuck list, probe length, tail end, ratio and final
    # instance of the deterministic adversary (7 eps x 3 policies x 0/1/2/4
    # rounds, tail 6), then the lb_statistics values of the geometric and
    # phase families under all four policies; a rewrite of the queue reads
    # that keeps the digest keeps every output identical
    h = hashlib.sha256()
    for eps in (F(1, 2), F(1, 3), F(1, 4), F(1, 5), F(2, 5), F(2, 3), F(3, 4)):
        for policy in ("slf", "setf", "rr"):
            for rounds in (0, 1, 2, 4):
                tr = deterministic_lb_run(eps, rounds, tail_m=6, policy=policy)
                for r in tr.rounds:
                    h.update(_pin_text(astuple(r)).encode())
                for part in (
                    tr.alg_stuck,
                    tr.smart_stuck,
                    tr.probe_len,
                    tr.tail_end,
                    tr.final_ratio,
                ):
                    h.update(_pin_text(part).encode())
                if tr.instance is not None:
                    h.update(serialize_instance(tr.instance).encode())
    cases = (
        ("geometric", {"k": 3}),
        ("geometric", {"k": 5}),
        ("phase", {"epsilon": F(1, 2), "k": 3}),
        ("phase", {"epsilon": F(1, 4), "k": 4}),
    )
    for kind, params in cases:
        for policy in ("slf", "srpt", "setf", "rr"):
            s = lb_statistics(kind, params, 6, policy=policy, seed=3)
            h.update(_pin_text([s.samples, s.values, s.target]).encode())
    assert h.hexdigest() == PINNED_ADVERSARY_DIGEST
