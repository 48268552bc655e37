"""Acceptance gate: every criterion at its stated parameters and tolerance.

Each test prints exactly one CRITERION line. Run this module alone with
`pytest tests/test_acceptance.py -v -s` to see the lines as they pass.
"""

import json
import random
import time
from fractions import Fraction as F

from slflab.adversary import (
    deterministic_lb_run,
    exp_simultaneous_sample,
    lb_statistics,
)
from slflab.certifier import (
    _sched,
    create_valid_assignment,
    verify_certificate,
)
from slflab.core import ceil_inv, rat_str, serialize_instance
from slflab.metrics import local_competitiveness, total_flow_time
from slflab.reduction import reduction_check, water_filling_dominance
from slflab.sim import simulate, state_at

from .helpers import random_instance, segment_tuples, toy_instance
from .test_reduction import random_config


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"CRITERION {num:2d} [{status}] {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num}: {name} {detail}"


def test_criterion_1_worked_example_exact():
    t0 = time.time()
    inst = toy_instance()
    sched = simulate(inst, "slf")
    states = state_at(sched, inst, F(9))
    ok = (
        sched.completions[6] == F(7, 2)
        and sched.completions[5] == F(7)
        and sorted(states) == [1, 2, 3, 4]
        and all(states[i].elapsed == F(3, 2) for i in (1, 2, 3, 4))
    )
    elapsed = time.time() - t0
    report(1, "worked-example exactness", ok and elapsed < 1.0, f"{elapsed:.3f}s")


def test_criterion_2_assignment_machinery_exact():
    from slflab.assignment import EMPTY_GRAPH, prefix_expansion
    from slflab.certifier import update_valid_assignment

    out = update_valid_assignment(
        toy_instance(), {1, 2, 3, 4, 5, 6}, F(0), F(9), EMPTY_GRAPH
    )
    want = {
        (1, 1): F(7, 2),
        (2, 2): F(5, 2),
        (3, 1): F(3, 2),
        (4, 2): F(3, 2),
    }
    ok = dict(out.weights) == want and prefix_expansion(out) == 2
    report(2, "assignment update reproduces the worked figure, phi = 2", ok)


def test_criterion_3_policy_degeneration():
    rng = random.Random(1003)
    bad = 0
    for _ in range(1000):
        inst1 = random_instance(rng, F(1), rng.randint(1, 10))
        if segment_tuples(simulate(inst1, "slf")) != segment_tuples(
            simulate(inst1, "srpt")
        ):
            bad += 1
        inst0 = random_instance(rng, F(0), rng.randint(1, 10))
        if segment_tuples(simulate(inst0, "slf")) != segment_tuples(
            simulate(inst0, "setf")
        ):
            bad += 1
    report(3, "slf degenerates to srpt at eps=1 and setf at eps=0", bad == 0,
           f"{bad} mismatches / 1000 instances")


def test_criterion_4_local_competitiveness_suite():
    t0 = time.time()
    rng = random.Random(1004)
    bad = 0
    for eps in (F(1, 5), F(1, 4), F(1, 3), F(1, 2), F(2, 3), F(9, 10)):
        rho = F(ceil_inv(eps))
        for _ in range(1000):
            inst = random_instance(rng, eps, rng.randint(1, 10))
            rep = local_competitiveness(
                simulate(inst, "slf"), simulate(inst, "srpt"), rho
            )
            if not rep.passed:
                bad += 1
    report(4, "local count bound at ceil(1/eps), 6 x 1000 instances", bad == 0,
           f"{bad} violations, {time.time()-t0:.0f}s")


def test_criterion_5_certificate_suite():
    t0 = time.time()
    rng = random.Random(1005)
    targets = 0
    bad = 0
    first = None  # (instance, t, check) of the first failure
    for _ in range(300):
        eps = rng.choice([F(1, 5), F(1, 4), F(1, 3), F(1, 2), F(2, 3), F(9, 10), F(1)])
        inst = random_instance(rng, eps, rng.randint(1, 12))
        times = sorted(
            set(_sched(inst, "slf").boundaries())
            | set(_sched(inst, "srpt").boundaries())
        )
        for t in times:
            targets += 1
            try:
                cert = create_valid_assignment(inst, t)
            except Exception as exc:
                bad += 1
                first = first or (inst, t, getattr(exc, "check", repr(exc)))
                continue
            rep = verify_certificate(cert)
            if not rep.passed:
                bad += 1
                failed = ",".join(k for k, ok in rep.checks.items() if not ok)
                first = first or (inst, t, f"verify:{failed}")
    if first is not None:
        inst, t, check = first
        doc = json.dumps(json.loads(serialize_instance(inst)))
        print(f"first failure: t={rat_str(t)} check={check} instance={doc}")
    report(5, "certificates at every event time of 300 instances", bad == 0,
           f"{targets} targets, {bad} failures, {time.time()-t0:.0f}s")


def test_criterion_6_deterministic_adversary():
    t0 = time.time()
    bad = []
    for eps in (F(1, 2), F(1, 3), F(1, 4)):
        kp = ceil_inv(eps)
        for rounds in range(1, 6):
            tr = deterministic_lb_run(eps, rounds, tail_m=10_000)
            counts = (tr.rounds[-1].smart_count, tr.rounds[-1].alg_count)
            if counts != (rounds, rounds * kp):
                bad.append((eps, rounds, counts))
            if float(tr.final_ratio) < kp - 0.01:
                bad.append((eps, rounds, float(tr.final_ratio)))
    report(6, "adversary counts (c, c*ceil(1/eps)) and tail flow ratio", not bad,
           f"{bad or 'all rounds exact'}, {time.time()-t0:.0f}s")


def test_criterion_7_simultaneous_release():
    t0 = time.time()
    bad = []
    for eps in (F(1, 4), F(1, 2), F(3, 4)):
        target = 2 - eps
        ratios = []
        for i in range(200):
            inst = exp_simultaneous_sample(200, seed=7_000 + i, epsilon=eps)
            alg = total_flow_time(simulate(inst, "slf"), inst)
            opt = total_flow_time(simulate(inst, "srpt"), inst)
            ratio = alg / opt
            if ratio > target:
                bad.append((eps, i, float(ratio)))
            ratios.append(float(ratio))
        mean = sum(ratios) / len(ratios)
        if abs(mean - float(target)) > 0.15:
            bad.append((eps, "mean", mean))
    report(7, "exp family: ratio <= 2-eps instance-wise, mean within 0.15",
           not bad, f"{len(bad)} violations, {time.time()-t0:.0f}s")


def test_criterion_8_reduction_chain():
    t0 = time.time()
    rng = random.Random(1008)
    bad = 0
    for _ in range(500):
        for eps in (F(1, 4), F(1, 2), F(3, 4)):
            inst = random_instance(rng, eps, rng.randint(1, 8))
            if not reduction_check(inst, eps).ok:
                bad += 1
    report(8, "reduction chain on 500 x 3 instances", bad == 0,
           f"{bad} failures, {time.time()-t0:.0f}s")


def test_criterion_9_water_filling():
    t0 = time.time()
    rng = random.Random(1009)
    bad = 0
    for _ in range(10_000):
        cfg = random_config(rng, rng.randint(1, 10))
        if not water_filling_dominance(cfg).ok:
            bad += 1
    report(9, "water-filling dominance on 10000 configurations", bad == 0,
           f"{bad} violations, {time.time()-t0:.0f}s")


def test_criterion_10_randomized_lb_trend():
    # Diagnostic, not gating: the asymptotic growth constant is explicitly
    # not reproducible at desk scale; the trend is reported, not asserted.
    t0 = time.time()
    means = {}
    for k in (6, 8, 10):
        s = lb_statistics("geometric", {"k": k}, 200, seed=1010)
        means[k] = sum(s.values) / len(s.values)
    monotone = means[6] <= means[8] <= means[10]
    detail = ", ".join(f"k={k}: {m:.3f}" for k, m in means.items())
    status = "PASS" if monotone else "NON-MONOTONE (diagnostic only)"
    print(f"CRITERION 10 [{status}] geometric trend ({detail}, {time.time()-t0:.0f}s)")
