"""The three benchmark workloads: inputs from a seed, one op each, and the
exact outputs each op folds into its digest.

Every workload draws its instances from a fixed family: a list of strata
(the input properties cost depends on, such as n and epsilon) with a fixed
number of variants each. `--seed` picks which variants a run uses and in
which order, so the same seed gives the same inputs, different seeds give
different inputs with the same stratum mix, and every op a run can issue has
an expected digest recorded in `digests.json`. The mix is what keeps the
figures of different seeds close to each other.

Ops reach the package only as serialized instance JSON, so
`core.parse_instance` is on every op's path.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

DIGESTS_PATH = Path(__file__).resolve().parent / "digests.json"

# criterion-5 generator shape: n in 1..12, eps from this list
CERTIFY_EPS = ("1/5", "1/4", "1/3", "1/2", "2/3", "9/10", "1")
CERTIFY_N = range(1, 13)
CERTIFY_VARIANTS = 8
CERTIFY_PER_STRATUM = 2
CERTIFY_TARGETS = 4  # event times per instance, at fixed quantile positions

# criterion-7 shape: the exp simultaneous family at n = 200
SWEEP_EPS = ("1/4", "1/2", "3/4")
SWEEP_POLICIES = ("slf", "setf", "rr")
SWEEP_N = 200
SWEEP_VARIANTS = 16
SWEEP_PER_COMBO = 4  # variants of each (eps, policy) combination in a pool

# criterion-8 check on heavier inputs, releases on a 1/4 grid over [0, n]
REDUCE_EPS = ("1/4", "1/2", "3/4")
REDUCE_N = range(8, 17)
REDUCE_VARIANTS = 16
REDUCE_PER_STRATUM = 8

# What a traced run covers, in passes over the pool. certify takes two so
# that the traced run holds both the cold pass that fills the schedule cache
# and a warm one, as the timed run does; the others keep no cache.
TRACE_PASSES = {"certify": 2, "sweep": 1, "reduce": 1}

WORKLOADS = ("certify", "sweep", "reduce")


class CheckFailed(Exception):
    """An op's output failed its correctness check or its digest."""


@dataclass(frozen=True)
class Item:
    """One op: its key in the digest table, the instance JSON, and its
    parameters (target time, policy or epsilon)."""

    key: str
    text: str
    param: str


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def load_digests() -> dict:
    return json.loads(DIGESTS_PATH.read_text())


# --- instance generators -------------------------------------------------------


def certify_instance(slf, n: int, eps: str, v: int):
    """The criterion-5 random instance for stratum (n, eps), variant v."""
    core = slf.core
    rng = random.Random(f"certify/{n}/{eps}/{v}")
    jobs = tuple(
        core.Job(
            i + 1,
            core.ReleaseTag(Fraction(rng.randint(0, 10), rng.randint(1, 3))),
            Fraction(rng.randint(1, 12), rng.randint(1, 4)),
        )
        for i in range(n)
    )
    return core.Instance(Fraction(eps), jobs)


def sweep_instance(slf, eps: str, policy: str, v: int):
    combo = SWEEP_EPS.index(eps) * len(SWEEP_POLICIES) + SWEEP_POLICIES.index(policy)
    return slf.adversary.exp_simultaneous_sample(
        SWEEP_N, seed=7_000 + 100 * combo + v, epsilon=Fraction(eps)
    )


def reduce_instance(slf, n: int, eps: str, v: int):
    core = slf.core
    rng = random.Random(f"reduce/{n}/{eps}/{v}")
    jobs = tuple(
        core.Job(
            i + 1,
            core.ReleaseTag(Fraction(rng.randint(0, 4 * n), 4)),
            Fraction(rng.randint(1, 12), rng.randint(1, 4)),
        )
        for i in range(n)
    )
    return core.Instance(Fraction(eps), jobs)


def certify_targets(slf, inst) -> list[str]:
    """CERTIFY_TARGETS event times of the slf and srpt schedules, spread over
    the timeline at fixed quantile positions (used when recording)."""
    times = sorted(
        set(slf.sim.simulate(inst, "slf").boundaries())
        | set(slf.sim.simulate(inst, "srpt").boundaries())
    )
    picks = sorted(
        {round(k * (len(times) - 1) / (CERTIFY_TARGETS - 1)) for k in range(CERTIFY_TARGETS)}
    )
    return [slf.core.rat_str(times[i]) for i in picks]


# --- pools: the ops of one run, from the seed -----------------------------------


def pool(slf, workload: str, seed: int, table: dict) -> list[Item]:
    """The run's op list for `seed`; a timed run cycles through it."""
    rng = random.Random(f"{workload}/{seed}")
    ser = slf.core.serialize_instance
    items: list[Item] = []
    if workload == "certify":
        picks = [
            (n, e, v)
            for n in CERTIFY_N
            for e in CERTIFY_EPS
            for v in rng.sample(range(CERTIFY_VARIANTS), CERTIFY_PER_STRATUM)
        ]
        rng.shuffle(picks)
        for n, eps, v in picks:
            text = ser(certify_instance(slf, n, eps, v))
            key = f"{n}:{eps}:{v}"
            items.extend(Item(f"{key}@{t}", text, t) for t, _ in table[key])
    elif workload == "sweep":
        combos = [(e, p) for p in SWEEP_POLICIES for e in SWEEP_EPS]
        picks = {c: rng.sample(range(SWEEP_VARIANTS), SWEEP_PER_COMBO) for c in combos}
        # eps cycles fastest, then the policy, as in `slflab sweep`
        for r in range(SWEEP_PER_COMBO):
            for eps, policy in combos:
                v = picks[(eps, policy)][r]
                text = ser(sweep_instance(slf, eps, policy, v))
                items.append(Item(f"{eps}:{policy}:{v}", text, policy))
    elif workload == "reduce":
        strata = [(n, e) for n in REDUCE_N for e in REDUCE_EPS]
        for n, eps in strata:
            for v in rng.sample(range(REDUCE_VARIANTS), REDUCE_PER_STRATUM):
                text = ser(reduce_instance(slf, n, eps, v))
                items.append(Item(f"{n}:{eps}:{v}", text, eps))
        rng.shuffle(items)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return items


def expected(table: dict, workload: str, key: str) -> str:
    if workload == "certify":
        base, t = key.split("@")
        return dict(table[base])[t]
    return table[key]


# --- ops ---------------------------------------------------------------------------


def run_op(slf, workload: str, item: Item) -> str:
    """Run one op, check its result, and return the canonical text of its
    exact outputs (the digest's input). Raises CheckFailed on a failed
    check; any other exception propagates and counts as a failed op."""
    inst = slf.core.parse_instance(item.text)
    rat_str = slf.core.rat_str
    if workload == "certify":
        t = Fraction(item.param)
        cert = slf.certifier.create_valid_assignment(inst, t)
        report = slf.certifier.verify_certificate(cert)
        if not report.passed:
            raise CheckFailed(f"certificate at t={item.param} failed: {report.checks}")
        cases = ",".join(r.case for r in cert.transcript)
        return f"phi={rat_str(cert.assignment.phi)};cases={cases}"
    if workload == "sweep":
        alg = slf.sim.simulate(inst, item.param)
        opt = slf.sim.simulate(inst, "srpt")
        ratio = slf.metrics.total_flow_time(alg, inst) / slf.metrics.total_flow_time(opt, inst)
        _check_ratio(inst, alg, opt, ratio, item.param)
        return f"ratio={rat_str(ratio)}"
    if workload == "reduce":
        report = slf.reduction.reduction_check(inst, Fraction(item.param))
        if not report.ok:
            raise CheckFailed(f"reduction chain failed: {report.checks}")
        checks = ",".join(f"{k}={v}" for k, v in sorted(report.checks.items()))
        return f"checks={checks};witness={sorted(report.witness.items())!r}"
    raise ValueError(f"unknown workload {workload!r}")


def _check_ratio(inst, alg, opt, ratio, policy: str) -> None:
    """Recompute the flow ratio from the completion times, exactly, and check
    it against the bounds for simultaneous release: srpt is optimal, slf is
    within 2 - eps (criterion 7) and setf/rr, which act as round robin here,
    within 2."""
    flows = [
        sum((s.completions[j.id] - j.release.time for j in inst.jobs), Fraction(0))
        for s in (alg, opt)
    ]
    if flows[0] / flows[1] != ratio:
        raise CheckFailed(f"ratio {ratio} differs from the recomputed {flows[0] / flows[1]}")
    bound = 2 - inst.epsilon if policy == "slf" else Fraction(2)
    if not (1 <= ratio <= bound):
        raise CheckFailed(f"{policy} flow ratio {ratio} outside [1, {bound}]")
