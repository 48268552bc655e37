"""Lower-bound constructions and samplers.

The deterministic adversary plays rounds of undeclared-size jobs against a
live policy through the clairvoyance interface (sizes are fixed only when
the adversary commits to them); the randomized constructions are seeded
samplers returning exact-rational instances.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import isqrt

from .core import Instance, Job, Rat, ReleaseTag, ceil_inv
from .metrics import competitive_ratio
from .sim import JobState, simulate, states_from_elapsed

ZERO = Fraction(0)
ONE = Fraction(1)

EXP_QUANT_BITS = 64  # dyadic quantization of exponential draws


class AdversaryError(ValueError):
    pass


# --- deterministic round adversary --------------------------------------------


@dataclass
class RoundRecord:
    index: int
    t_start: Rat
    t_declare: Rat  # first time a watched job accrues the round's quota
    t_end: Rat
    gamma: Rat
    declared: dict[int, Rat]
    j_quota: int  # the job that crossed the quota (lowest id on ties)
    j_max: int
    j_min: int
    alg_count: int
    smart_count: int


@dataclass
class AdversaryTranscript:
    epsilon: Rat
    policy: str
    k: int  # ceil((1-eps)/eps); batch size is k+1 = ceil(1/eps)
    rounds: list[RoundRecord]
    tail_m: int
    probe_len: Rat | None
    tail_end: Rat | None
    final_ratio: Rat | None  # stuck-job flow ratio through the tail horizon
    instance: Instance | None  # fully declared instance incl. probe jobs
    alg_stuck: list[int]
    smart_stuck: list[int]


def deterministic_lb_run(
    epsilon: Rat,
    rounds: int,
    tail_m: int = 0,
    policy: str = "slf",
) -> AdversaryTranscript:
    """Play the adaptive round construction against a policy.

    Each round releases ceil(1/eps) undeclared jobs, waits until a watched
    job accrues the round's work quota, declares sizes that make the touched
    jobs instantly known, and closes the round when a perfect-hindsight
    comparator has cleared all but the largest new job. Every inequality the
    construction relies on is asserted; optionally appends the probe-job tail
    and measures the stuck-job flow ratio through the tail horizon.
    """
    epsilon = Fraction(epsilon)
    if not (0 < epsilon < 1):
        raise AdversaryError("deterministic adversary needs epsilon in (0,1)")
    if policy not in ("slf", "setf", "rr"):
        raise AdversaryError("policy must interact via the clairvoyance interface")
    if rounds < 0 or tail_m < 0:
        raise AdversaryError("rounds and tail length must be >= 0")
    kp = ceil_inv(epsilon)
    k = kp - 1

    jobs: list[Job] = []
    next_id = 1
    t_c = ZERO
    records: list[RoundRecord] = []
    smart_stuck: list[int] = []
    # the policy's queue at t_c: the previous round's queue at its t_end = t_c
    queue: dict[int, JobState] = {}

    for c in range(1, rounds + 1):
        if c == 1:
            gamma = ONE
        else:
            r_star = min(st.remaining for st in queue.values())
            gamma = (r_star / kp) * ((1 - epsilon) / epsilon)
            if not gamma < r_star:
                raise AdversaryError("round quota must stay below r*(t_c)")

        new_ids = list(range(next_id, next_id + kp))
        next_id += kp
        jobs = jobs + [Job(i, ReleaseTag(t_c), None) for i in new_ids]
        watch = queue.keys() | set(new_ids)

        probe_inst = Instance(epsilon, tuple(jobs))
        horizon = t_c + (len(watch) + 1) * gamma + 1
        sched = simulate(probe_inst, policy, horizon=horizon)
        # the earliest time a watched job has done gamma work since t_c, and
        # the lowest id crossing then
        reach = sched.reach_times(dict.fromkeys(watch, gamma), t_c)
        if not reach:
            raise AdversaryError("no quota crossing before the safety horizon")
        t_prime, j_quota = min((t, j) for j, t in reach.items())

        e_at = sched.elapsed_at(t_prime)
        declared: dict[int, Rat] = {}
        for i in new_ids:
            e = e_at.get(i, ZERO)
            if e > 0:
                declared[i] = e / (1 - epsilon)
            else:
                declared[i] = epsilon / (1 - epsilon) * gamma
        jobs = [
            Job(j.id, j.release, declared.get(j.id, j.size)) for j in jobs
        ]
        inst_cur = Instance(epsilon, tuple(jobs))

        r_new = {i: declared[i] - e_at.get(i, ZERO) for i in new_ids}
        j_max = min(new_ids, key=lambda i: (-r_new[i], i))
        rest = [i for i in new_ids if i != j_max]
        j_min = min(rest, key=lambda i: (r_new[i], i))
        spread = sum((r_new[i] for i in rest), ZERO)
        t_end = t_prime + max(ZERO, spread - gamma)
        # one run cut at t_end >= t_prime gives the replay at t_prime and the
        # queue at t_end, which is also the next round's start queue
        run = simulate(inst_cur, policy, horizon=t_end)

        # declarations must not rewrite history
        replay = run.elapsed_at(t_prime)
        for jid, e in e_at.items():
            if replay.get(jid, ZERO) != e:
                raise AdversaryError("declaration changed the past schedule")

        cap = epsilon / (1 - epsilon) * gamma
        if r_new[j_max] > cap:
            raise AdversaryError("r(j_max) exceeded the quota cap")
        if c == 1 and r_new[j_max] != cap:
            raise AdversaryError("round one must pin r(j_max) to eps/(1-eps)")
        queue_at_declare = states_from_elapsed(inst_cur, t_prime, replay)[0]
        if any(r_new[j_min] > st.remaining for st in queue_at_declare.values()):
            raise AdversaryError("j_min must be globally minimal at declaration")
        if not spread < gamma + r_new[j_min]:
            raise AdversaryError("claim r(J_c minus j_max) < gamma + r(j_min) failed")
        if not t_end < t_prime + r_new[j_min]:
            raise AdversaryError("round end must precede the policy's next completion")
        # hindsight comparator feasibility: the redirected quota fits the window
        used = sum((e_at.get(i, ZERO) for i in rest), ZERO)
        if used + gamma > t_prime - t_c:
            raise AdversaryError("comparator would exceed elapsed wall time")

        smart_stuck.append(j_max)
        queue = states_from_elapsed(inst_cur, t_end, run.final_elapsed)[0]
        if policy == "slf" and len(queue) != c * kp:
            raise AdversaryError(
                f"slf count invariant broke: {len(queue)} != {c * kp}"
            )
        records.append(
            RoundRecord(
                index=c,
                t_start=t_c,
                t_declare=t_prime,
                t_end=t_end,
                gamma=gamma,
                declared=declared,
                j_quota=j_quota,
                j_max=j_max,
                j_min=j_min,
                alg_count=len(queue),
                smart_count=c,
            )
        )
        t_c = t_end

    if not records:
        return AdversaryTranscript(
            epsilon, policy, k, [], tail_m, None, None, None, None, [], []
        )

    T = t_c  # queue is the policy's queue at T, from the last round's run
    alg_stuck = sorted(queue)
    probe_len = min([ONE] + [st.remaining for st in queue.values()])
    tail_end = T + tail_m * probe_len
    probe_ids = []
    for i in range(tail_m):
        pid = next_id
        next_id += 1
        probe_ids.append(pid)
        jobs.append(Job(pid, ReleaseTag(T + i * probe_len), probe_len))
    final_inst = Instance(epsilon, tuple(jobs))

    if tail_m > 0 and policy == "slf":
        full = simulate(final_inst, policy)
        for idx, pid in enumerate(probe_ids):
            want = T + idx * probe_len + probe_len
            if full.completions[pid] != want:
                raise AdversaryError("probe starvation broke: probe preempted")
        for jid in alg_stuck:
            if full.completions[jid] <= tail_end:
                raise AdversaryError("a stuck job completed inside the tail")

    alg_flow = sum((tail_end - final_inst.job(j).release.time for j in alg_stuck), ZERO)
    smart_flow = sum((tail_end - final_inst.job(j).release.time for j in smart_stuck), ZERO)
    final_ratio = alg_flow / smart_flow if smart_flow > 0 else None

    return AdversaryTranscript(
        epsilon=epsilon,
        policy=policy,
        k=k,
        rounds=records,
        tail_m=tail_m,
        probe_len=probe_len,
        tail_end=tail_end,
        final_ratio=final_ratio,
        instance=final_inst,
        alg_stuck=alg_stuck,
        smart_stuck=sorted(smart_stuck),
    )


# --- randomized samplers --------------------------------------------------------


def randomized_lb_sample(k: int, seed: int) -> tuple[Instance, int]:
    """n = 2^k simultaneous jobs with sizes 1 + Geom(1/2), plus the
    measurement time floor(3(n - n^(3/4))); implies eps = 1/(2k)."""
    if k < 1:
        raise AdversaryError("k must be >= 1")
    n = 2**k
    rng = random.Random(seed)
    jobs = []
    for i in range(1, n + 1):
        y = 1
        while rng.getrandbits(1):
            y += 1
        jobs.append(Job(i, ReleaseTag(ZERO), Fraction(1 + y)))
    eps = Fraction(1, 2 * k)
    # floor(3 n^(3/4)) = floor((81 n^3)^(1/4)); tau = 3n - ceil(3 n^(3/4))
    m4 = 81 * n**3
    root = isqrt(isqrt(m4))
    ceil3 = root if root**4 == m4 else root + 1
    tau = 3 * n - ceil3
    return Instance(eps, tuple(jobs)), tau


def phase_lb_sample(epsilon: Rat, phases: int, seed: int) -> Instance:
    """Phases k..1 of length lambda^i with lambda = (5-eps)/(1-eps); each
    phase opens with two jobs of sizes lambda^i and 2*lambda^i, the short one
    picked by a fair coin."""
    epsilon = Fraction(epsilon)
    if not (0 < epsilon < 1):
        raise AdversaryError("phase construction needs epsilon in (0,1)")
    if phases < 0:
        raise AdversaryError("phases must be >= 0")
    lam = (5 - epsilon) / (1 - epsilon)
    rng = random.Random(seed)
    jobs = []
    start = ZERO
    jid = 1
    for i in range(phases, 0, -1):
        length = lam**i
        short_first = rng.getrandbits(1) == 0
        a, b = (length, 2 * length) if short_first else (2 * length, length)
        jobs.append(Job(jid, ReleaseTag(start), a))
        jobs.append(Job(jid + 1, ReleaseTag(start), b))
        jid += 2
        start += length
    return Instance(epsilon, tuple(jobs))


def phase_horizon(epsilon: Rat, phases: int) -> Rat:
    lam = (5 - Fraction(epsilon)) / (1 - Fraction(epsilon))
    return sum((lam**i for i in range(1, phases + 1)), ZERO)


def exp_simultaneous_sample(
    n: int, seed: int, epsilon: Rat = Fraction(1, 2)
) -> Instance:
    """n simultaneous jobs with i.i.d. unit-rate exponential sizes, each draw
    quantized to an exact dyadic rational with EXP_QUANT_BITS fractional
    bits (recorded in the sampler metadata; the simulator stays exact)."""
    if n < 1:
        raise AdversaryError("n must be >= 1")
    rng = random.Random(seed)
    scale = 1 << EXP_QUANT_BITS
    jobs = []
    for i in range(1, n + 1):
        u = rng.random()
        while u <= 0.0:
            u = rng.random()
        x = -math.log(u)
        q = Fraction(round(Fraction(x) * scale), scale)
        if q <= 0:
            q = Fraction(1, scale)
        jobs.append(Job(i, ReleaseTag(ZERO), q))
    return Instance(Fraction(epsilon), tuple(jobs))


def sampler_meta(kind: str, params: dict, seed: int) -> dict:
    meta = {"kind": kind, "seed": seed, **params}
    if kind == "exp":
        meta["quant_bits"] = EXP_QUANT_BITS
    return meta


# --- Monte-Carlo statistics ------------------------------------------------------


@dataclass
class LbSummary:
    kind: str
    samples: int
    values: list[float] = field(default_factory=list)  # per-sample ratio
    target: float | None = None


def lb_statistics(
    kind: str,
    params: dict,
    samples: int,
    policy: str = "slf",
    seed: int = 0,
) -> LbSummary:
    """Monte-Carlo campaign over a sampler family.

    geometric: per-sample delta(tau,1)/delta*(tau) for the policy vs srpt.
    phase: same counts at the end of the last phase.
    exp: per-sample total-flow ratio policy/srpt (target 2 - eps).
    """
    values: list[float] = []
    target = None
    if kind == "geometric":
        kpar = int(params["k"])
        for i in range(samples):
            inst, tau = randomized_lb_sample(kpar, seed * 1_000_003 + i)
            dd, ds = _count_pair(inst, policy, Fraction(tau))
            if ds > 0:
                values.append(dd / ds)
    elif kind == "phase":
        epsv = Fraction(params["epsilon"])
        kpar = int(params["k"])
        horizon = phase_horizon(epsv, kpar)
        for i in range(samples):
            inst = phase_lb_sample(epsv, kpar, seed * 1_000_003 + i)
            dd, ds = _count_pair(inst, policy, horizon)
            if ds > 0:
                values.append(dd / ds)
        target = 1.5
    elif kind == "exp":
        npar = int(params["n"])
        epsv = Fraction(params.get("epsilon", Fraction(1, 2)))
        for i in range(samples):
            inst = exp_simultaneous_sample(npar, seed * 1_000_003 + i, epsv)
            alg = simulate(inst, policy)
            opt = simulate(inst, "srpt")
            values.append(float(competitive_ratio(alg, opt, inst)))
        target = float(2 - epsv)
    else:
        raise AdversaryError(f"unknown sampler kind {kind!r}")
    return LbSummary(kind, samples, values, target)


def _count_pair(inst: Instance, policy: str, t: Rat) -> tuple[int, int]:
    """(delta(t,1) for the policy, delta*(t) for srpt)."""
    alg_e = simulate(inst, policy, horizon=t).final_elapsed
    opt_e = simulate(inst, "srpt", horizon=t).final_elapsed
    alg = states_from_elapsed(inst, t, alg_e)[0]
    dd = sum(1 for st in alg.values() if st.remaining >= 1)
    return dd, len(states_from_elapsed(inst, t, opt_e)[0])
