"""Construction and verification of competitiveness certificates.

A certificate for (instance, target time t) is a t-equivalent early-arriving
instance together with a fractional assignment between the two queues at t
whose prefix expansion is at most ceil(1/eps). The construction fast-forwards
a valid assignment through the timeline, re-releasing batches earlier where
needed; every lemma it relies on is asserted at runtime, and a violation
raises a structured counterexample instead of continuing silently.

Targets of one instance share the iterations they have in common. An
iteration at state (cur, s) depends on the target t only through the point
x where it stops, so its two parts are memoized, each in an lru_cache of
STEP_CACHE_SIZE (8192) entries like the schedule cache `_sched`:
  - `_plan`, keyed on (instance, cur, s): the Inv2 and Inv3 checks, the
    unknown jobs, the batch and the case's stop candidate;
  - `_advance`, keyed on (instance, cur, s, x): every lemma check of the
    step, its transcript record and the next state (cur', s').
Entries hold tuples, instances and records, never graphs or state dicts,
and each transcript gets its own copy of a record. Per target, every
iteration still checks Inv1 on the window (s, t], resolves x from t, and
counts against the iteration guard; the final assignment at t is built and
checked per target too. A check that fails raises, and lru_cache stores no
exception, so a failure is recomputed on every call.

Every read of a queue goes through one snapshot per (instance, policy, t),
`_snapshot`, an lru_cache of SNAPSHOT_CACHE_SIZE (32) entries. It walks the
schedule once (`elapsed_at(t)`) and builds the states from that walk, and it
returns the elapsed map and the states as read-only `MappingProxyType`s, so
no caller can change an entry another caller shares. The "none" view of
`_states`, right before the releases at t, is the "all" states minus the
jobs released exactly at t, kept in the same snapshot. The bound is small
on purpose: a snapshot is read again within one certificate and its
verification, soon after it is built. Criterion 5's loop hits 78.0% of its
lookups with 32 entries and 78.2% with 256, and the benchmark's certify
pool hits the same share from 16 to 1024 entries, so a larger cache only
holds times that a run never asks for again, and grows the process's memory.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping, NamedTuple

from .assignment import (
    AssignmentChecked,
    WeightedBipartiteGraph,
    canonical_from_marginals,
    check_assignment,
    graph,
    graph_to_json,
    greedy_matching,
    is_forward,
    merge,
    min_suffix,
    prefix_expansion,
    split,
    union,
)
from .core import Instance, Rat, ReleaseTag, ceil_inv, rat_str
from .sim import JobState, Schedule, simulate, states_from_elapsed, touched_jobs

ZERO = Fraction(0)


class CounterexampleError(Exception):
    """A runtime lemma/invariant check failed; carries structured context."""

    def __init__(self, check: str, **context):
        self.check = check
        self.context = context
        super().__init__(f"{check}: {context}")


@lru_cache(maxsize=8192)
def _sched(inst: Instance, policy: str) -> Schedule:
    return simulate(inst, policy)


# --- queue snapshots (module docstring) ----------------------------------------

SNAPSHOT_CACHE_SIZE = 32


class _Snapshot(NamedTuple):
    """One schedule at one time t, read-only: the elapsed work per job, the
    active-job states with every release at t arrived ("all"), and the same
    states right before the releases at t ("none")."""

    elapsed: Mapping[int, Rat]
    states: Mapping[int, JobState]
    before: Mapping[int, JobState]


@lru_cache(maxsize=SNAPSHOT_CACHE_SIZE)
def _snapshot(inst: Instance, policy: str, t: Rat) -> _Snapshot:
    elapsed = _sched(inst, policy).elapsed_at(t)
    states = MappingProxyType(states_from_elapsed(inst, t, elapsed))
    at_t = {j.id for j in inst.jobs if j.release.time == t}
    before = (
        MappingProxyType({i: st for i, st in states.items() if i not in at_t})
        if at_t
        else states
    )
    return _Snapshot(MappingProxyType(elapsed), states, before)


def _states(
    inst: Instance, policy: str, t: Rat, cutoff: str = "all"
) -> Mapping[int, JobState]:
    snap = _snapshot(inst, policy, t)
    return snap.states if cutoff == "all" else snap.before


# --- instance surgery ---------------------------------------------------------


def move_jobs(inst: Instance, x: Rat, y: Rat) -> Instance:
    """Re-release every job with x < release time <= y to the time
    immediately after x (fresh, strictly increasing epochs at time x)."""
    x, y = Fraction(x), Fraction(y)
    if x > y:
        raise ValueError("move_jobs needs x <= y")
    epoch = max(
        (j.release.epoch for j in inst.jobs if j.release.time == x), default=0
    )
    moved = sorted(
        (j for j in inst.jobs if x < j.release.time <= y),
        key=lambda j: (j.release, j.id),
    )
    if not moved:
        return inst
    updates = {}
    for j in moved:
        epoch += 1
        updates[j.id] = ReleaseTag(x, epoch)
    return inst.with_jobs(
        replace(j, release=updates[j.id]) if j.id in updates else j
        for j in inst.jobs
    )


def check_t_equivalence(original: Instance, transformed: Instance, t: Rat) -> bool:
    """Same SLF active set at t and the same elapsed time for every job, on
    both instances. Membership is by plain time: released at a tag up to
    (t, epoch 0), so jobs re-released to t-plus are out, and not complete."""
    t = Fraction(t)
    ea = _snapshot(original, "slf", t).elapsed
    eb = _snapshot(transformed, "slf", t).elapsed

    def active(inst: Instance, elapsed: Mapping[int, Rat]) -> set[int]:
        # by (time, epoch) without building tags: a time before t, or t at
        # epoch 0
        return {
            j.id
            for j in inst.jobs
            if (j.release.time < t or (j.release.time == t and not j.release.epoch))
            and elapsed.get(j.id, ZERO) < j.size
        }

    if active(original, ea) != active(transformed, eb):
        return False
    return all(ea.get(j.id, ZERO) == eb.get(j.id, ZERO) for j in original.jobs)


# --- work-split bookkeeping ---------------------------------------------------


@dataclass
class WorkSplit:
    """Exact accounting of the work both schedulers do on a batch during
    (s, ell]: the shared part, each side's excess, and the old-job volumes,
    with the queue states it was derived from (right before s and ell)."""

    gamma: Rat
    delta: dict[int, Rat]
    tau: dict[int, Rat]
    tau_star: dict[int, Rat]
    nu: Rat
    nu_star: Rat
    O_ell: set[int]
    A_ell: set[int]
    O_plus: set[int]
    A_plus: set[int]
    D_ell: set[int]
    K_s: set[int]
    K_ell: set[int]
    last_opt_touched: int | None
    new_ids: set[int]
    slf_s: Mapping[int, JobState]
    slf_ell: Mapping[int, JobState]
    opt_ell: Mapping[int, JobState]

    @property
    def delta_total(self) -> Rat:
        return sum(self.delta.values(), ZERO)

    @property
    def tau_total(self) -> Rat:
        return sum(self.tau.values(), ZERO)

    @property
    def tau_star_total(self) -> Rat:
        return sum(self.tau_star.values(), ZERO)


def _leader_of(inst: Instance, new_ids) -> int:
    return min(new_ids, key=lambda i: (-inst.job(i).size, i))


def compute_work_split(inst: Instance, s: Rat, ell: Rat, new_ids) -> WorkSplit:
    """Delta/tau/tau*/nu bookkeeping for the batch `new_ids` arriving at s,
    fast-forwarded to ell. Verifies (rather than assumes) the fast-forward
    preconditions and the structural case table; failures raise
    CounterexampleError."""
    s, ell = Fraction(s), Fraction(ell)
    new_ids = set(new_ids)
    if ell < s:
        raise ValueError("need s <= ell")
    alg = _sched(inst, "slf")
    opt = _sched(inst, "srpt")
    eps = inst.epsilon

    pre = _states(inst, "slf", s, cutoff="none")
    K_s = {i for i, st in pre.items() if st.known}
    leader = _leader_of(inst, new_ids)
    e_alg = _snapshot(inst, "slf", ell).elapsed

    if ell > s:
        # arrivals exactly at ell are the next iteration's batch, not a breach
        for j in inst.jobs:
            if s < j.release.time < ell:
                raise CounterexampleError(
                    "ff-pre-no-arrivals", job=j.id, release=j.release.time
                )
        touched = touched_jobs(alg, s, ell)
        stray = touched - new_ids - K_s
        if stray:
            raise CounterexampleError("ff-pre-only-new-or-known", jobs=sorted(stray))
        e_leader = e_alg.get(leader, ZERO)
        if e_leader >= inst.job(leader).size:
            # degenerate batch: the leader is done, so every batch job must be
            # done too, and the touched/unknown preconditions are vacuous
            for i in new_ids:
                if e_alg.get(i, ZERO) < inst.job(i).size:
                    raise CounterexampleError("ff-degenerate-batch-alive", job=i)
        else:
            if leader not in alg.jobs_before(ell):
                raise CounterexampleError(
                    "ff-pre-leader-touched", leader=leader, ell=ell
                )
            if e_leader > (1 - eps) * inst.job(leader).size:
                raise CounterexampleError("ff-pre-leader-unknown", leader=leader)

    e_opt = _snapshot(inst, "srpt", ell).elapsed

    gamma = e_alg.get(leader, ZERO)
    delta: dict[int, Rat] = {}
    tau: dict[int, Rat] = {}
    tau_star: dict[int, Rat] = {}
    for i in new_ids:
        ea = e_alg.get(i, ZERO)
        eo = e_opt.get(i, ZERO)
        delta[i] = min(ea, eo)
        tau[i] = max(ea - eo, ZERO)
        tau_star[i] = max(eo - ea, ZERO)

    dtot = sum(delta.values(), ZERO)
    ttot = sum(tau.values(), ZERO)
    tstot = sum(tau_star.values(), ZERO)
    nu = (ell - s) - dtot - ttot
    nu_star = (ell - s) - dtot - tstot
    if nu < 0 or nu_star < 0:
        raise CounterexampleError("work-split-negative-nu", nu=nu, nu_star=nu_star)

    # right-before-the-next-batch states: releases exactly at ell excluded
    slf_ell = _states(inst, "slf", ell, cutoff="none")
    opt_ell = _states(inst, "srpt", ell, cutoff="none")
    O_ell = new_ids & set(opt_ell)
    A_ell = new_ids & set(slf_ell)
    O_plus = {i for i in O_ell if tau[i] > 0}
    A_plus = {i for i in A_ell if tau_star[i] > 0}
    D_ell = {i for i in new_ids if tau[i] == 0 and tau_star[i] == 0}
    if O_plus | A_plus | D_ell != new_ids or (O_plus & A_plus):
        raise CounterexampleError(
            "work-split-partition", O_plus=O_plus, A_plus=A_plus, D=D_ell
        )

    K_ell = {i for i in K_s if i in slf_ell}

    # nu identity: the volume SLF pours into old jobs equals the remaining
    # times of the known jobs it finishes (Fact: nu = sum r_j(s), K(s)\K(ell))
    expect_nu = sum((pre[i].remaining for i in K_s - K_ell), ZERO)
    if ell > s and nu != expect_nu:
        raise CounterexampleError("fact-nu", nu=nu, expected=expect_nu)

    # the optimum's partial job: the one it ran alone right before ell
    before = opt.jobs_before(ell)
    z = before[0] if len(before) == 1 else None

    if ell > s:
        one_over = Fraction(1, 1) / (1 - eps)
        for j in sorted(new_ids):
            if j == z:
                continue
            in_o, in_a = j in O_ell, j in A_ell
            ok = True
            if in_o and in_a:
                ok = tau[j] == gamma and tau_star[j] == 0 and delta[j] == 0
            elif in_o:
                ok = tau[j] <= one_over * gamma and tau_star[j] == 0 and delta[j] == 0
            elif in_a:
                ok = (
                    delta[j] == gamma
                    and tau[j] == 0
                    and tau_star[j] * (1 - eps) >= eps * gamma
                )
            else:
                ok = delta[j] == inst.job(j).size
            if not ok:
                raise CounterexampleError(
                    "case-table",
                    job=j,
                    delta=delta[j],
                    tau=tau[j],
                    tau_star=tau_star[j],
                    gamma=gamma,
                )
            if in_a and e_alg.get(j, ZERO) != gamma:
                raise CounterexampleError("alg-batch-level", job=j)
            if j in new_ids - A_ell and e_alg.get(j, ZERO) > one_over * gamma:
                raise CounterexampleError("alg-batch-cap", job=j)

    return WorkSplit(
        gamma=gamma,
        delta=delta,
        tau=tau,
        tau_star=tau_star,
        nu=nu,
        nu_star=nu_star,
        O_ell=O_ell,
        A_ell=A_ell,
        O_plus=O_plus,
        A_plus=A_plus,
        D_ell=D_ell,
        K_s=K_s,
        K_ell=K_ell,
        last_opt_touched=z,
        new_ids=new_ids,
        slf_s=pre,
        slf_ell=slf_ell,
        opt_ell=opt_ell,
    )


# --- the assignment update (fast-forward) -------------------------------------


def _matching_on(ids, weights_by_id: dict[int, Rat], order_key) -> WeightedBipartiteGraph:
    order = tuple(sorted(ids, key=order_key))
    w = {(i, i): weights_by_id[i] for i in order if weights_by_id[i] > 0}
    keep = tuple(i for i in order if weights_by_id[i] > 0)
    return graph(keep, keep, w)


def _family_right_order(vols: dict[int, Rat], families) -> tuple[int, ...]:
    """Non-increasing volume order whose ties follow each construction
    family's internal order (prefix-compatibility of the union with its
    parts; with distinct volumes this is just the default order)."""
    rank: dict[int, tuple[int, int]] = {}
    for fi, fam in enumerate(families):
        for pos, v in enumerate(fam):
            rank.setdefault(v, (fi, pos))
    return tuple(sorted(vols, key=lambda v: (-vols[v],) + rank.get(v, (99, v))))


def update_valid_assignment(
    inst: Instance,
    new_ids,
    s: Rat,
    ell: Rat,
    sigma: WeightedBipartiteGraph,
) -> WeightedBipartiteGraph:
    """Fast-forward the canonical valid assignment at s (right before the
    batch `new_ids` arrives) to a valid assignment at ell.

    Implements the two-case update (by which scheduler did more work on old
    jobs) and verifies the five marginal properties of the output plus the
    expansion bound; any failure raises CounterexampleError naming the broken
    property."""
    s, ell = Fraction(s), Fraction(ell)
    new_ids = set(new_ids)
    eps = inst.epsilon
    kprime = ceil_inv(eps)
    ws = compute_work_split(inst, s, ell, new_ids)
    size = {i: inst.job(i).size for i in new_ids}

    if not is_forward(sigma):
        raise CounterexampleError("sigma-not-forward")
    pre_opt = _states(inst, "srpt", s, cutoff="none")
    if sigma.vols() != {i: st.remaining for i, st in ws.slf_s.items() if st.remaining}:
        raise CounterexampleError("sigma-left-marginals")
    if sigma.vols_star() != {
        i: st.remaining for i, st in pre_opt.items() if st.remaining
    }:
        raise CounterexampleError("sigma-right-marginals")

    by_size = lambda i: (-size[i], i)
    m1 = _matching_on(new_ids, dict(size), by_size)
    m2_w = {i: size[i] - ws.delta[i] for i in new_ids}

    h1p, _h1s = split(sigma, min(ws.nu, ws.nu_star))
    h2 = h1p

    r_ell = {i: st.remaining for i, st in ws.slf_ell.items()}
    r_star_ell = {i: st.remaining for i, st in ws.opt_ell.items()}
    # the optimum's remaining times right before the batch arrived at s
    r_star_s = {i: st.remaining for i, st in pre_opt.items()}
    for i in new_ids:
        r_star_s[i] = size[i]

    if ws.nu <= ws.nu_star:
        sigma_prime = _update_one(
            inst, ws, kprime, h2, m2_w, r_ell, r_star_ell, r_star_s
        )
    else:
        sigma_prime = _update_two(inst, ws, kprime, h2, m2_w, r_ell, r_star_ell)

    _verify_marginal_properties(ws, sigma, m1, sigma_prime, pre_opt)

    if sigma_prime.vols() != {i: r for i, r in r_ell.items() if r}:
        raise CounterexampleError("updated-left-marginals")
    if sigma_prime.vols_star() != {i: r for i, r in r_star_ell.items() if r}:
        raise CounterexampleError("updated-right-marginals")
    phi = prefix_expansion(sigma_prime)
    if phi > kprime:
        raise CounterexampleError("updated-expansion", phi=phi, bound=kprime)
    return sigma_prime


def _update_one(inst, ws: WorkSplit, kprime, h2, m2_w, r_ell, r_star_ell, r_star_s):
    """Case nu <= nu*: the optimum did at least as much old-job work."""
    eps = inst.epsilon
    by_r_star = lambda i: (-(r_star_ell.get(i, ZERO)), i)
    by_r = lambda i: (-(r_ell.get(i, ZERO)), i)

    ms = _matching_on(ws.A_plus, {i: m2_w[i] for i in ws.A_plus}, by_r)
    md = _matching_on(ws.D_ell, {i: m2_w[i] for i in ws.D_ell}, by_r_star)
    if len(md.weights) > 1:
        raise CounterexampleError("residual-matching-size", edges=len(md.weights))

    # right side in the optimum's consumption order during (s, ell]:
    # non-increasing remaining time at s (a new job's is its full size), ties
    # by descending id so the suffix is consumed smallest-id-first
    h3 = merge(h2, ms, lambda v: (-r_star_s[v], -v))
    phi3 = prefix_expansion(h3)
    if phi3 > kprime:
        raise CounterexampleError("merged-expansion", phi=phi3, bound=kprime)
    T = sum((ws.tau[i] for i in ws.O_plus), ZERO)
    if h3.volume() < T:
        raise CounterexampleError("claim-X-exists", volume=h3.volume(), T=T)
    X = min_suffix(h3, T)

    m3_w = {i: m2_w[i] - ws.tau[i] for i in ws.O_plus}
    m3 = _matching_on(ws.O_plus, m3_w, by_r_star)

    h3p, h3s = split(h3, T)
    if T > 0 and set(X) != set(h3s.left):
        raise CounterexampleError("suffix-vertices", X=X, split_left=h3s.left)

    g_order = h3s.left  # induced suffix order of the merged graph
    opl_order = tuple(sorted(ws.O_plus, key=by_r_star))
    g = greedy_matching(
        g_order, opl_order, h3s.vols(), {i: ws.tau[i] for i in ws.O_plus}
    )

    # context lemma: every suffix member but the front-most carries at least
    # eps/(1-eps) * gamma of demand
    front = g_order[0] if g_order else None
    for j in g_order:
        if j == front:
            continue
        if g.vol(j) * (1 - eps) < eps * ws.gamma:
            raise CounterexampleError(
                "update1-volume-bound", job=j, vol=g.vol(j), gamma=ws.gamma
            )

    out = union(g, m3, h3p, md)
    order = _family_right_order(
        out.vols_star(), [h3p.right, opl_order, md.right]
    )
    return graph(out.left, order, out.weights)


def _update_two(inst, ws: WorkSplit, kprime, h2, m2_w, r_ell, r_star_ell):
    """Case nu* < nu: the algorithm did strictly more old-job work."""
    eps = inst.epsilon
    d = ws.nu - ws.nu_star

    if not (ws.O_ell <= ws.A_ell):
        raise CounterexampleError("update2-O-subset-A", O=ws.O_ell, A=ws.A_ell)
    if not (ws.tau_total < ws.tau_star_total):
        raise CounterexampleError(
            "update2-tau-order", tau=ws.tau_total, tau_star=ws.tau_star_total
        )

    # claim: a left suffix of exactly volume d exists
    vols = h2.vols()
    acc = ZERO
    X: list[int] = []
    for u in reversed(h2.left):
        if acc == d:
            break
        acc += vols[u]
        X.append(u)
    if acc != d:
        raise CounterexampleError("claim-X-exact", d=d, reached=acc)
    X = list(reversed(X))

    vols_star = h2.vols_star()
    accs = ZERO
    Y: list[int] = []
    for v in reversed(h2.right):
        if accs >= d:
            break
        accs += vols_star[v]
        Y.append(v)
    if accs < d:
        raise CounterexampleError("claim-Y-exists", d=d, reached=accs)
    Y = list(reversed(Y))

    by_r_star = lambda i: (-(r_star_ell.get(i, ZERO)), i)
    by_r = lambda i: (-(r_ell.get(i, ZERO)), i)
    m3_w = dict(m2_w)
    for i in ws.O_plus:
        m3_w[i] = m3_w[i] - ws.tau[i]
    for i in ws.A_plus:
        m3_w[i] = m3_w[i] - ws.tau_star[i]
    m3 = _matching_on(ws.new_ids, m3_w, by_r_star)

    h2p, h2s = split(h2, d)
    phi2p = prefix_expansion(h2p)
    if phi2p > kprime:
        raise CounterexampleError("split-expansion", phi=phi2p, bound=kprime)
    if d > 0:
        if set(h2s.left) != set(X):
            raise CounterexampleError("update2-X-mismatch", X=X, left=h2s.left)
        if set(h2s.right) != set(Y):
            raise CounterexampleError("update2-Y-mismatch", Y=Y, right=h2s.right)
        for j in X:
            if h2s.vol(j) * (1 - eps) > eps * ws.gamma:
                raise CounterexampleError(
                    "update2-suffix-volume-cap", job=j, vol=h2s.vol(j)
                )

    # the optimum's partial job z is weakly largest in A+; it must head the
    # order so the greedy consumes full-demand jobs first (exact ties included)
    z = ws.last_opt_touched
    a_order = tuple(
        sorted(
            ws.A_plus,
            key=lambda i: (-(r_ell.get(i, ZERO)), 0 if i == z else 1, i),
        )
    )
    demands = {i: ws.tau[i] for i in ws.O_plus}
    for v in Y:
        demands[v] = demands.get(v, ZERO) + h2s.vol_star(v)
    astar_order = tuple(sorted(demands, key=by_r_star))
    g = greedy_matching(
        a_order, astar_order, {i: ws.tau_star[i] for i in ws.A_plus}, demands
    )
    out = union(g, m3, h2p)
    order = _family_right_order(
        out.vols_star(), [h2p.right, astar_order, m3.right]
    )
    return graph(out.left, order, out.weights)


def _verify_marginal_properties(ws: WorkSplit, h1, m1, hp, pre_opt):
    """The five per-job volume identities of the updated graph."""
    vol_hp = hp.vols()
    vol_hp_star = hp.vols_star()
    for i in ws.new_ids:
        lhs = m1.vol(i) - vol_hp.get(i, ZERO)
        if lhs != ws.delta[i] + ws.tau[i]:
            raise CounterexampleError("H'-property-1", job=i, got=lhs)
        lhs = m1.vol_star(i) - vol_hp_star.get(i, ZERO)
        if lhs != ws.delta[i] + ws.tau_star[i]:
            raise CounterexampleError("H'-property-4", job=i, got=lhs)
    vol_h1 = h1.vols()
    for i, st in ws.slf_s.items():
        if i in ws.K_s - ws.K_ell:
            lhs = vol_h1.get(i, ZERO) - vol_hp.get(i, ZERO)
            if lhs != st.remaining:
                raise CounterexampleError("H'-property-2", job=i, got=lhs)
        else:
            if vol_hp.get(i, ZERO) != vol_h1.get(i, ZERO):
                raise CounterexampleError("H'-property-3", job=i)
    vol_h1_star = h1.vols_star()
    for i, st in pre_opt.items():
        r_now = ws.opt_ell[i].remaining if i in ws.opt_ell else ZERO
        lhs = vol_h1_star.get(i, ZERO) - vol_hp_star.get(i, ZERO)
        if lhs != st.remaining - r_now:
            raise CounterexampleError("H'-property-5", job=i, got=lhs)


# --- the main loop -------------------------------------------------------------


@dataclass(slots=True)
class IterationRecord:
    case: str
    s: Rat
    s_next: Rat
    details: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        out = {"case": self.case, "s": rat_str(self.s), "s_next": rat_str(self.s_next)}
        for k, v in self.details.items():
            out[k] = rat_str(v) if isinstance(v, Fraction) else v
        return out

    def copy(self) -> "IterationRecord":
        """A record whose details, and the lists in them, are its own."""
        details = {k: list(v) if isinstance(v, list) else v for k, v in self.details.items()}
        return IterationRecord(self.case, self.s, self.s_next, details)


@dataclass
class Certificate:
    original: Instance
    transformed: Instance
    target_time: Rat
    assignment: AssignmentChecked
    transcript: list[IterationRecord]

    def to_json_str(self) -> str:
        from .core import serialize_instance

        doc = {
            "time": rat_str(self.target_time),
            "original": json.loads(serialize_instance(self.original)),
            "transformed": json.loads(serialize_instance(self.transformed)),
            "assignment": graph_to_json(self.assignment.graph),
            "phi": rat_str(self.assignment.phi),
            "valid": self.assignment.valid,
            "transcript": [r.to_json() for r in self.transcript],
        }
        return json.dumps(doc, indent=2)


def _canonical_at(
    inst: Instance, t: Rat, cutoff: str, aligned: bool = False
) -> WeightedBipartiteGraph:
    """Canonical assignment between the two queues at t.

    With aligned=True, orders break ties among equal remaining times so that
    the graph's suffix coincides with the order in which the schedulers
    consume the jobs (smaller ids run first; the algorithm consumes known
    jobs only). The paper assumes distinct sizes, where this is vacuous; the
    aligned orders make per-job volume accounting exact under ties too.
    """
    slf = _states(inst, "slf", t, cutoff=cutoff)
    opt = _states(inst, "srpt", t, cutoff=cutoff)
    lv = {i: st.remaining for i, st in slf.items() if st.remaining}
    rv = {i: st.remaining for i, st in opt.items() if st.remaining}
    if not aligned:
        return canonical_from_marginals(lv, rv)
    left_order = sorted(
        lv, key=lambda i: (-lv[i], 1 if slf[i].known else 0, -i)
    )
    right_order = sorted(rv, key=lambda i: (-rv[i], -i))
    return canonical_from_marginals(lv, rv, left_order, right_order)


# --- one iteration, memoized on its t-free inputs (module docstring) -----------

STEP_CACHE_SIZE = 8192


class _Plan(NamedTuple):
    """The t-free part of an iteration at (cur, s): the jobs unknown right
    before the batch at s, the batch, the case and its stop candidate. The
    candidate is the next release for `idle` (None: no later release), the
    end of the solo known run for `known-run`, and the leader's knowledge
    time b_s for `batch`."""

    unknown: tuple[int, ...]
    batch: tuple[int, ...]
    case: str
    stop: Rat | None
    leader: int | None = None


def _unknown_at(cur: Instance, s: Rat) -> tuple[int, ...]:
    pre = _states(cur, "slf", s, cutoff="none")
    return tuple(i for i, st in pre.items() if not st.known)


def _check_magical(alg: Schedule, s: Rat, t: Rat, unknown) -> None:
    """Inv1: s is magical for the pre-batch unknown jobs through t."""
    hit = touched_jobs(alg, s, t).intersection(unknown)
    if hit:
        raise CounterexampleError("Inv1-magical", s=s, touched=sorted(hit))


@lru_cache(maxsize=STEP_CACHE_SIZE)
def _plan(inst: Instance, cur: Instance, s: Rat) -> _Plan:
    """Inv2 and Inv3 at (cur, s), then the case and its stop candidate."""
    unknown = _unknown_at(cur, s)
    # Inv2: the working instance is s-equivalent to the original
    if not check_t_equivalence(inst, cur, s):
        raise CounterexampleError("Inv2-equivalence", s=s)
    # Inv3: the canonical assignment right before the batch is valid
    phi_s = prefix_expansion(_canonical_at(cur, s, "none", aligned=True))
    if phi_s > ceil_inv(inst.epsilon):
        raise CounterexampleError("Inv3-validity", s=s, phi=phi_s)

    alg = _sched(cur, "slf")
    batch = tuple(sorted(j.id for j in cur.jobs if j.release.time == s))
    if batch:
        leader = _leader_of(cur, batch)
        b_s = alg.known_times().get(leader)
        if b_s is None:
            raise CounterexampleError("leader-knowledge-missing", leader=leader)
        return _Plan(unknown, batch, "batch", b_s, leader)
    post = _states(cur, "slf", s, cutoff="all")
    if not post:
        nxt = min((j.release.time for j in cur.jobs if j.release.time > s), default=None)
        return _Plan(unknown, batch, "idle", nxt)
    # known-run: the maximal run of solo known jobs from K(s)
    known_now = {i for i, st in post.items() if st.known}
    run_end = s
    for _, end, job in alg.solo_runs(s):
        if job not in known_now:
            break
        run_end = end
    if run_end == s:
        raise CounterexampleError("known-run-empty", s=s)
    return _Plan(unknown, batch, "known-run", run_end)


def _stop_point(plan: _Plan, alg: Schedule, s: Rat, t: Rat) -> Rat:
    """Where the iteration planned at s stops for target t."""
    if plan.case != "batch":
        return t if plan.stop is None else min(plan.stop, t)
    if plan.stop <= t:
        return plan.stop
    # the leader stays unknown through t: stop at its last touch
    x = alg.last_touch(plan.leader, t)
    if x is None:
        raise CounterexampleError("last-touch-missing", leader=plan.leader, s=s)
    return x


@lru_cache(maxsize=STEP_CACHE_SIZE)
def _advance(
    inst: Instance, cur: Instance, s: Rat, x: Rat
) -> tuple[IterationRecord, Instance, Rat]:
    """The iteration planned at (cur, s), stopped at x: every lemma check of
    the step, its record and the next state (cur', s')."""
    plan = _plan(inst, cur, s)
    if plan.case == "idle":
        return IterationRecord("idle", s, x), cur, x
    if plan.case == "known-run":
        hp, _ = split(_canonical_at(cur, s, "none", aligned=True), x - s)
        want = sorted(st.remaining for st in _states(cur, "slf", x, "none").values())
        if want != sorted(hp.vols().values()):
            raise CounterexampleError("srpt-lemma-marginals", s=s, s_next=x)
        record = IterationRecord(
            "known-run", s, x, {"phi_witness": prefix_expansion(hp)}
        )
        return record, cur, x
    # a batch exactly at x is the next iteration's problem; moving it
    # would change its elapsed time at x and break equivalence
    movers = [j for j in cur.jobs if s < j.release.time < x]
    if movers:
        moved = move_jobs(cur, s, max(j.release.time for j in movers))
        details = {"until": x, "jobs": sorted(j.id for j in movers)}
        return IterationRecord("move", s, s, details), moved, s
    if x == plan.stop:
        case = "fast-forward-knowledge"
    else:
        case = "fast-forward-last-touch"
        # every batch job is unknown or completed at x (knowledge exactly
        # at x is the boundary case and counts as frozen-known, which the
        # next iteration's known-run handles)
        eps = cur.epsilon
        e_alg = _snapshot(cur, "slf", x).elapsed
        for i in plan.batch:
            p = cur.job(i).size
            e = e_alg.get(i, ZERO)
            if e < p and e > (1 - eps) * p:
                raise CounterexampleError("batch-frozen-or-done", job=i, ell=x)
    sigma = _canonical_at(cur, s, "none", aligned=True)
    sigma_prime = update_valid_assignment(cur, plan.batch, s, x, sigma)
    details = {
        "leader": plan.leader,
        "batch": list(plan.batch),
        "phi_witness": prefix_expansion(sigma_prime),
    }
    return IterationRecord(case, s, x, details), cur, x


def create_valid_assignment(inst: Instance, t: Rat) -> Certificate:
    """Run the while-loop that produces the certificate for time t.

    Maintains a magical time s, a t-equivalent early-arriving instance, and a
    valid assignment at s; each iteration advances s (known-run or
    fast-forward) or re-releases a batch earlier, exactly once per job. The
    Inv1 window, the stop point, the iteration guard and the final check are
    taken for t; the rest of each iteration comes from `_plan`/`_advance`.
    """
    t = Fraction(t)
    if t < 0:
        raise ValueError("target time must be >= 0")
    eps = inst.epsilon
    if not (0 < eps <= 1):
        raise ValueError("certificates need epsilon in (0, 1]")
    if not inst.all_declared:
        raise ValueError("certificates need declared sizes")
    transcript: list[IterationRecord] = []

    # step keys hold the equal instance the schedule cache already keeps,
    # not one more parsed copy per call
    root = _sched(inst, "slf").instance
    cur = root
    s = ZERO
    if eps == 1:
        transcript.append(
            IterationRecord("identity", t, t, {"note": "eps=1: alg coincides with opt"})
        )
        s = t

    max_iter = 6 * len(inst.jobs) + 16
    iters = 0
    while s < t:
        iters += 1
        if iters > max_iter:
            raise CounterexampleError("termination", iterations=iters, s=s)
        alg = _sched(cur, "slf")
        try:
            plan = _plan(root, cur, s)
        except Exception:
            # Inv1 comes first in the check order, so it names the failure
            # when it breaks too
            _check_magical(alg, s, t, _unknown_at(cur, s))
            raise
        _check_magical(alg, s, t, plan.unknown)
        record, cur, s = _advance(root, cur, s, _stop_point(plan, alg, s, t))
        transcript.append(record.copy())

    final = _canonical_at(cur, t, "all")
    checked = check_assignment(final, eps)
    if not checked.valid:
        raise CounterexampleError("final-expansion", phi=checked.phi, t=t)
    return Certificate(inst, cur, t, checked, transcript)


# --- verification --------------------------------------------------------------


@dataclass
class CertificateReport:
    checks: dict[str, bool]
    details: dict[str, str]

    @property
    def passed(self) -> bool:
        return all(self.checks.values())

    def to_json_str(self) -> str:
        return json.dumps(
            {"passed": self.passed, "checks": self.checks, "details": self.details},
            indent=2,
        )


def verify_certificate(cert: Certificate) -> CertificateReport:
    """Audit the certificate against both schedulers' schedules of the
    original and transformed instances: exact marginals, expansion bound,
    target-time equivalence, the optimum-count comparison, and the count
    conclusion. The schedules come from the same cache that construction
    filled, so an engine bug that construction relied on is not caught. Its
    queue states at t are the snapshots that construction's final step read:
    read-only views of those same schedules, so sharing them makes
    verification trust construction no more than before."""
    checks: dict[str, bool] = {}
    details: dict[str, str] = {}
    inst, cur, t = cert.original, cert.transformed, cert.target_time
    eps = inst.epsilon
    kprime = ceil_inv(eps)
    h = cert.assignment.graph

    slf_t = _states(cur, "slf", t, cutoff="all")
    opt_t = _states(cur, "srpt", t, cutoff="all")
    lv = {i: st.remaining for i, st in slf_t.items() if st.remaining}
    rv = {i: st.remaining for i, st in opt_t.items() if st.remaining}
    checks["marginals"] = h.vols() == lv and h.vols_star() == rv
    if not checks["marginals"]:
        details["marginals"] = "assignment marginals differ from remaining times"

    phi = prefix_expansion(h)
    checks["expansion"] = phi <= kprime
    details["phi"] = rat_str(phi)

    checks["equivalence"] = check_t_equivalence(inst, cur, t)

    pairs = {j.id: j for j in inst.jobs}
    early = True
    for j in cur.jobs:
        o = pairs.get(j.id)
        if o is None or o.size != j.size:
            early = False
            break
        if j.release > o.release or (j.release != o.release and o.release.time >= t):
            early = False
            break
    checks["early-arriving"] = early

    opt_orig = _states(inst, "srpt", t, cutoff="all")
    checks["opt-count"] = len(opt_t) <= len(opt_orig)

    slf_orig = _states(inst, "slf", t, cutoff="all")
    checks["bounded-degree"] = (
        len(slf_t) <= kprime * len(opt_t) and len(slf_orig) <= kprime * len(opt_orig)
    )
    return CertificateReport(checks, details)
