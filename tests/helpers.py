"""Shared fixtures: the worked six-job example, random instance factories,
the bounded-exhaustive small-scope check and the check of the simulator's
membership rule on a raw run."""

from __future__ import annotations

import json
import random
from bisect import bisect_left
from fractions import Fraction as F
from itertools import combinations_with_replacement

from slflab.assignment import WeightedBipartiteGraph
from slflab.certifier import _sched, create_valid_assignment, verify_certificate
from slflab.core import Instance, Job, ReleaseTag, ceil_inv, rat_str, serialize_instance
from slflab.metrics import local_competitiveness
from slflab.reduction import reduction_check


def toy_instance() -> Instance:
    """Six simultaneous jobs, sizes 5,4,3,3,2,1, eps = 1/2."""
    jobs = tuple(
        Job(i + 1, ReleaseTag(F(0)), F(p)) for i, p in enumerate([5, 4, 3, 3, 2, 1])
    )
    return Instance(F(1, 2), jobs)


def staggered_instance() -> Instance:
    """Two batches: sizes 5,4 at t=0 and 6,8 at t=5, eps = 1/2."""
    return Instance(
        F(1, 2),
        (
            Job(1, ReleaseTag(F(0)), F(5)),
            Job(2, ReleaseTag(F(0)), F(4)),
            Job(3, ReleaseTag(F(5)), F(6)),
            Job(4, ReleaseTag(F(5)), F(8)),
        ),
    )


def random_instance(rng: random.Random, eps, n: int) -> Instance:
    jobs = tuple(
        Job(
            i + 1,
            ReleaseTag(F(rng.randint(0, 10), rng.randint(1, 3))),
            F(rng.randint(1, 12), rng.randint(1, 4)),
        )
        for i in range(n)
    )
    return Instance(eps, jobs)


def segment_tuples(sched):
    return [(seg.start, seg.end, seg.rates) for seg in sched.segments]


def scan_known_runs(sched) -> tuple:
    """`Schedule.known_runs` by a plain scan of the `segments` and `events`
    views: the maximal runs of solo segments whose job's `known` event came
    at or before the segment's start."""
    known = {ev.job: ev.t for ev in sched.events if ev.kind == "known"}
    runs: list = []
    for seg in sched.segments:
        job = seg.jobs[0] if len(seg.jobs) == 1 else None
        if job in known and known[job] <= seg.start:
            if runs and runs[-1][1] == seg.start:
                runs[-1] = (runs[-1][0], seg.end)
            else:
                runs.append((seg.start, seg.end))
    return tuple(runs)


def check_membership_rule(run) -> None:
    """The store's membership rule, read from the raw run (`spans`,
    `holders` and `done` alone): a job is with every holder it joins until
    it completes, so no holder it has left runs a segment from the span
    where it left up to its `done` index."""
    runs: dict = {}
    for i, h in enumerate(run.holders):
        runs.setdefault(h, []).append(i)
    for jid, log in run.spans.items():
        done = run.done.get(jid, len(run.holders))
        for (_, h), (left, _) in zip(log, log[1:]):
            r = runs.get(h, [])
            q = bisect_left(r, left)
            assert q == len(r) or r[q] >= done, (jid, h, left, done, r[q])


def is_backward(h: WeightedBipartiteGraph) -> bool:
    """No parallel pair: no two edges with u1 < u2 and v1 < v2."""
    li = {u: i for i, u in enumerate(h.left)}
    ri = {v: i for i, v in enumerate(h.right)}
    edges = sorted((li[u], ri[v]) for (u, v) in h.weights)
    prev_min: int | None = None  # min right position among smaller left positions
    cur_l = None
    cur_min: int | None = None
    for lpos, rpos in edges:
        if lpos != cur_l:
            if cur_min is not None:
                prev_min = cur_min if prev_min is None else min(prev_min, cur_min)
            cur_l, cur_min = lpos, None
        if prev_min is not None and rpos > prev_min:
            return False
        cur_min = rpos if cur_min is None else min(cur_min, rpos)
    return True


SMALL_RELEASES = (F(0), F(1, 2), F(1))
SMALL_SIZES = (F(1, 2), F(1), F(3, 2), F(2))
SMALL_EPSILONS = (F(1, 4), F(1, 3), F(1, 2), F(2, 3), F(1))


def small_instances(max_n: int, epsilons=SMALL_EPSILONS, epochs=(0,)):
    """Every multiset of n jobs over the release tags (each small release
    time at each of `epochs`) and the small sizes, for each eps, in
    increasing n from 1 to `max_n`; ids follow the multiset's order."""
    kinds = [(ReleaseTag(r, e), p) for r in SMALL_RELEASES for e in epochs for p in SMALL_SIZES]
    for n in range(1, max_n + 1):
        for combo in combinations_with_replacement(kinds, n):
            jobs = tuple(Job(i + 1, tag, p) for i, (tag, p) in enumerate(combo))
            for eps in epsilons:
                yield Instance(eps, jobs)


def small_scope_check(max_n: int, epsilons=SMALL_EPSILONS, epochs=(0,)):
    """The checks of criteria 3, 4 and 5 (slf = srpt at eps = 1, the local
    count bound at ceil(1/eps), a verified certificate at every slf and srpt
    event time), and criterion 8's chain for eps < 1, on every instance of
    `small_instances`. Returns (instances, targets, failures, first): the
    targets of the instances whose checks ran to the end, and None or a
    replayable line naming the first failing instance."""
    instances = targets = failures = 0
    first = None
    for inst in small_instances(max_n, epsilons, epochs):
        instances += 1
        found: list = []  # (t or None, check)
        try:
            targets += _small_scope_checks(inst, found)
        except Exception as exc:  # a crash fails the instance; the run goes on
            found.append((None, repr(exc)))
        failures += len(found)
        if found and first is None:
            t, check = found[0]
            doc = json.dumps(json.loads(serialize_instance(inst)))
            at = "" if t is None else f"t={rat_str(t)} "
            first = f"first failure: n={len(inst.jobs)} {at}check={check} instance={doc}"
    return instances, targets, failures, first


def _small_scope_checks(inst: Instance, found: list) -> int:
    """Append each failed check on `inst` to `found`; return the number of
    certificate targets."""
    eps = inst.epsilon
    slf, srpt = _sched(inst, "slf"), _sched(inst, "srpt")
    if eps == 1 and segment_tuples(slf) != segment_tuples(srpt):
        found.append((None, "slf-is-srpt"))
    counts = local_competitiveness(slf, srpt, F(ceil_inv(eps)))
    if not counts.passed:
        found.append((counts.witness_time, "local-count"))
    times = sorted({*slf.boundaries(), *srpt.boundaries()})
    for t in times:
        try:
            rep = verify_certificate(create_valid_assignment(inst, t))
        except Exception as exc:
            found.append((t, getattr(exc, "check", repr(exc))))
            continue
        if not rep.passed:
            failed = ",".join(k for k, ok in rep.checks.items() if not ok)
            found.append((t, f"verify:{failed}"))
    if eps < 1 and not reduction_check(inst, eps).ok:
        found.append((None, "reduction-chain"))
    return len(times)
