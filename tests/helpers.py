"""Shared fixtures: the worked six-job example and random instance factories."""

from __future__ import annotations

import random
from fractions import Fraction as F

from slflab.assignment import WeightedBipartiteGraph
from slflab.core import Instance, Job, ReleaseTag


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
