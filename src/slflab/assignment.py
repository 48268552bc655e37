"""Weighted bipartite fractional matchings between scheduler queues.

A graph couples the algorithm's queue (left) with the optimum's queue
(right); vertex volumes are edge-weight marginals. The default vertex order
is non-increasing volume with ties broken by id, but operations may attach
explicit orders (merging requires a non-default left order), so every graph
carries its orders.

One front-first fill builds every matching: it feeds each right vertex, in
order, from the front of a left order, using up each left vertex before the
next. `greedy_matching` (and so `merge`) fills its reversed left order.

Every operation is generic over exact numbers: it adds, subtracts and
compares weights and never divides them, so a graph holds Fractions in time
units or ints in an instance's work unit W, and gives the same graph up to
that unit either way (the certifier builds in W). `scale` moves a graph
between units; `prefix_expansion` counts vertices and returns a Fraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, Sequence

from .core import Rat, ceil_inv, rat_str


class AssignmentError(ValueError):
    pass


@dataclass(frozen=True)
class WeightedBipartiteGraph:
    left: tuple[int, ...]  # ordered vertex ids
    right: tuple[int, ...]
    weights: Mapping[tuple[int, int], Rat]  # (left, right) -> weight > 0

    def __post_init__(self) -> None:
        lset, rset = set(self.left), set(self.right)
        if len(lset) != len(self.left) or len(rset) != len(self.right):
            raise AssignmentError("duplicate vertices in an ordering")
        for (u, v), w in self.weights.items():
            if w <= 0:
                raise AssignmentError(f"edge ({u},{v}) must have positive weight")
            if u not in lset or v not in rset:
                raise AssignmentError(f"edge ({u},{v}) off the vertex sets")

    # -- volumes -------------------------------------------------------------

    def vols(self) -> dict[int, Rat]:
        out = dict.fromkeys(self.left, 0)
        for (u, _), w in self.weights.items():
            out[u] += w
        return out

    def vols_star(self) -> dict[int, Rat]:
        out = dict.fromkeys(self.right, 0)
        for (_, v), w in self.weights.items():
            out[v] += w
        return out

    def volume(self) -> Rat:
        return sum(self.weights.values())

    def is_empty(self) -> bool:
        return not self.weights


def graph(
    left: Sequence[int],
    right: Sequence[int],
    weights: Mapping[tuple[int, int], Rat],
) -> WeightedBipartiteGraph:
    clean = {e: w for e, w in weights.items() if w}
    return WeightedBipartiteGraph(tuple(left), tuple(right), clean)


def scale(h: WeightedBipartiteGraph, factor: Rat) -> WeightedBipartiteGraph:
    """`h` with every weight times `factor` (> 0), its orders kept: the one
    move between time units and an instance's work unit W. A whole factor
    gives an int for every whole product, any other factor Fractions."""
    if factor == 1:
        return h
    fn, fd = factor.numerator, factor.denominator
    whole = fd == 1
    weights = {}
    for e, w in h.weights.items():
        n, d = w.numerator * fn, w.denominator * fd
        weights[e] = n // d if whole and not n % d else Fraction(n, d)
    return WeightedBipartiteGraph(h.left, h.right, weights)


EMPTY_GRAPH = graph((), (), {})


def default_order(vols: Mapping[int, Rat]) -> tuple[int, ...]:
    """Non-increasing volume, ties by ascending id."""
    return tuple(sorted(vols, key=lambda u: (vols[u], -u), reverse=True))


def strip_isolated(h: WeightedBipartiteGraph) -> WeightedBipartiteGraph:
    return _induced(h, h.weights)


# -- structure predicates ------------------------------------------------------


def is_forward(h: WeightedBipartiteGraph) -> bool:
    """No crossing: no two edges (u1,v1), (u2,v2) with u1 > u2 and v1 < v2."""
    li = {u: i for i, u in enumerate(h.left)}
    ri = {v: i for i, v in enumerate(h.right)}
    edges = sorted((li[u], ri[v]) for (u, v) in h.weights)
    prev_max = -1  # max right position among strictly smaller left positions
    cur_l = None
    cur_max = -1
    for lpos, rpos in edges:
        if lpos != cur_l:
            prev_max = max(prev_max, cur_max)
            cur_l, cur_max = lpos, -1
        if rpos < prev_max:
            return False
        cur_max = max(cur_max, rpos)
    return True


# -- prefix expansion ----------------------------------------------------------


def prefix_expansion(h: WeightedBipartiteGraph) -> Rat:
    """max over non-empty prefixes P* of the right order of |N(P*)| / |P*|,
    as a Fraction whatever the weights' numbers.

    Isolated vertices are left out (the positions count only right
    vertices with an edge); a graph with no edge gives 0. The ratios are
    compared as cross products, and only the largest becomes a Fraction.
    """
    used = {v for _, v in h.weights}
    ri: dict[int, int] = {}
    for v in h.right:
        if v in used:
            ri[v] = len(ri)
    first_needed: dict[int, int] = {}
    for (u, v) in h.weights:
        pos = ri[v]
        if u not in first_needed or pos < first_needed[u]:
            first_needed[u] = pos
    counts = [0] * len(ri)
    for pos in first_needed.values():
        counts[pos] += 1
    bn, bd = 0, 1
    seen = 0
    for k, c in enumerate(counts, 1):
        seen += c
        if seen * bd > bn * k:
            bn, bd = seen, k
    return Fraction(bn, bd)


@dataclass(frozen=True)
class AssignmentChecked:
    graph: WeightedBipartiteGraph
    phi: Rat
    valid: bool


def check_assignment(h: WeightedBipartiteGraph, epsilon: Rat) -> AssignmentChecked:
    phi = prefix_expansion(h)
    return AssignmentChecked(h, phi, phi <= ceil_inv(epsilon))


# -- constructions -------------------------------------------------------------


def canonical_from_marginals(
    left_vols: Mapping[int, Rat],
    right_vols: Mapping[int, Rat],
    left_order: Sequence[int] | None = None,
    right_order: Sequence[int] | None = None,
) -> WeightedBipartiteGraph:
    """The canonical assignment: sort both sides by non-increasing volume and
    greedily feed each right vertex from the largest remaining left vertices.
    The result is forward with exactly the requested marginals. Callers may
    attach explicit orders (which must be non-increasing in volume and hold
    every vertex of positive volume) to pin tie-breaks among equal volumes."""
    left_vols, right_vols = (
        {u: w for u, w in vols.items() if w} for vols in (left_vols, right_vols)
    )
    left = default_order(left_vols) if left_order is None else _attached(left_order, left_vols)
    right = (
        default_order(right_vols) if right_order is None else _attached(right_order, right_vols)
    )
    return graph(left, right, _fill(left, right, left_vols, right_vols))


def _attached(order: Sequence[int], vols: Mapping[int, Rat]) -> tuple[int, ...]:
    """An attached order's vertices of positive volume, checked to be
    non-increasing in volume (a default order is so by construction)."""
    out = tuple(u for u in order if u in vols)
    if any(vols[a] < vols[b] for a, b in zip(out, out[1:])):
        raise AssignmentError("attached order must be non-increasing")
    return out


def greedy_matching(
    a_order: Sequence[int],
    a_star_order: Sequence[int],
    c: Mapping[int, Rat],
    c_star: Mapping[int, Rat],
) -> WeightedBipartiteGraph:
    """Fill each right vertex, in order, from the smallest sufficient suffix
    of the left order: each suffix member but the front-most contributes its
    whole residual, the front-most the remainder (the fill of the reversed
    left order). Output is backward with marginals exactly c / c_star."""
    a_order, a_star_order = tuple(a_order), tuple(a_star_order)
    return graph(a_order, a_star_order, _fill(a_order[::-1], a_star_order, c, c_star))


def _fill(left, right, left_vols, right_vols) -> dict[tuple[int, int], Rat]:
    """Feed each vertex of `right`, in order, from the front of `left`, using
    up each left vertex before the next. The volumes must be nonnegative with
    equal sums, and each order must hold every vertex of positive volume,
    once."""
    if min(left_vols.values(), default=0) < 0 or min(right_vols.values(), default=0) < 0:
        raise AssignmentError("volumes must be nonnegative")
    if sum(left_vols.values()) != sum(right_vols.values()):
        raise AssignmentError("volume sums differ")
    for order, vols in ((left, left_vols), (right, right_vols)):
        placed = set(order)
        if len(placed) < len(order) or not placed.issuperset(u for u, w in vols.items() if w):
            raise AssignmentError("an order must hold each vertex of positive volume once")
    left = [u for u in left if left_vols.get(u)]
    residual = dict(left_vols)
    weights: dict[tuple[int, int], Rat] = {}
    li = 0
    for v in right:
        need = right_vols.get(v, 0)
        while need > 0:
            u = left[li]
            take = min(need, residual[u])
            weights[(u, v)] = take
            residual[u] -= take
            need -= take
            if not residual[u]:
                li += 1
    return weights


def suffix_reaching(
    order: Sequence[int], vols: Mapping[int, Rat], beta: Rat
) -> tuple[tuple[int, ...], Rat]:
    """The smallest suffix of `order` whose volume reaches beta, and its
    volume; the whole order and its volume when no suffix does."""
    acc = 0
    k = len(order)
    while k and acc < beta:
        k -= 1
        acc += vols[order[k]]
    return tuple(order[k:]), acc


def min_suffix(h: WeightedBipartiteGraph, beta: Rat) -> tuple[int, ...]:
    """Smallest suffix S of the left order with vol(S) >= beta."""
    if beta < 0 or beta > h.volume():
        raise AssignmentError("beta outside [0, vol(H)]")
    return suffix_reaching(h.left, h.vols(), beta)[0]


def split(h: WeightedBipartiteGraph, beta: Rat) -> tuple[
    WeightedBipartiteGraph, WeightedBipartiteGraph
]:
    """Split a forward graph into a prefix subgraph and a suffix subgraph of
    volume beta; at most one edge is shared, its weight divided so that
    vol(H_s) = beta exactly. Both parts are forward and phi(H_p) <= phi(H)."""
    if not is_forward(h):
        raise AssignmentError("split needs a forward graph")
    total = h.volume()
    if beta < 0 or beta > total:
        raise AssignmentError("beta outside [0, vol(H)]")
    li = {u: i for i, u in enumerate(h.left)}
    ri = {v: i for i, v in enumerate(h.right)}
    edges = sorted(h.weights, key=lambda e: (li[e[0]], ri[e[1]]))
    suffix_w: dict[tuple[int, int], Rat] = {}
    acc = 0
    idx = len(edges)
    while acc < beta:
        idx -= 1
        e = edges[idx]
        take = min(h.weights[e], beta - acc)
        suffix_w[e] = take
        acc += take
    prefix_w: dict[tuple[int, int], Rat] = {}
    for e in edges[:idx]:
        prefix_w[e] = h.weights[e]
    if idx < len(edges):
        e = edges[idx]
        rest = h.weights[e] - suffix_w.get(e, 0)
        if rest > 0:
            prefix_w[e] = rest
    hp = _induced(h, prefix_w)
    hs = _induced(h, suffix_w)
    return hp, hs


def _induced(h: WeightedBipartiteGraph, weights: Mapping) -> WeightedBipartiteGraph:
    """`h`'s orders restricted to the vertices that `weights` (all positive)
    touch."""
    lkeep = {u for (u, _) in weights}
    rkeep = {v for (_, v) in weights}
    return graph(
        tuple(u for u in h.left if u in lkeep),
        tuple(v for v in h.right if v in rkeep),
        weights,
    )


def merge(
    h1: WeightedBipartiteGraph,
    h2: WeightedBipartiteGraph,
    right_key: Callable[[int], object],
) -> WeightedBipartiteGraph:
    """Combine two vertex-disjoint graphs into one forward graph preserving
    every per-vertex volume (greedy matching with the left side ordered by
    non-decreasing volume, then presented in non-increasing order); the
    right side is sorted by `right_key`."""
    if set(h1.left) & set(h2.left) or set(h1.right) & set(h2.right):
        raise AssignmentError("merge needs vertex-disjoint graphs")
    c = {**h1.vols(), **h2.vols()}
    c_star = {**h1.vols_star(), **h2.vols_star()}
    a_asc = tuple(sorted(c, key=lambda u: (c[u], u)))
    a_star = tuple(sorted(c_star, key=right_key))
    g = greedy_matching(a_asc, a_star, c, c_star)
    # reversing the left order turns the backward output into a forward graph
    return graph(tuple(reversed(a_asc)), a_star, g.weights)


def union(*graphs_: WeightedBipartiteGraph) -> WeightedBipartiteGraph:
    """Pointwise weight sum with the default (volume-sorted) orders."""
    weights: dict[tuple[int, int], Rat] = {}
    for h in graphs_:
        for e, w in h.weights.items():
            weights[e] = weights.get(e, 0) + w
    weights = {e: w for e, w in weights.items() if w > 0}
    lv: dict[int, Rat] = {}
    rv: dict[int, Rat] = {}
    for (u, v), w in weights.items():
        lv[u] = lv.get(u, 0) + w
        rv[v] = rv.get(v, 0) + w
    return graph(default_order(lv), default_order(rv), weights)


# -- serialization -------------------------------------------------------------


def graph_to_json(h: WeightedBipartiteGraph) -> dict:
    vols = h.vols()
    vols_star = h.vols_star()
    return {
        "left": [{"id": u, "vol": rat_str(vols[u])} for u in h.left],
        "right": [{"id": v, "vol": rat_str(vols_star[v])} for v in h.right],
        "edges": [
            {"l": u, "r": v, "w": rat_str(w)}
            for (u, v), w in sorted(h.weights.items())
        ],
    }
