"""Parametric instance constructors: the worked 3/4/5-node examples, the two
gap families showing the aggregated relaxation can be arbitrarily weaker than
the disaggregated one (and the integer hull weaker still), and seeded random
pools for property testing.
"""

from __future__ import annotations

import itertools
import random
from typing import Optional, Tuple

from .covering import CutSetFamily
from .network import (CYCLIC, ORIGINAL, Demand, Edge, Instance,
                      PlacementConstraints, build_instance)

EXAMPLE_DEFAULT_RANGE = {"fig2": 10.0, "fig7": 12.0, "fig8": 3.0}


def gen_example(name: str, d: Optional[float] = None) -> Instance:
    """One of the three small worked-example instances.

    fig2: 5-node graph, all edges d/2, one explicit two-path demand 1->5.
    fig7: 4-node graph with both a short detour (node 3) and a long one
          (node 4), one deviation demand 1->2 with alpha=1.5.
    fig8: 3-node triangle, all edges d/3, deviation demand 1->2, alpha=1.5.
    """
    if name not in EXAMPLE_DEFAULT_RANGE:
        raise ValueError(f"unknown example name {name!r}")
    if d is None:
        d = EXAMPLE_DEFAULT_RANGE[name]
    if name == "fig2":
        return build_instance(
            ["1", "2", "3", "4", "5"],
            [Edge(0, 1, d / 2), Edge(1, 2, d / 2), Edge(1, 3, d / 2),
             Edge(2, 3, d / 2), Edge(3, 4, d / 2)],
            [Demand(0, 4, 1.0, routes=((0, 1, 3, 4), (0, 1, 2, 3, 4)))],
            d, variant_default=ORIGINAL)
    if name == "fig7":
        return build_instance(
            ["1", "2", "3", "4"],
            [Edge(0, 1, d / 3), Edge(0, 2, d / 4), Edge(1, 2, d / 4),
             Edge(0, 3, d / 3), Edge(1, 3, d / 3)],
            [Demand(0, 1, 1.0, alpha=1.5)],
            d, variant_default=CYCLIC)
    return build_instance(
        ["1", "2", "3"],
        [Edge(0, 1, d / 3), Edge(0, 2, d / 3), Edge(1, 2, d / 3)],
        [Demand(0, 1, 1.0, alpha=1.5)],
        d, variant_default=CYCLIC)


def gen_prop5a(n: int, f1: float = 1.0, d: float = 1.0) -> Instance:
    """Gap family between the two relaxations: 2n nodes, n parallel middle
    nodes joined to a shared chain, one demand with n explicit routes and a
    station budget of 2. The per-route relaxation bound stays at f1 while the
    per-demand bound collapses to 2 f1 / (n+1).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    num = 2 * n
    names = [str(i + 1) for i in range(num)]
    edges = []
    for j in range(1, n + 1):  # middle nodes 2..n+1 (ids 1..n)
        edges.append(Edge(0, j, d))
        if n + 1 < num:
            edges.append(Edge(j, n + 1, d))  # to node n+2 (id n+1)
    for k in range(n + 1, num - 1):  # chain n+2..2n
        edges.append(Edge(k, k + 1, d))
    routes = tuple(
        tuple([0, j] + list(range(n + 1, num))) for j in range(1, n + 1))
    demand = Demand(0, num - 1, f1, routes=routes)
    return build_instance(names, edges, [demand], d,
                          placement=PlacementConstraints(budget=2),
                          variant_default=ORIGINAL)


def prop5b_analytic_family(n: int, num_nodes: int) -> CutSetFamily:
    """The closed-form aggregated family of the permutation-walk demand:
    singletons of the four boundary nodes plus every n-subset of the 2n
    middle nodes."""
    members = [frozenset({0}), frozenset({1}),
               frozenset({2 * n + 2}), frozenset({2 * n + 3})]
    middle = range(2, 2 * n + 2)
    members.extend(frozenset(c) for c in itertools.combinations(middle, n))
    return CutSetFamily(tuple(members), num_nodes)


def gen_prop5b(n: int, delta: Optional[float] = None, f1: float = 1.0,
               d: float = 1.0) -> Tuple[Instance, CutSetFamily]:
    """(`gen_prop5b_instance`, its aggregated family of C(2n, n) + 4 sets)."""
    instance = gen_prop5b_instance(n, delta, f1, d)
    return instance, prop5b_analytic_family(n, instance.num_nodes)


def gen_prop5b_instance(n: int, delta: Optional[float] = None, f1: float = 1.0,
                        d: float = 1.0) -> Instance:
    """Gap family between the aggregated relaxation and the integer hull:
    2n+4 nodes, a clique of 2n middle nodes bracketed by two near-range
    approach edges, one demand whose single admissible route walks through
    every permutation of the middle nodes; station budget 6.

    For n <= 4 the explicit permutation walk is attached to the demand (the
    factorial walk is cross-validated against the closed-form family at
    small n); for larger n the demand carries the shortest route as a
    placeholder and the closed-form family is authoritative.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if delta is None:
        delta = 0.5 / (n * n)
    if not 0 < delta < 1.0 / (n * n):
        raise ValueError("delta must lie in (0, 1/n^2)")
    num = 2 * n + 4
    names = [str(i + 1) for i in range(num)]
    # ids: 0 <-> node 1, 1 <-> 2, 2..2n+1 <-> middle 3..2n+2,
    # 2n+2 <-> 2n+3, 2n+3 <-> 2n+4
    edges = [Edge(0, 1, d - delta), Edge(1, 2, 2 * delta),
             Edge(2, 2 * n + 2, 2 * delta), Edge(2 * n + 2, 2 * n + 3, d - delta)]
    middle = list(range(2, 2 * n + 2))
    clique_len = (d - delta) / n
    for i, j in itertools.combinations(middle, 2):
        edges.append(Edge(i, j, clique_len))

    if n <= 4:
        routes = (tuple(_permutation_walk(n)),)
    else:
        routes = ((0, 1, 2, 2 * n + 2, 2 * n + 3),)  # placeholder shortest route
    demand = Demand(0, num - 1, f1, routes=routes)
    return build_instance(names, edges, [demand], d,
                          placement=PlacementConstraints(budget=6),
                          variant_default=ORIGINAL)


def _permutation_walk(n: int):
    """Explicit permutation route of the gap instance: visit every
    permutation of the 2n middle node ids (2..2n+1) contiguously.

    Consecutive permutations are ordered so that any window of n consecutive
    visits contains n distinct nodes (a junction repeat would strengthen the
    covering family beyond its closed form): the last s nodes of one
    permutation stay disjoint from the first n-s of the next, for every s.
    The walk starts at node id 2 (adjacent to the entry edge) and is padded
    with one repeated permutation if needed so it also ends at id 2.
    """
    middle = list(range(2, 2 * n + 2))

    def compatible(prev, nxt):
        return all(set(prev[len(prev) - s:]).isdisjoint(nxt[:n - s])
                   for s in range(1, n))

    remaining = list(itertools.permutations(middle))
    ordered = [remaining.pop(0)]  # lexicographic first starts with id 2
    while remaining:
        for idx, cand in enumerate(remaining):
            if compatible(ordered[-1], cand):
                ordered.append(remaining.pop(idx))
                break
        else:
            raise RuntimeError("no junction-safe permutation ordering found")
    if ordered[-1][-1] != 2:
        # Repeat one permutation (harmless for the covering family) to close
        # the middle section back at id 2.
        for cand in itertools.permutations(middle):
            if cand[-1] == 2 and compatible(ordered[-1], cand):
                ordered.append(cand)
                break
        else:
            raise RuntimeError("no junction-safe closing permutation found")
    walk = [0, 1]
    for perm in ordered:
        walk.extend(perm)
    walk.extend([2 * n + 2, 2 * n + 3])
    return walk


LENGTH_CHOICES = (0.25, 1.0 / 3.0, 0.5, 2.0 / 3.0, 1.0)  # fractions of d


def gen_random(seed: int, num_nodes: int, density: float = 0.4,
               num_demands: int = 2, alphas=(1.0, 1.2, 1.5),
               d: float = 12.0, variant: str = CYCLIC,
               budget: Optional[int] = None) -> Instance:
    """Seeded random connected instance with edge lengths drawn from a small
    menu of fractions of the travel range."""
    if num_nodes < 2:
        raise ValueError("need at least 2 nodes")
    if num_demands < 0:
        raise ValueError("num_demands must be >= 0")
    if not 0.0 <= density <= 1.0:  # also false for nan
        raise ValueError("density must lie in [0, 1]")
    rng = random.Random(seed)
    names = [str(i + 1) for i in range(num_nodes)]

    def draw_length():
        return rng.choice(LENGTH_CHOICES) * d

    edges = []
    present = set()
    nodes = list(range(num_nodes))
    rng.shuffle(nodes)
    for a, b in zip(nodes, nodes[1:]):  # random spanning tree: connected
        u, v = min(a, b), max(a, b)
        present.add((u, v))
        edges.append(Edge(u, v, draw_length()))
    for u in range(num_nodes):
        for v in range(u + 1, num_nodes):
            if (u, v) not in present and rng.random() < density:
                present.add((u, v))
                edges.append(Edge(u, v, draw_length()))

    demands = []
    pairs = [(o, t) for o in range(num_nodes) for t in range(num_nodes) if o != t]
    rng.shuffle(pairs)
    for o, t in pairs[:num_demands]:
        demands.append(Demand(o, t, float(rng.randint(1, 10)),
                              alpha=rng.choice(tuple(alphas))))
    placement = PlacementConstraints(budget=budget)
    return build_instance(names, edges, demands, d, placement=placement,
                          variant_default=variant)
