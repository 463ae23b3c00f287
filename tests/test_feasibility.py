import math
from dataclasses import replace

import pytest

from frlp import (CYCLIC, MAX_COVER, ORIGINAL, CycleQuery, Demand, Edge,
                  Label, SolveRequest, ValidationError, brute_force_solve,
                  build_instance, enumerate_routes, find_traversable_path,
                  find_witness, gen_example, gen_random, is_served,
                  is_traversable, reevaluate, route_budget, solve)
from frlp import feasibility
from frlp.feasibility import corridor, search_cycle
from frlp.oracle import exhaustive_served

D = 12.0
INF = math.inf


def fig7():
    return gen_example("fig7", D)


def test_fig8_trace():
    inst = gen_example("fig8", 3.0)
    q = inst.demands[0]
    query = CycleQuery(inst, q, frozenset({2}), 3.0, dominance=False)
    result = search_cycle(query)
    expected = [(0, 0, 0.0, 0.0, INF),
                (0, 1, 1.0, 1.0, INF),
                (0, 1, 2.0, 2.0, INF),
                (1, 1, 2.0, 0.0, 2.0),
                (1, 1, 3.0, 1.0, 2.0)]
    assert [lab.tuple5() for lab in result.selected] == expected
    assert result.selected[-1].tuple5() == (1, 1, 3.0, 1.0, 2.0)
    assert result.witness.visits == (0, 1, 2, 0)


def test_search_cycle_witness_example3():
    inst = fig7()
    q = inst.demands[0]
    tau = route_budget(inst, q, CYCLIC)
    witness = search_cycle(CycleQuery(inst, q, frozenset({3}), tau)).witness
    assert witness.visits == (0, 1, 3, 0)
    assert witness.length == pytest.approx(D)
    assert search_cycle(
        CycleQuery(inst, q, frozenset(), tau)).witness is None


def test_find_traversable_path_goldens():
    inst = fig7()
    q = inst.demands[0]
    tau = route_budget(inst, q, ORIGINAL)
    witness = find_traversable_path(inst, q, {2}, tau)
    assert witness.visits == (0, 2, 1)
    assert find_traversable_path(inst, q, {3}, tau) is None

    line = build_instance(["1", "2"], [Edge(0, 1, 6.0)],
                          [Demand(0, 1, 1.0, alpha=1.0)], D)
    witness = find_traversable_path(line, line.demands[0], {0}, 6.0)
    assert witness.visits == (0, 1)


def test_is_served_example3():
    inst = fig7()
    q = inst.demands[0]
    assert not is_served(inst, q, {3}, ORIGINAL)
    assert is_served(inst, q, {3}, CYCLIC)
    assert is_served(inst, q, {0, 1, 2, 3}, ORIGINAL)
    assert is_served(inst, q, {0, 1, 2, 3}, CYCLIC)
    assert not is_served(inst, q, set(), CYCLIC)


def test_is_served_explicit_routes():
    fig2 = gen_example("fig2", 10.0)
    q = fig2.demands[0]
    assert is_served(fig2, q, {1, 3}, ORIGINAL)
    assert not is_served(fig2, q, {2}, ORIGINAL)


def test_oracle_equivalence_and_monotonicity(small_pool):
    for inst in small_pool[:12]:
        n = inst.num_nodes
        for q in inst.demands:
            for variant in (ORIGINAL, CYCLIC):
                for bits in range(1 << n):
                    stations = frozenset(j for j in range(n) if bits >> j & 1)
                    fast = is_served(inst, q, stations, variant)
                    slow = exhaustive_served(inst, q, stations, variant)
                    assert fast == slow, (q, sorted(stations), variant)
                    if fast:
                        assert all(
                            is_served(inst, q, stations | {e}, variant)
                            for e in range(n))


def test_witnesses_are_valid(small_pool):
    from frlp import is_traversable
    for inst in small_pool[:8]:
        n = inst.num_nodes
        for q in inst.demands:
            tau = route_budget(inst, q, CYCLIC)
            for bits in range(1 << n):
                stations = frozenset(j for j in range(n) if bits >> j & 1)
                witness = search_cycle(
                    CycleQuery(inst, q, stations, tau)).witness
                if witness is not None:
                    assert witness.length <= tau + 1e-9
                    assert witness.visits[0] == witness.visits[-1] == q.origin
                    assert q.destination in witness.visits
                    assert is_traversable(witness, stations,
                                          inst.travel_range)


def _assert_corridor_sound(inst, variant):
    """Stations outside the corridor never change a verdict, and no
    admissible route leaves the corridor."""
    n = inst.num_nodes
    for q in inst.demands:
        zone = corridor(inst, q, variant)
        for route in enumerate_routes(inst, q, variant):
            assert set(route.visits) <= zone, (q, route.visits)
        for bits in range(1 << n):
            stations = frozenset(j for j in range(n) if bits >> j & 1)
            assert is_served(inst, q, stations, variant) == \
                is_served(inst, q, stations & zone, variant), \
                (q, sorted(stations), variant)


def test_corridor_sound_on_small_pool(small_pool):
    for inst in small_pool:
        for variant in (ORIGINAL, CYCLIC):
            _assert_corridor_sound(inst, variant)


def one_way_ring():
    """Directed ring 0->1->...->5->0 with two one-way chords, so distances
    to a node differ from distances from it."""
    arcs = [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0), (4, 5, 1.0),
            (5, 0, 1.0), (2, 5, 1.5), (4, 1, 2.0)]
    return build_instance(
        [str(i) for i in range(6)],
        [Edge(u, v, length, directed=True) for u, v, length in arcs],
        [Demand(0, 3, 1.0, alpha=1.0), Demand(1, 4, 2.0, alpha=1.5),
         Demand(5, 2, 1.0, alpha=1.2)],
        2.5, variant_default=CYCLIC)


def test_corridor_sound_on_directed_network():
    inst = one_way_ring()
    # 0 -> 3 -> 0 around the ring uses every node once, in arc direction.
    assert corridor(inst, inst.demands[0], CYCLIC) == frozenset(range(6))
    _assert_corridor_sound(inst, CYCLIC)
    for q in inst.demands:
        for bits in range(1 << 6):
            stations = frozenset(j for j in range(6) if bits >> j & 1)
            assert is_served(inst, q, stations, CYCLIC) == \
                exhaustive_served(inst, q, stations, CYCLIC)


def test_corridor_of_explicit_routes():
    d = 10.0
    inst = build_instance(
        ["1", "2", "3", "4", "5", "6"],
        [Edge(0, 1, d / 2), Edge(1, 2, d / 2), Edge(1, 3, d / 2),
         Edge(2, 3, d / 2), Edge(3, 4, d / 2), Edge(2, 5, d / 2)],
        [Demand(0, 4, 1.0, routes=((0, 1, 3, 4), (0, 1, 2, 3, 4)))], d)
    assert corridor(inst, inst.demands[0], ORIGINAL) == frozenset(range(5))
    for variant in (ORIGINAL, CYCLIC):
        _assert_corridor_sound(inst, variant)


def test_explicit_routes_are_made_once(monkeypatch):
    # A demand's check is built once: its routes are made on the first
    # verdict and reused by every later one.
    made = []
    make_route = feasibility.make_route

    def counted(network, visits, kind=None):
        made.append(tuple(visits))
        return make_route(network, visits, kind)

    monkeypatch.setattr(feasibility, "make_route", counted)
    fig2 = gen_example("fig2", 10.0)
    q = fig2.demands[0]
    for bits in range(1 << fig2.num_nodes):
        stations = {j for j in range(fig2.num_nodes) if bits >> j & 1}
        assert is_served(fig2, q, stations, ORIGINAL) == \
            exhaustive_served(fig2, q, stations, ORIGINAL)
    assert sorted(made) == sorted(q.routes)


def test_checks_are_kept_per_variant():
    # On a fresh network the cyclic check is built first; the original
    # variant must get its own check, not the cached cyclic one.
    inst = fig7()
    q = inst.demands[0]
    assert is_served(inst, q, {3}, CYCLIC)
    assert not is_served(inst, q, {3}, ORIGINAL)
    assert corridor(inst, q, CYCLIC) == frozenset({0, 1, 2, 3})
    assert corridor(inst, q, ORIGINAL) == frozenset({0, 1, 2})


def test_superseded_label_does_not_hide_witness():
    # A superseded label must not be mistaken for a live one (or vice versa)
    # when its queue entry is popped.
    inst = gen_random(469, num_nodes=12, density=0.3, num_demands=6)
    q = inst.demands[0]
    stations = frozenset({3, 4, 5})
    assert is_served(inst, q, stations, CYCLIC)
    assert exhaustive_served(inst, q, stations, CYCLIC)
    tau = route_budget(inst, q, CYCLIC)
    for dominance in (True, False):
        assert search_cycle(CycleQuery(inst, q, stations, tau,
                                       dominance=dominance)).witness is not None


PIN_CASES = ((469, 12), (23, 14), (57, 16))


def _pin_station_sets(n):
    return (frozenset(), frozenset({3, 4, 5}), frozenset(range(0, n, 2)),
            frozenset(range(1, n, 3)))


@pytest.mark.parametrize("dominance,labels", [(True, 489), (False, 1002)])
def test_search_selects_the_pinned_labels(dominance, labels):
    # Totals and verdicts pinned from the frozen-dataclass search, which
    # built every extension before testing the completion bound.
    total, verdicts = 0, []
    for seed, n in PIN_CASES:
        inst = gen_random(seed, num_nodes=n, density=0.3, num_demands=4,
                          variant=CYCLIC)
        for q in inst.demands:
            tau = route_budget(inst, q, CYCLIC)
            for stations in _pin_station_sets(n):
                result = search_cycle(
                    CycleQuery(inst, q, stations, tau, dominance=dominance))
                total += len(result.selected)
                verdicts.append("1" if result.witness is not None else "0")
    assert total == labels
    assert "".join(verdicts) == \
        "011000110010001000100111000100110010001000100010"


def test_search_builds_no_label_beyond_the_completion_bound(monkeypatch):
    from frlp import feasibility
    from frlp.network import DIST_TOL
    built = []

    class CountingLabel(Label):
        __slots__ = ()

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(feasibility, "Label", CountingLabel)
    inst = gen_random(469, num_nodes=12, density=0.3, num_demands=6)
    q = inst.demands[0]
    tau = route_budget(inst, q, CYCLIC)
    to_dest = inst.network.distances_to(q.destination)
    to_origin = inst.network.distances_to(q.origin)
    for dominance in (True, False):
        built.clear()
        search_cycle(CycleQuery(inst, q, frozenset({3, 4, 5}), tau,
                                dominance=dominance))
        assert built
        for lab in built:
            completion = (to_origin[lab.node] if lab.delta_dest
                          else to_dest[lab.node] + to_origin[q.destination])
            assert lab.l_start + completion <= tau + DIST_TOL, lab


def station_loop(lengths, travel_range):
    """Origin 0 -> 1 -> destination 2 -> 1 -> 0 on one-way arcs of the four
    `lengths`, plus a node 3 off the corridor (arcs 2 <-> 3 of length 100),
    under the cyclic variant with alpha 1. With a station at 1 alone, the
    charge segment through the destination is 1 -> 2 -> 1 and the one
    through the origin 1 -> 0 -> 1."""
    to_dest, into_dest, out_of_dest, back = lengths
    arcs = [(0, 1, to_dest), (1, 2, into_dest), (2, 1, out_of_dest),
            (1, 0, back), (2, 3, 100.0), (3, 2, 100.0)]
    return build_instance(
        [str(i) for i in range(4)],
        [Edge(u, v, length, directed=True) for u, v, length in arcs],
        [Demand(0, 2, 1.0, alpha=1.0)], travel_range, variant_default=CYCLIC)


def test_cyclic_verdict_rejects_hopeless_station_sets_without_a_search(
        monkeypatch):
    # Every case is served at range 12 with a station at 1. At range 10 on
    # the same network no search may run: the segment through the
    # destination (first case) or through the origin (second) is 12, and
    # the third and fourth cases open no corridor station. The verdict must
    # read the range of its own instance, not of the one that built the
    # check.
    def no_search(query):
        raise AssertionError("the labeling search ran")

    cases = (((1.0, 4.0, 8.0, 1.0), {1}), ((4.0, 1.0, 1.0, 8.0), {1}),
             ((1.0, 4.0, 8.0, 1.0), set()), ((1.0, 4.0, 8.0, 1.0), {3}))
    for lengths, stations in cases:
        inst = station_loop(lengths, 12.0)
        q = inst.demands[0]
        assert corridor(inst, q, CYCLIC) == frozenset({0, 1, 2})
        assert is_served(inst, q, {1}, CYCLIC)
        with monkeypatch.context() as patch:
            patch.setattr(feasibility, "search_cycle", no_search)
            short = replace(inst, travel_range=10.0)
            assert not is_served(short, q, stations, CYCLIC), lengths
            assert not is_served(inst, q, stations - {1}, CYCLIC)


@pytest.mark.parametrize("lengths,travel_range", [
    ((1.0, 4.0, 8.0, 1.0), 12.0),  # 4 + 8 = 12
    ((8.0, 1.0, 1.0, 4.0), 12.0),  # 4 + 8 = 12 through the origin
    ((0.1, 0.1, 0.2, 0.1), 0.3),  # 0.1 + 0.2 rounds above 0.3
    ((0.2, 0.1, 0.1, 0.1), 0.3),  # 0.1 + 0.2 through the origin
])
def test_cyclic_segment_of_exactly_the_range_is_served(lengths,
                                                       travel_range):
    inst = station_loop(lengths, travel_range)
    q = inst.demands[0]
    tau = route_budget(inst, q, CYCLIC)
    witness = search_cycle(CycleQuery(inst, q, frozenset({1}), tau)).witness
    assert witness is not None and witness.visits == (0, 1, 2, 1, 0)
    assert is_served(inst, q, {1}, CYCLIC)
    assert exhaustive_served(inst, q, {1}, CYCLIC)


@pytest.mark.parametrize("call", [
    lambda inst, q: is_served(inst, q, {1}, ORIGINAL),
    lambda inst, q: corridor(inst, q, ORIGINAL),
    lambda inst, q: find_traversable_path(inst, q, {1}, 10.0),
    lambda inst, q: find_witness(inst, q, {1}, ORIGINAL),
    lambda inst, q: enumerate_routes(inst, q, ORIGINAL),
    lambda inst, q: reevaluate(inst, {1}, ORIGINAL),
    lambda inst, q: brute_force_solve(inst, ORIGINAL, MAX_COVER),
    lambda inst, q: solve(SolveRequest(inst, ORIGINAL, MAX_COVER)),
], ids=["is_served", "corridor", "find_traversable_path", "find_witness",
        "enumerate_routes", "reevaluate", "brute_force_solve", "solve"])
def test_original_variant_on_a_directed_network_is_rejected(call):
    inst = one_way_ring()
    with pytest.raises(ValidationError, match="undirected"):
        call(inst, inst.demands[0])
    # the cyclic variant takes the same network
    assert corridor(inst, inst.demands[0], CYCLIC)


def unit_triangle():
    """Origin 0, destination 1 and a node 2, pairwise joined by edges of
    length 1, at range 3 and alpha 1.5 (tau 3). With a station at 2 alone,
    every admissible cycle is one charge segment from 2 through both the
    destination and the origin back to 2."""
    edges = [Edge(0, 1, 1.0), Edge(1, 2, 1.0), Edge(2, 0, 1.0)]
    return build_instance(["o", "t", "s"], edges,
                          [Demand(0, 1, 1.0, alpha=1.5)], 3.0,
                          variant_default=CYCLIC)


def directed_ring():
    """A one-way ring 0 -> 1 -> ... -> 5 -> 0 of arcs of length 4 with a
    two-way chord 0 - 3 of length 6, at range 12."""
    edges = [Edge(u, (u + 1) % 6, 4.0, directed=True) for u in range(6)]
    edges.append(Edge(0, 3, 6.0))
    demands = [Demand(0, 2, 1.0, alpha=1.5), Demand(4, 1, 1.0, alpha=1.2),
               Demand(3, 5, 1.0, alpha=1.0)]
    return build_instance([str(j) for j in range(6)], edges, demands, D,
                          variant_default=CYCLIC)


def test_cyclic_verdict_agrees_with_the_search_and_the_oracle():
    # Every station set: the min-plus verdict, the labeling search and the
    # enumerated admissible cycles agree, with served sets in each of the
    # four cases of an open or closed origin and destination.
    triangle = unit_triangle()
    q = triangle.demands[0]
    assert is_served(triangle, q, {2}, CYCLIC) is True  # a bool, not numpy's
    assert find_witness(triangle, q, {2}, CYCLIC).visits == (0, 1, 2, 0)
    instances = [triangle, directed_ring()] + [
        gen_random(seed, 7, density=0.3, num_demands=3, variant=CYCLIC)
        for seed in (3, 17, 29)]
    served_cases = set()
    for inst in instances:
        n = inst.num_nodes
        for q in inst.demands:
            tau = route_budget(inst, q, CYCLIC)
            routes = enumerate_routes(inst, q, CYCLIC)
            for bits in range(1 << n):
                stations = frozenset(j for j in range(n) if bits >> j & 1)
                verdict = is_served(inst, q, stations, CYCLIC)
                search = search_cycle(CycleQuery(inst, q, stations, tau))
                oracle = any(is_traversable(r, stations, inst.travel_range)
                             for r in routes)
                assert verdict == (search.witness is not None) == oracle, \
                    (inst.network.node_names, q, sorted(stations))
                if verdict:
                    served_cases.add((q.origin in stations,
                                      q.destination in stations))
    assert len(served_cases) == 4
