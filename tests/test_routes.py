import itertools
import math

import pytest

from frlp import (AGG, CYCLIC, DISAGG, MAX_COVER, ORIGINAL, Demand, Edge,
                  EnumerationOverflowError, Instance, Network, NoRouteError,
                  brute_force_solve, build_instance, build_model,
                  enumerate_routes, gen_example, gen_random, is_traversable,
                  lp_bound, make_route, prepare_route_data, route_budget,
                  trip_length)

D = 12.0


def fig7():
    return gen_example("fig7", D)


def names(inst, route):
    return tuple(inst.network.name(v) for v in route.visits)


def line_graph(length, travel_range, alpha=1.0):
    return build_instance(["1", "2"], [Edge(0, 1, length)],
                          [Demand(0, 1, 1.0, alpha=alpha)], travel_range)


def test_route_budget_goldens():
    inst = fig7()
    q = inst.demands[0]
    assert route_budget(inst, q, CYCLIC) == pytest.approx(D)
    assert route_budget(inst, q, ORIGINAL) == pytest.approx(D / 2)
    line = line_graph(7.0, 7.0)
    assert route_budget(line, line.demands[0], ORIGINAL) == pytest.approx(7.0)


def test_route_budget_unreachable():
    inst = build_instance(["1", "2", "3"], [Edge(0, 1, 1.0)],
                          [Demand(0, 1, 1.0, alpha=1.0)], 2.0)
    ghost = Demand(0, 2, 1.0, alpha=1.0)
    with pytest.raises(NoRouteError):
        route_budget(inst, ghost, ORIGINAL)


def test_trip_length_adds_the_return_leg_only_when_cyclic():
    # One-way a -> b -> c: c is reachable from a, but a from nowhere.
    net = Network(("a", "b", "c"), (Edge(0, 1, 1.0, directed=True),
                                    Edge(1, 2, 2.0, directed=True)))
    q = Demand(0, 2, 1.0, alpha=1.5)
    assert trip_length(net, q, ORIGINAL) == 3.0
    assert math.isinf(trip_length(net, q, CYCLIC))
    inst = Instance(net, (q,), 10.0, variant_default=CYCLIC)
    assert route_budget(inst, q, ORIGINAL) == 4.5
    with pytest.raises(NoRouteError):
        route_budget(inst, q, CYCLIC)
    fig = fig7()
    q = fig.demands[0]
    assert trip_length(fig.network, q, CYCLIC) == pytest.approx(
        2 * trip_length(fig.network, q, ORIGINAL))


def test_table1_paths():
    inst = fig7()
    routes = enumerate_routes(inst, inst.demands[0], ORIGINAL)
    got = {(names(inst, r), r.length) for r in routes}
    assert got == {(("1", "2"), D / 3), (("1", "3", "2"), D / 2)}


def test_table2_cycles():
    inst = fig7()
    routes = enumerate_routes(inst, inst.demands[0], CYCLIC)
    got = {names(inst, r) for r in routes}
    expected = {("1", "2", "1"): 2 * D / 3,
                ("1", "3", "2", "3", "1"): D,
                ("1", "2", "3", "1"): 5 * D / 6,
                ("1", "2", "4", "1"): D}
    assert got == set(expected)
    for r in routes:
        assert r.length == pytest.approx(expected[names(inst, r)])


def test_cyclic_reversal_pairs_reported_once():
    inst = fig7()
    routes = enumerate_routes(inst, inst.demands[0], CYCLIC)
    seqs = {r.visits for r in routes}
    for visits in seqs:
        if visits != visits[::-1]:
            assert visits[::-1] not in seqs


def test_cyclic_reversal_over_other_arcs_is_another_route():
    # Two one-way triangles, 0->1->2->0 of arcs 3 and 0->2->1->0 of arcs 6:
    # the walks (0,1,2,0) and (0,2,1,0) are reversals over different arcs.
    arcs = [(0, 1, 3.0), (1, 2, 3.0), (2, 0, 3.0),
            (0, 2, 6.0), (2, 1, 6.0), (1, 0, 6.0)]
    inst = build_instance(
        ["0", "1", "2"], [Edge(u, v, w, directed=True) for u, v, w in arcs],
        [Demand(0, 1, 1.0, alpha=2.0)], D, variant_default=CYCLIC)
    lengths = {r.visits: r.length
               for r in enumerate_routes(inst, inst.demands[0], CYCLIC)}
    assert lengths[(0, 1, 2, 0)] == pytest.approx(9.0)
    assert lengths[(0, 2, 1, 0)] == pytest.approx(18.0)


def test_parallel_edges_list_each_walk_once():
    # Edges 0-1 of lengths 3 and 8, and 1-2 of length 3. A walk over the
    # longer 0-1 arc is never traversable when the same walk over the
    # shorter one is not, so each walk is one route, and the bounds and the
    # optimum are those of the network without the longer edge.
    demands = [Demand(0, 2, 1.0, alpha=3.0)]
    short = [Edge(0, 1, 3.0), Edge(1, 2, 3.0)]
    parallel, single = (build_instance(["0", "1", "2"], edges, demands, 10.0)
                        for edges in (short + [Edge(0, 1, 8.0)], short))
    routes = enumerate_routes(parallel, parallel.demands[0], ORIGINAL)
    assert len(routes) == 7
    assert routes == enumerate_routes(single, single.demands[0], ORIGINAL)
    for inst in (parallel, single):
        route_data = prepare_route_data(inst, ORIGINAL)
        families = [d.aggregated for d in route_data]
        assert lp_bound(build_model(inst, DISAGG, route_data=route_data,
                                    budget=1)) == pytest.approx(1.0)
        assert lp_bound(build_model(inst, AGG, families=families,
                                    budget=1)) == pytest.approx(1.0)
        optimum = brute_force_solve(inst, ORIGINAL, MAX_COVER, budget=1)
        assert optimum.objective == 1.0
        assert optimum.optimal_sets == (frozenset({1}),)


def test_explicit_routes_pass_through():
    fig2 = gen_example("fig2", 10.0)
    routes = enumerate_routes(fig2, fig2.demands[0], ORIGINAL)
    assert [r.visits for r in routes] == [(0, 1, 3, 4), (0, 1, 2, 3, 4)]


def test_enumeration_overflow_guard():
    inst = fig7()
    with pytest.raises(EnumerationOverflowError):
        enumerate_routes(inst, inst.demands[0], CYCLIC, cap=2)


def test_traversable_goldens():
    inst = fig7()
    cycle = make_route(inst.network, (0, 1, 3, 0))
    assert is_traversable(cycle, {3}, D)
    assert not is_traversable(cycle, set(), D)
    path = make_route(inst.network, (0, 1), kind="path")
    assert not is_traversable(path, {3}, D)


def test_boundary_gap_exactly_d_is_traversable():
    line = line_graph(5.0, 10.0)
    path = make_route(line.network, (0, 1), kind="path")
    # round trip is exactly the range between visits to a station at node 1
    assert is_traversable(path, {0}, 10.0)
    assert not is_traversable(path, {0}, 10.0 - 1e-6)


def test_path_equals_its_round_trip():
    inst = fig7()
    path = make_route(inst.network, (0, 2, 1), kind="path")
    cycle = make_route(inst.network, (0, 2, 1, 2, 0), kind="cycle")
    for bits in range(16):
        stations = {j for j in range(4) if bits >> j & 1}
        assert is_traversable(path, stations, D) == \
            is_traversable(cycle, stations, D)


def test_traversability_monotone_in_stations():
    inst = gen_random(11, num_nodes=6, density=0.4, num_demands=1)
    q = inst.demands[0]
    routes = enumerate_routes(inst, q, CYCLIC)
    for r in routes[:10]:
        for bits in range(1 << 6):
            small = {j for j in range(6) if bits >> j & 1}
            if not is_traversable(r, small, inst.travel_range):
                continue
            for extra in range(6):
                assert is_traversable(r, small | {extra}, inst.travel_range)


def test_a_route_longer_than_the_recursion_limit():
    n = 1200  # the one cyclic route visits 2n - 1 nodes
    inst = build_instance([str(i) for i in range(n)],
                          [Edge(i, i + 1, 1.0) for i in range(n - 1)],
                          [Demand(0, n - 1, 1.0, alpha=1.0)], 5.0)
    q = inst.demands[0]
    forward = tuple(range(n))
    assert [r.visits for r in enumerate_routes(inst, q, ORIGINAL)] == [forward]
    assert [r.visits for r in enumerate_routes(inst, q, CYCLIC)] == \
        [forward + forward[-2::-1]]


def test_enumerated_routes_respect_budget_and_network():
    for seed in range(5):
        inst = gen_random(seed, num_nodes=6, density=0.4, num_demands=2)
        for q in inst.demands:
            for variant in (ORIGINAL, CYCLIC):
                tau = route_budget(inst, q, variant)
                for r in enumerate_routes(inst, q, variant):
                    assert r.length <= tau + 1e-9
                    rebuilt = make_route(inst.network, r.visits, r.kind)
                    assert rebuilt.length == pytest.approx(r.length)
                    if variant == ORIGINAL:
                        assert r.visits[0] == q.origin
                        assert r.visits[-1] == q.destination
                    else:
                        assert r.visits[0] == r.visits[-1] == q.origin
                        assert q.destination in r.visits


def test_paths_appear_as_cycles_when_budget_doubles():
    inst = fig7()
    q = inst.demands[0]
    paths = enumerate_routes(inst, q, ORIGINAL)
    cycles = {r.visits for r in enumerate_routes(inst, q, CYCLIC)}
    for p in paths:
        round_trip = p.visits + p.visits[-2::-1]
        assert round_trip in cycles or round_trip[::-1] in cycles
