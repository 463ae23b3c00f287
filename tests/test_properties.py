"""Differential property tests on inputs the seeded pools never generate.

Hypothesis runs derandomized with a bounded number of examples, so every run
checks the same inputs and the suite stays fast.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from frlp import (AGG, CYCLIC, DISAGG, MAX_COVER, MIN_STATIONS, ORIGINAL,
                  CycleQuery, Demand, Edge, PlacementConstraints, SolveRequest,
                  UnservableError, brute_force_solve, build_instance,
                  build_model, corridor, enumerate_routes, eval_v_agg,
                  eval_v_disagg, eval_v_tight, find_traversable_path,
                  find_witness, gen_example, gen_random, is_served,
                  is_traversable, lp_bound, prepare_route_data, reevaluate,
                  route_budget, separate, shrink_cut, solve)
from frlp.feasibility import search_cycle
from frlp.lp import served_vector
from frlp.network import DIST_TOL, variant_violations
from test_solver import full_shrink_separate, loop_shrink

D = 12.0
LENGTHS = tuple(f * D for f in (0.25, 1.0 / 3.0, 0.5, 2.0 / 3.0, 1.0))


@st.composite
def directed_cyclic_instances(draw, max_nodes=7):
    """A one-way ring of 3 to `max_nodes` nodes, so that every node reaches
    every other, plus chords that are one-way or two-way; one to three
    demands with deviation factors, under the cyclic variant."""
    n = draw(st.integers(3, max_nodes))
    length = st.sampled_from(LENGTHS)
    edges = [Edge(u, (u + 1) % n, draw(length), directed=True)
             for u in range(n)]
    chords = [(u, v) for u in range(n) for v in range(n)
              if u != v and v != (u + 1) % n]
    if chords:
        for u, v in draw(st.lists(st.sampled_from(chords), max_size=2 * n,
                                  unique=True)):
            edges.append(Edge(u, v, draw(length), directed=draw(st.booleans())))
    demands = []
    for _ in range(draw(st.integers(1, 3))):
        origin = draw(st.integers(0, n - 1))
        destination = (origin + draw(st.integers(1, n - 1))) % n
        alpha = draw(st.sampled_from((1.0, 1.2, 1.5)))
        demands.append(Demand(origin, destination, 1.0, alpha=alpha))
    return build_instance([str(j) for j in range(n)], edges, demands, D,
                          variant_default=CYCLIC)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(directed_cyclic_instances())
def test_cyclic_servedness_matches_the_oracle(inst):
    # Every station set: the labeling search with and without dominance
    # against enumerating the admissible cycles.
    n = inst.num_nodes
    for q in inst.demands:
        tau = route_budget(inst, q, CYCLIC)
        routes = enumerate_routes(inst, q, CYCLIC)
        for bits in range(1 << n):
            stations = frozenset(j for j in range(n) if bits >> j & 1)
            expected = any(is_traversable(r, stations, inst.travel_range)
                           for r in routes)
            assert is_served(inst, q, stations, CYCLIC) == expected, \
                (q, sorted(stations))
            replay = search_cycle(
                CycleQuery(inst, q, stations, tau, dominance=False))
            assert (replay.witness is not None) == expected, \
                (q, sorted(stations))


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(directed_cyclic_instances())
def test_cyclic_servedness_under_another_range_of_the_network(inst):
    # The cyclic twin of the original-variant case below: the second
    # instance shares the network, and so the demands' cached checks, under
    # a longer travel range, which the cached checks must not carry over.
    n = inst.num_nodes
    routes = {q: enumerate_routes(inst, q, CYCLIC) for q in inst.demands}
    for instance in (inst, replace(inst, travel_range=1.5 * D)):
        assert instance.network is inst.network
        for q in instance.demands:
            for bits in range(1 << n):
                stations = frozenset(j for j in range(n) if bits >> j & 1)
                expected = any(is_traversable(r, stations,
                                              instance.travel_range)
                               for r in routes[q])
                assert is_served(instance, q, stations, CYCLIC) == expected, \
                    (instance.travel_range, q, sorted(stations))


@st.composite
def scaled_cyclic_instances(draw):
    """A ring instance of `directed_cyclic_instances`, kept directed or
    made undirected, with every length and the range scaled by one factor,
    so that a sum of lengths equal to the range may round above or below
    it."""
    ring = draw(directed_cyclic_instances())
    scale = draw(st.sampled_from((1.0, 0.1, 0.3, 0.7)))
    directed = draw(st.booleans())
    edges = [replace(e, length=e.length * scale,
                     directed=e.directed and directed)
             for e in ring.network.edges]
    return build_instance(ring.network.node_names, edges, ring.demands,
                          D * scale, variant_default=CYCLIC)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(scaled_cyclic_instances(), st.data())
def test_cyclic_verdict_is_the_labeling_search(inst, data):
    # `is_served` rejects some station sets before any search: on random
    # station sets it must agree with the search itself, under the
    # instance's range and under a longer one on the same network.
    n = inst.num_nodes
    station_sets = data.draw(st.lists(st.integers(0, (1 << n) - 1),
                                      min_size=1, max_size=24))
    for instance in (inst, replace(inst, travel_range=1.5 * inst.travel_range)):
        for q in instance.demands:
            tau = route_budget(instance, q, CYCLIC)
            for bits in station_sets:
                stations = frozenset(j for j in range(n) if bits >> j & 1)
                search = search_cycle(CycleQuery(instance, q, stations, tau))
                assert is_served(instance, q, stations, CYCLIC) == \
                    (search.witness is not None), \
                    (instance.travel_range, q, sorted(stations))


def undirected(inst):
    """The instance with every edge two-way, as the original variant
    requires."""
    edges = tuple(replace(e, directed=False) for e in inst.network.edges)
    return build_instance(inst.network.node_names, edges, inst.demands,
                          inst.travel_range, variant_default=ORIGINAL)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(st.one_of(directed_cyclic_instances(), scaled_cyclic_instances()),
       st.data())
def test_shrink_by_insertion_is_the_loop_over_verdicts(inst, data):
    # The shrink answers each closed node by inserting it into the base's
    # closure (cyclic) or cost maps (original), so its sums run in another
    # order than a full verdict's; with lengths scaled by 0.1, 0.3 or 0.7, a
    # route as long as tau rounds to either side of it. On random station
    # sets, under the cyclic variant and on the undirected copy under the
    # original one, at the instance's range and a longer one on the same
    # network: the shrink of a random order of some closed corridor nodes is
    # the loop over `is_served`, and `separate` is the full-network shrink.
    n = inst.num_nodes
    masks = data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1,
                               max_size=6))
    for variant, base in ((CYCLIC, inst), (ORIGINAL, undirected(inst))):
        for instance in (base, replace(base,
                                       travel_range=1.5 * base.travel_range)):
            for bits in masks:
                x = [bits >> j & 1 for j in range(n)]
                for q in instance.demands:
                    zone = corridor(instance, q, variant)
                    stations = frozenset(j for j in zone if x[j])
                    if is_served(instance, q, stations, variant):
                        continue
                    closed = data.draw(st.lists(
                        st.sampled_from(sorted(zone - stations)),
                        unique=True)) if zone - stations else []
                    assert shrink_cut(instance, q, stations, closed,
                                      variant) == \
                        loop_shrink(instance, q, stations, closed, variant), \
                        (variant, instance.travel_range, q, sorted(stations),
                         closed)
                y = [1] * len(instance.demands)
                assert separate(instance, variant, x, y) == \
                    full_shrink_separate(instance, variant, x, y), \
                    (variant, instance.travel_range, x)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(directed_cyclic_instances().map(undirected))
def test_original_servedness_matches_the_oracle(inst):
    # Every station set: the refueling-network check, as a verdict and as a
    # witness, against enumerating the admissible paths. The second instance
    # shares the network, and so the demands' cached checks, under another
    # travel range, which the cached checks must not carry over.
    n = inst.num_nodes
    routes = {q: enumerate_routes(inst, q, ORIGINAL) for q in inst.demands}
    for instance in (inst, replace(inst, travel_range=1.5 * D)):
        assert instance.network is inst.network
        for q in instance.demands:
            tau = route_budget(instance, q, ORIGINAL)
            for bits in range(1 << n):
                stations = frozenset(j for j in range(n) if bits >> j & 1)
                expected = any(is_traversable(r, stations,
                                              instance.travel_range)
                               for r in routes[q])
                assert is_served(instance, q, stations, ORIGINAL) == expected, \
                    (instance.travel_range, q, sorted(stations))
                witness = find_traversable_path(instance, q, stations, tau)
                assert (witness is not None) == expected, \
                    (instance.travel_range, q, sorted(stations))


@st.composite
def placement_instances(draw):
    """A ring instance of 3 to 6 nodes under either variant (undirected
    under the original one, which requires it), with demand volumes of 1 to
    3, some demands replaced by one to three of their own admissible routes
    given explicitly, forced-open and forced-closed nodes, and a budget of
    up to two stations beyond the forced-open ones."""
    ring = draw(directed_cyclic_instances(max_nodes=6))
    variant = draw(st.sampled_from((ORIGINAL, CYCLIC)))
    names, edges = ring.network.node_names, ring.network.edges
    if variant == ORIGINAL:
        edges = tuple(replace(e, directed=False) for e in edges)
    inst = build_instance(names, edges, ring.demands, D,
                          variant_default=variant)
    demands = []
    for q in inst.demands:
        q = replace(q, volume=float(draw(st.integers(1, 3))))
        routes = enumerate_routes(inst, q, variant)
        if routes and draw(st.booleans()):
            picked = draw(st.lists(st.sampled_from(routes), min_size=1,
                                   max_size=3, unique_by=lambda r: r.visits))
            q = replace(q, alpha=None,
                        routes=tuple(r.visits for r in picked))
        demands.append(q)
    roles = draw(st.lists(st.sampled_from("..oc"), min_size=inst.num_nodes,
                          max_size=inst.num_nodes))
    forced_open = frozenset(j for j, role in enumerate(roles) if role == "o")
    placement = PlacementConstraints(
        budget=len(forced_open) + draw(st.integers(0, 2)),
        forced_open=forced_open,
        forced_closed=frozenset(j for j, role in enumerate(roles)
                                if role == "c"))
    return variant, build_instance(names, edges, demands, D, placement,
                                   variant_default=variant)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(placement_instances(), st.sampled_from((MAX_COVER, MIN_STATIONS)),
       st.sampled_from((None, 1, 2)))
def test_solve_matches_the_oracle(case, objective, node_limit):
    # Branch-and-cut against enumerating every allowed placement: max-cover
    # under the placement budget, min-stations at coverage 0.5. A solve that
    # proves optimality has the oracle's objective; a solve stopped by its
    # node limit has a feasible objective and a bound on the oracle's other
    # side. Either way its served flags are the verdicts of `is_served`.
    variant, inst = case
    coverage = 0.5 if objective == MIN_STATIONS else 1.0
    best = brute_force_solve(inst, variant, objective,
                             coverage=coverage).objective
    request = SolveRequest(inst, variant, objective, coverage=coverage,
                           node_limit=node_limit)
    if best == float("inf"):
        with pytest.raises(UnservableError):
            solve(request)
        return
    solution = solve(request)
    stations = solution.stations
    assert solution.served == tuple(is_served(inst, q, stations, variant)
                                    for q in inst.demands)
    assert inst.placement.forced_open <= stations
    assert not inst.placement.forced_closed & stations
    if objective == MAX_COVER:
        assert len(stations) <= inst.placement.budget
        assert solution.objective == pytest.approx(
            reevaluate(inst, stations, variant))
        assert solution.objective <= best + 1e-9 <= solution.bound + 2e-9
    else:
        assert solution.objective == len(stations)
        assert solution.bound - 1e-9 <= best <= solution.objective
    if solution.optimal:
        assert solution.objective == pytest.approx(best)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(placement_instances())
def test_lp_bounds_keep_the_order_of_the_formulations(case):
    # The disaggregated relaxation is no tighter than the aggregated one,
    # and the aggregated one bounds the max-cover optimum under the
    # placement's budget, forced-open and forced-closed nodes.
    variant, inst = case
    route_data = prepare_route_data(inst, variant)
    disagg = lp_bound(build_model(inst, DISAGG, route_data=route_data))
    agg = lp_bound(build_model(inst, AGG,
                               families=[d.aggregated for d in route_data]))
    best = brute_force_solve(inst, variant, MAX_COVER).objective
    assert disagg >= agg - 1e-7
    assert agg >= best - 1e-7


EXAMPLES = tuple(gen_example(name) for name in ("fig2", "fig7", "fig8"))


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(st.one_of(st.sampled_from(EXAMPLES),
                 placement_instances().map(lambda case: case[1])))
def test_a_witness_exists_exactly_when_the_demand_is_served(inst):
    # Every station set, under every variant the network admits: the witness
    # is an admissible route that the stations make traversable, one of the
    # listed routes when the demand lists them.
    n = inst.num_nodes
    for variant in (ORIGINAL, CYCLIC):
        if variant_violations(inst.network, variant):
            continue
        for q in inst.demands:
            for bits in range(1 << n):
                stations = frozenset(j for j in range(n) if bits >> j & 1)
                witness = find_witness(inst, q, stations, variant)
                served = is_served(inst, q, stations, variant)
                assert (witness is not None) == served, \
                    (variant, q, sorted(stations))
                if witness is None:
                    continue
                assert is_traversable(witness, stations, inst.travel_range)
                visits = witness.visits
                if q.routes is not None:
                    assert visits in q.routes
                    continue
                if variant == ORIGINAL:
                    assert (visits[0], visits[-1]) == (q.origin, q.destination)
                else:
                    assert visits[0] == visits[-1] == q.origin
                    assert q.destination in visits
                assert witness.length <= route_budget(inst, q, variant) \
                    + DIST_TOL


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(placement_instances(), st.data())
def test_value_functions_keep_the_order_of_the_formulations(case, data):
    # At a fractional placement, the tightest concave extension of the
    # servedness is at most the aggregated value, which is at most the
    # per-route one.
    variant, inst = case
    route_data = prepare_route_data(inst, variant)
    families = [d.aggregated for d in route_data]
    served = [served_vector(f, inst.num_nodes) for f in families]
    x = data.draw(st.lists(st.floats(0.0, 1.0), min_size=inst.num_nodes,
                           max_size=inst.num_nodes))
    tight = eval_v_tight(inst, x, served=served)
    agg = eval_v_agg(inst, families, x)
    assert tight <= agg + 1e-7, x
    assert agg <= eval_v_disagg(inst, route_data, x) + 1e-7, x


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(8, 14), st.sampled_from((0.15, 0.3)),
       st.data())
def test_a_demand_served_under_original_is_served_under_cyclic(seed, n, density,
                                                               data):
    # On an undirected network, the way out along a path that the original
    # variant admits and the same path back form a cycle that the cyclic
    # variant admits, with the same stations, so a verdict can only rise.
    inst = gen_random(seed, n, density=density, num_demands=6, variant=ORIGINAL)
    masks = data.draw(st.lists(st.integers(0, (1 << n) - 1), max_size=12))
    served = 0
    for bits in masks + [(1 << n) - 1]:
        stations = frozenset(j for j in range(n) if bits >> j & 1)
        for q in inst.demands:
            if is_served(inst, q, stations, ORIGINAL):
                served += 1
                assert is_served(inst, q, stations, CYCLIC), (q, sorted(stations))
    assert served  # every node a station serves some demand
