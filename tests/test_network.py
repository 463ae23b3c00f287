import json
import math
from dataclasses import replace

import pytest

from frlp import (CYCLIC, ORIGINAL, Demand, Edge, Instance, Network,
                  ParseError, PlacementConstraints, UnknownNodeError,
                  ValidationError, build_instance, gen_example, gen_random,
                  parse_instance, serialize_instance, shortest_distance,
                  validate_instance)

D = 12.0


def fig7():
    return gen_example("fig7", D)


def test_parse_fig2_document():
    doc = json.dumps({
        "range": 10,
        "variant": "original",
        "nodes": ["1", "2", "3", "4", "5"],
        "edges": [{"u": "1", "v": "2", "length": 5},
                  {"u": "2", "v": "3", "length": 5},
                  {"u": "2", "v": "4", "length": 5},
                  {"u": "3", "v": "4", "length": 5},
                  {"u": "4", "v": "5", "length": 5}],
        "demands": [{"origin": "1", "destination": "5", "volume": 1,
                     "alpha": 1.5}],
    })
    instance = parse_instance(doc)
    assert instance.num_nodes == 5
    assert len(instance.network.edges) == 5
    assert instance.travel_range == 10


def test_parse_empty_degenerate():
    doc = json.dumps({"range": 1, "nodes": ["a"], "edges": [], "demands": []})
    instance = parse_instance(doc)
    assert instance.demands == ()
    assert instance.network.edges == ()


def test_parse_prunes_long_edge():
    doc = json.dumps({
        "range": 10,
        "nodes": ["1", "2", "3"],
        "edges": [{"u": "1", "v": "2", "length": 15},
                  {"u": "2", "v": "3", "length": 5},
                  {"u": "1", "v": "3", "length": 5}],
        "demands": [{"origin": "1", "destination": "3", "volume": 1,
                     "alpha": 1.0}],
    })
    instance = parse_instance(doc)
    assert len(instance.network.edges) == 2
    assert any("1-2" in line for line in instance.pruning_report)


def test_parse_prunes_unroutable_demand():
    doc = json.dumps({
        "range": 10,
        "nodes": ["1", "2", "3"],
        "edges": [{"u": "1", "v": "2", "length": 5}],
        "demands": [{"origin": "1", "destination": "3", "volume": 1,
                     "alpha": 1.0},
                    {"origin": "1", "destination": "2", "volume": 1,
                     "alpha": 1.0}],
    })
    instance = parse_instance(doc)
    assert len(instance.demands) == 1
    assert any("empty route set" in line for line in instance.pruning_report)


def test_parse_errors():
    with pytest.raises(ParseError, match="line"):
        parse_instance("{not json")
    with pytest.raises(ParseError, match="missing required key"):
        parse_instance(json.dumps({"range": 1}))
    with pytest.raises(ParseError, match="unknown node name"):
        parse_instance(json.dumps({
            "range": 1, "nodes": ["a"], "demands": [],
            "edges": [{"u": "a", "v": "b", "length": 1}]}))
    # a reference is a name: 0 is not the id of node "a"
    with pytest.raises(ParseError, match="unknown node name '0'"):
        parse_instance(json.dumps({
            "range": 1, "nodes": ["a", "b"], "demands": [],
            "edges": [{"u": 0, "v": "b", "length": 1}]}))
    # routes is a list of lists of node references, placement.open and
    # placement.closed are lists: a string is not read character by character
    doc = json.loads(serialize_instance(fig7()))
    del doc["demands"][0]["alpha"]
    for routes in ([5], 5, ["12"]):
        doc["demands"][0]["routes"] = routes
        with pytest.raises(ParseError, match="routes.* must be a list"):
            parse_instance(json.dumps(doc))
    doc = json.loads(serialize_instance(fig7()))
    for key, value in (("open", "12"), ("open", 5), ("closed", "3")):
        doc["placement"] = {key: value}
        with pytest.raises(ParseError, match=f"'placement.{key}' must be a list"):
            parse_instance(json.dumps(doc))


def test_integer_node_references_are_names():
    instance = parse_instance(json.dumps({
        "range": 10, "nodes": [1, 2, 3],
        "edges": [{"u": 1, "v": 2, "length": 2},
                  {"u": 2, "v": 3, "length": 2}],
        "demands": [{"origin": 1, "destination": 3, "alpha": 1.0}],
        "placement": {"open": [2]}}))
    net = instance.network
    assert [(net.name(e.u), net.name(e.v)) for e in net.edges] == \
        [("1", "2"), ("2", "3")]
    q = instance.demands[0]
    assert (net.name(q.origin), net.name(q.destination)) == ("1", "3")
    assert [net.name(j) for j in instance.placement.forced_open] == ["2"]


def test_validation_error_for_negative_length():
    doc = json.dumps({
        "range": 10, "nodes": ["1", "2"],
        "edges": [{"u": "1", "v": "2", "length": -1}],
        "demands": []})
    with pytest.raises(ValidationError) as exc:
        parse_instance(doc)
    assert any("non-positive" in v for v in exc.value.violations)


def test_validate_wellformed_is_empty():
    assert validate_instance(fig7()) == []


def test_validate_origin_equals_destination():
    probe = Instance(fig7().network, (Demand(0, 0, 1.0, alpha=1.0),), D)
    assert any("origin equals destination" in v
               for v in validate_instance(probe))


def test_validate_forced_open_exceeds_budget():
    probe = Instance(fig7().network, (), D,
                     PlacementConstraints(budget=1,
                                          forced_open=frozenset({0, 1})))
    assert any("budget" in v for v in validate_instance(probe))


def test_shortest_distance_goldens():
    inst = fig7()
    assert shortest_distance(inst.network, 0, 1) == pytest.approx(D / 3)
    assert shortest_distance(inst.network, 2, 2) == 0.0
    fig2 = gen_example("fig2", 10.0)
    assert shortest_distance(fig2.network, 0, 4) == pytest.approx(15.0)


def test_shortest_distance_unreachable_and_unknown():
    net = Network(("a", "b"), ())
    assert math.isinf(shortest_distance(net, 0, 1))
    with pytest.raises(UnknownNodeError):
        shortest_distance(net, 0, 7)


def test_distance_symmetry_and_triangle():
    inst = gen_random(3, num_nodes=8, density=0.5, num_demands=1)
    net = inst.network
    n = net.num_nodes
    for a in range(n):
        for b in range(n):
            assert shortest_distance(net, a, b) == pytest.approx(
                shortest_distance(net, b, a))
            for c in range(n):
                assert shortest_distance(net, a, c) <= (
                    shortest_distance(net, a, b)
                    + shortest_distance(net, b, c) + 1e-9)


def test_distances_to_respects_direction():
    # One-way ring a -> b -> c -> a plus a two-way chord a - c.
    net = Network(("a", "b", "c"),
                  (Edge(0, 1, 1.0, directed=True), Edge(1, 2, 1.0, directed=True),
                   Edge(2, 0, 5.0, directed=True), Edge(0, 2, 3.0)))
    assert net.distances_to(0) == (0.0, 4.0, 3.0)
    assert net.distances_to(2) == (2.0, 1.0, 0.0)
    with pytest.raises(UnknownNodeError):
        net.distances_to(3)
    for inst in (gen_random(3, num_nodes=8, density=0.5, num_demands=1), fig7()):
        net = inst.network
        n = net.num_nodes
        for t in range(n):
            assert net.distances_to(t) == tuple(
                shortest_distance(net, j, t) for j in range(n))


def test_shortest_path_follows_distances():
    # One-way ring a -> b -> c -> a plus a two-way chord a - c; d is isolated.
    ring = Network(("a", "b", "c", "d"),
                   (Edge(0, 1, 1.0, directed=True), Edge(1, 2, 1.0, directed=True),
                    Edge(2, 0, 5.0, directed=True), Edge(0, 2, 3.0)))
    nets = [gen_random(3, num_nodes=8, density=0.5, num_demands=1).network,
            fig7().network, ring]
    for net in nets:
        adj = net.adjacency
        for s in range(net.num_nodes):
            dist = net.distances_from(s)
            for t in range(net.num_nodes):
                path = net.shortest_path(s, t)
                if math.isinf(dist[t]):
                    assert path is None
                    continue
                assert path[0] == s and path[-1] == t
                hops = [min(length for w, length in adj[u] if w == v)
                        for u, v in zip(path, path[1:])]  # every hop is an arc
                assert sum(hops) == pytest.approx(dist[t])
    assert ring.shortest_path(2, 1) == (2, 0, 1)
    assert ring.shortest_path(0, 3) is None
    assert ring.shortest_path(3, 3) == (3,)
    with pytest.raises(UnknownNodeError):
        ring.shortest_path(0, 4)


@pytest.mark.parametrize("budget", ["x", 2.7, True, float("inf"), [2]])
def test_parse_rejects_budget_that_is_not_a_whole_number(budget):
    doc = json.loads(serialize_instance(fig7()))
    doc["placement"] = {"budget": budget}
    with pytest.raises(ParseError, match="budget"):
        parse_instance(json.dumps(doc))


@pytest.mark.parametrize("path, value", [
    (("edges", 0, "length"), float("nan")),
    (("range",), float("inf")),
    (("demands", 0, "volume"), float("nan")),
    (("demands", 0, "alpha"), float("nan")),
    (("demands", 0, "alpha"), "x"),
    (("nodes",), "abc"),
    (("edges", 0, "directed"), "false"),
], ids=["nan-length", "infinite-range", "nan-volume", "nan-alpha",
        "string-alpha", "string-nodes", "string-directed"])
def test_parse_rejects_values_that_are_not_finite_typed_numbers(path, value):
    doc = json.loads(serialize_instance(fig7()))
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    with pytest.raises(ParseError, match=f"'{path[-1]}' must be"):
        parse_instance(json.dumps(doc))  # NaN and Infinity as JSON allows


def test_parse_accepts_whole_number_budget():
    doc = json.loads(serialize_instance(fig7()))
    for budget in (2, 2.0):
        doc["placement"] = {"budget": budget}
        assert parse_instance(json.dumps(doc)).placement.budget == 2


def test_serialize_round_trip():
    for builder in (lambda: fig7(), lambda: gen_example("fig2", 10.0),
                    lambda: gen_random(5, num_nodes=6, num_demands=2)):
        instance = builder()
        again = parse_instance(serialize_instance(instance))
        assert again.network == instance.network
        assert again.demands == instance.demands
        assert again.travel_range == instance.travel_range
        assert again.placement == instance.placement


def test_directed_edges_rejected_for_original_variant():
    with pytest.raises(ValidationError, match="undirected"):
        build_instance(["a", "b"], [Edge(0, 1, 1.0, directed=True)],
                       [Demand(0, 1, 1.0, alpha=1.0)], 2.0,
                       variant_default=ORIGINAL)


def test_directed_edges_allowed_for_cyclic_variant():
    inst = build_instance(
        ["a", "b"],
        [Edge(0, 1, 1.0, directed=True), Edge(1, 0, 1.0, directed=True)],
        [Demand(0, 1, 1.0, alpha=1.0)], 2.0, variant_default=CYCLIC)
    assert shortest_distance(inst.network, 0, 1) == 1.0


@pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("name", ["alpha", "range", "volume", "length"])
def test_build_instance_rejects_numbers_the_parser_rejects(name, value):
    numbers = {"alpha": 1.5, "range": 10.0, "volume": 1.0, "length": 5.0}
    numbers[name] = value
    with pytest.raises(ValidationError):
        build_instance(["a", "b"], [Edge(0, 1, numbers["length"])],
                       [Demand(0, 1, numbers["volume"], alpha=numbers["alpha"])],
                       numbers["range"])


def test_empty_explicit_route_is_a_violation():
    with pytest.raises(ValidationError, match="demand #0 route #0: is empty"):
        build_instance(["a", "b"], [Edge(0, 1, 1.0)],
                       [Demand(0, 1, 1.0, routes=((),))], 2.0)


def prunable_parts():
    """a - b - c with a long chord a - c and an isolated node d; range 10."""
    names = ("a", "b", "c", "d")
    edges = (Edge(0, 1, 1.0), Edge(1, 2, 1.0), Edge(0, 2, 20.0))
    demands = (Demand(0, 2, 1.0, alpha=1.5),
               Demand(0, 2, 1.0, routes=((0, 2), (0, 1, 2))),  # one over a-c
               Demand(2, 0, 1.0, routes=((2, 0),)),  # its only route over a-c
               Demand(0, 3, 1.0, alpha=2.0))  # d is unreachable
    return names, edges, demands, 10.0


def test_validate_lists_exactly_what_pruning_removes():
    names, edges, demands, travel_range = prunable_parts()
    raw = Instance(Network(names, edges), demands, travel_range)
    built = build_instance(names, edges, demands, travel_range)
    assert validate_instance(raw) == list(built.pruning_report)
    assert len(built.pruning_report) == 5  # the edge, 2 routes, 2 demands
    assert [q.routes for q in built.demands] == [None, ((0, 1, 2),)]
    assert validate_instance(built) == []


def test_validate_of_a_broken_instance_lists_only_structural_violations():
    names, edges, demands, travel_range = prunable_parts()
    broken = Instance(Network(names, edges),
                      demands + (Demand(1, 1, 1.0, alpha=1.0),), travel_range)
    assert validate_instance(broken) == ["demand #4: origin equals destination"]
    with pytest.raises(ValidationError) as exc:
        build_instance(names, edges, broken.demands, travel_range)
    assert exc.value.violations == validate_instance(broken)


def test_build_instance_looks_up_each_trip_once(monkeypatch):
    calls = []
    distances_from = Network.distances_from
    monkeypatch.setattr(Network, "distances_from",
                        lambda net, source: calls.append(source) or
                        distances_from(net, source))
    names = ("a", "b", "c")
    edges = (Edge(0, 1, 1.0), Edge(1, 2, 1.0))
    demands = (Demand(0, 2, 1.0, alpha=1.5), Demand(1, 0, 1.0, alpha=1.0))
    inst = build_instance(names, edges, demands, 5.0, variant_default=CYCLIC)
    assert calls == [0, 2, 1, 0]  # out and back per demand, no probe network
    calls.clear()
    assert validate_instance(inst) == []
    assert calls == [0, 2, 1, 0]
    assert inst.network._rows.keys() >= {0, 1, 2}  # no edge pruned: kept
