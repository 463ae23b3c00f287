import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from frlp import (CYCLIC, ORIGINAL, ConstructionError, CutSetFamily,
                  WitnessUndefinedError, aggregate_cut_sets,
                  cut_sets_for_cycle, enumerate_routes,
                  gen_example, is_traversable, make_route, minimality_witness,
                  minimalize)
from frlp.covering import AggregationOverflowError

FIG2 = gen_example("fig2", 10.0)
NET = FIG2.network
D = 10.0


def sets_by_name(family):
    return {frozenset(NET.name(j) for j in s) for s in family.sets}


def fam(*sets, n=5):
    return CutSetFamily(tuple(frozenset(s) for s in sets), n)


def test_example1_first_path():
    route = make_route(NET, (0, 1, 3, 4), kind="path")
    family = cut_sets_for_cycle(route, NET, D)
    assert sets_by_name(family) == {frozenset("12"), frozenset("24"),
                                    frozenset("45")}


def test_example1_second_path():
    route = make_route(NET, (0, 1, 2, 3, 4), kind="path")
    family = cut_sets_for_cycle(route, NET, D)
    assert sets_by_name(family) == {frozenset("12"), frozenset("23"),
                                    frozenset("34"), frozenset("45")}


def test_example1_cycle_entry_point_matches_path():
    path = make_route(NET, (0, 1, 3, 4), kind="path")
    cycle = make_route(NET, (0, 1, 3, 4, 3, 1, 0), kind="cycle")
    assert set(cut_sets_for_cycle(path, NET, D).sets) == \
        set(cut_sets_for_cycle(cycle, NET, D).sets)


def test_two_node_line_round_trip():
    inst = gen_example("fig2", 10.0)
    # separate 2-node instance: edge of length exactly d
    from frlp import Demand, Edge, build_instance
    line = build_instance(["1", "2"], [Edge(0, 1, 10.0)],
                          [Demand(0, 1, 1.0, alpha=1.0)], 10.0)
    route = make_route(line.network, (0, 1), kind="path")
    family = cut_sets_for_cycle(route, line.network, 10.0)
    assert set(family.sets) == {frozenset({0}), frozenset({1})}
    # brute force over all 4 subsets
    for bits in range(4):
        stations = {j for j in range(2) if bits >> j & 1}
        assert family.hits_all(stations) == \
            is_traversable(route, stations, 10.0)


def test_edge_longer_than_range_rejected():
    from frlp import Demand, Edge, build_instance
    wide = build_instance(["1", "2"], [Edge(0, 1, 8.0)],
                          [Demand(0, 1, 1.0, alpha=1.0)], 8.0)
    route = make_route(wide.network, (0, 1), kind="path")
    with pytest.raises(ConstructionError):
        cut_sets_for_cycle(route, wide.network, 5.0)


def test_empty_member_rejected():
    with pytest.raises(ConstructionError):
        CutSetFamily((frozenset(),), 3)


def test_aggregate_example1():
    r1 = make_route(NET, (0, 1, 3, 4), kind="path")
    r2 = make_route(NET, (0, 1, 2, 3, 4), kind="path")
    d1 = cut_sets_for_cycle(r1, NET, D)
    d2 = cut_sets_for_cycle(r2, NET, D)
    full = aggregate_cut_sets([d1, d2], prune=False)
    assert len(full.sets) == 10
    assert sets_by_name(minimalize(full)) == {
        frozenset("12"), frozenset("234"), frozenset("45")}
    pruned = aggregate_cut_sets([d1, d2])
    assert set(minimalize(pruned).sets) == set(pruned.sets)
    assert set(pruned.sets) == set(minimalize(full).sets)


def test_aggregate_trivial_cases():
    single = fam({0, 1}, {2})
    assert set(aggregate_cut_sets([single]).sets) == set(single.sets)
    a, b = fam({0}), fam({1})
    assert set(aggregate_cut_sets([a, b]).sets) == {frozenset({0, 1})}


def test_aggregate_overflow_guard():
    big = fam(*[{i} for i in range(5)])
    with pytest.raises(AggregationOverflowError):
        aggregate_cut_sets([big, big, big], cap=10)


def test_minimalize_cases():
    chain = fam({0}, {0, 1}, {0, 1, 2})
    assert set(minimalize(chain).sets) == {frozenset({0})}
    already = fam({0, 1}, {1, 2})
    assert set(minimalize(already).sets) == set(already.sets)
    assert minimalize(minimalize(chain)).sets == minimalize(chain).sets


def test_minimalize_preserves_min_row_value():
    rng = random.Random(7)
    r1 = make_route(NET, (0, 1, 3, 4), kind="path")
    r2 = make_route(NET, (0, 1, 2, 3, 4), kind="path")
    full = aggregate_cut_sets([cut_sets_for_cycle(r1, NET, D),
                               cut_sets_for_cycle(r2, NET, D)], prune=False)
    small = minimalize(full)
    for _ in range(200):
        x = [rng.random() for _ in range(5)]
        assert full.min_row_value(x) == pytest.approx(small.min_row_value(x))


def test_minimality_witness_examples():
    family = fam({0, 1}, {1, 2, 3}, {3, 4})
    w = minimality_witness(family, {0, 1})
    assert w == (0, 0, 1, 1, 1)
    assert minimality_witness(fam({0}, n=3), {0}) == (0, 1, 1)
    d1 = fam({0, 1}, {1, 3}, {3, 4})
    w = minimality_witness(d1, {1, 3})
    assert w == (1, 0, 1, 0, 1)
    stations = {j for j, v in enumerate(w) if v}
    assert stations & {0, 1} and stations & {3, 4}
    assert not stations & {1, 3}


def test_minimality_witness_errors():
    family = fam({0}, {0, 1})
    with pytest.raises(WitnessUndefinedError):
        minimality_witness(family, {0, 1})
    with pytest.raises(WitnessUndefinedError):
        minimality_witness(family, {2})


def test_exactness_on_small_pool(small_pool):
    # spot version of the acceptance suite on a few pool entries
    for inst in small_pool[:6]:
        variant = inst.variant_default
        n = inst.num_nodes
        for q in inst.demands:
            routes = enumerate_routes(inst, q, variant)
            families = [cut_sets_for_cycle(r, inst.network, inst.travel_range)
                        for r in routes]
            agg = aggregate_cut_sets(families)
            for bits in range(1 << n):
                stations = frozenset(j for j in range(n) if bits >> j & 1)
                verdicts = [is_traversable(r, stations, inst.travel_range)
                            for r in routes]
                for f, v in zip(families, verdicts):
                    assert f.hits_all(stations) == v
                assert agg.hits_all(stations) == any(verdicts)


def stable(sets):
    return sorted(sets, key=lambda s: (len(s), sorted(s)))


def plain_minimal(sets):
    return {s for s in sets if not any(k < s for k in sets)}


def plain_product(families):
    product = {frozenset()}
    for family in families:
        product = {a | b for a in product for b in family.sets}
    return product


def plain_count(families, prune):
    """The count `cap` bounds: the first frontier, plus |frontier| x
    |distinct members| for every later family."""
    frontier = set(families[0].sets)
    if prune:
        frontier = plain_minimal(frontier)
    count = len(frontier)
    for family in families[1:]:
        members = set(family.sets)
        count += len(frontier) * len(members)
        frontier = {a | b for a in frontier for b in members}
        if prune:
            frontier = plain_minimal(frontier)
    return count


small_families = st.lists(
    st.lists(st.frozensets(st.integers(0, 7), min_size=1), min_size=1,
             max_size=4).map(lambda sets: CutSetFamily(tuple(sets), 8)),
    min_size=1, max_size=5)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(small_families)
def test_aggregate_matches_a_plain_frozenset_product(families):
    product = plain_product(families)
    reference = CutSetFamily(tuple(product), 8)
    pruned = aggregate_cut_sets(families)
    assert pruned.sets == minimalize(reference).sets
    assert list(pruned.sets) == stable(plain_minimal(product))
    assert list(aggregate_cut_sets(families, prune=False).sets) == \
        stable(product)
    for prune in (True, False):
        count = plain_count(families, prune)
        aggregate_cut_sets(families, prune=prune, cap=count)
        if len(families) > 1:
            with pytest.raises(AggregationOverflowError):
                aggregate_cut_sets(families, prune=prune, cap=count - 1)
        else:  # no union is formed, so nothing is counted against cap
            aggregate_cut_sets(families, prune=prune, cap=count - 1)
