import pytest

from frlp import (CYCLIC, ORIGINAL, Demand, Edge, PlacementConstraints,
                  ValidationError, build_instance, brute_force_solve,
                  exhaustive_served, gen_example, gen_random, is_served)
from frlp.oracle import OracleSizeError


def test_fig7_cyclic_min_stations():
    inst = gen_example("fig7", 12.0)
    result = brute_force_solve(inst, CYCLIC, "min_stations")
    assert result.objective == 1
    assert frozenset({2}) in result.optimal_sets
    assert frozenset({3}) in result.optimal_sets


def test_fig7_original_min_stations():
    inst = gen_example("fig7", 12.0)
    result = brute_force_solve(inst, ORIGINAL, "min_stations")
    assert result.objective == 1
    assert frozenset({2}) in result.optimal_sets
    # node 4 is too far off the deviation-limited paths
    assert frozenset({3}) not in result.optimal_sets


def test_no_demand_instance():
    empty = build_instance(["1", "2"], [Edge(0, 1, 1.0)], [], 2.0)
    result = brute_force_solve(empty, ORIGINAL, "min_stations")
    assert result.objective == 0
    assert result.optimal_sets == (frozenset(),)


def test_exhaustive_served_example3():
    inst = gen_example("fig7", 12.0)
    q = inst.demands[0]
    assert not exhaustive_served(inst, q, {3}, ORIGINAL)
    assert exhaustive_served(inst, q, {3}, CYCLIC)
    assert not exhaustive_served(inst, q, set(), CYCLIC)


def test_relabeling_invariance():
    inst = gen_random(9, num_nodes=6, density=0.4, num_demands=2)
    perm = [3, 5, 0, 2, 4, 1]
    names = [None] * 6
    for old, new in enumerate(perm):
        names[new] = inst.network.node_names[old]
    edges = [Edge(perm[e.u], perm[e.v], e.length) for e in inst.network.edges]
    demands = [Demand(perm[q.origin], perm[q.destination], q.volume, q.alpha)
               for q in inst.demands]
    relabeled = build_instance(names, edges, demands, inst.travel_range,
                               variant_default=inst.variant_default)
    for variant in (ORIGINAL, CYCLIC):
        for objective in ("max_cover", "min_stations"):
            a = brute_force_solve(inst, variant, objective, budget=2)
            b = brute_force_solve(relabeled, variant, objective, budget=2)
            assert a.objective == b.objective


def test_size_cap():
    inst = gen_random(2, num_nodes=21, density=0.15, num_demands=1)
    with pytest.raises(OracleSizeError):
        brute_force_solve(inst, CYCLIC, "max_cover", budget=1)


def test_coverage_out_of_range_is_rejected():
    inst = gen_example("fig7", 12.0)
    for coverage in (1.5, 0.0, -1.0):
        with pytest.raises(ValueError, match=r"coverage must lie in \(0, 1\]"):
            brute_force_solve(inst, CYCLIC, "min_stations", coverage=coverage)


def test_budget_rule_is_applied():
    inst = gen_example("fig7", 12.0)
    with pytest.raises(ValidationError, match="budget must be nonnegative"):
        brute_force_solve(inst, CYCLIC, "max_cover", budget=-1)
    forced = build_instance(
        inst.network.node_names, inst.network.edges, inst.demands,
        inst.travel_range, PlacementConstraints(forced_open=frozenset({2})),
        CYCLIC)
    with pytest.raises(ValidationError, match="forced_open exceeds the budget"):
        brute_force_solve(forced, CYCLIC, "max_cover", budget=0)
    assert brute_force_solve(forced, CYCLIC, "max_cover", budget=1).objective == 1


def test_optimal_sets_attain_objective():
    inst = gen_random(13, num_nodes=7, density=0.35, num_demands=3)
    for variant in (ORIGINAL, CYCLIC):
        result = brute_force_solve(inst, variant, "max_cover", budget=2)
        for stations in result.optimal_sets:
            value = sum(q.volume for q in inst.demands
                        if exhaustive_served(inst, q, stations, variant))
            assert value == pytest.approx(result.objective)
            # agreement with the feasibility module's served map
            served = result.served_by_set[stations]
            for q, flag in zip(inst.demands, served):
                assert flag == is_served(inst, q, stations, variant)
