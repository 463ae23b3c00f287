"""End-to-end acceptance suite.

One test per acceptance criterion; each checks its stated tolerances and wall
clock budget. Run with ``pytest -v`` to get one pass/fail line per criterion.
"""

import itertools
import math
import random
import time
from dataclasses import replace

import pytest

from frlp import (CYCLIC, DISAGG, MIN_STATIONS, ORIGINAL, AGG, CycleQuery,
                  Demand, Edge, SolveRequest, UnservableError,
                  aggregate_cut_sets, brute_force_solve, build_instance,
                  build_model, cut_sets_for_cycle,
                  enumerate_routes, eval_v_agg, eval_v_disagg, eval_v_tight,
                  gen_example, gen_prop5a, gen_prop5b, gen_random,
                  is_served, is_traversable, lp_bound, make_route,
                  minimality_witness, minimalize, prepare_route_data,
                  reevaluate, route_budget, search_cycle, solve)
from frlp.lp import MAX_COVER, served_vector
from frlp.solver import MAX_COVER as SOLVER_MAX_COVER


class Budget:
    """Context manager asserting a wall-clock limit for a criterion."""

    def __init__(self, seconds):
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        if exc[0] is None:
            elapsed = time.perf_counter() - self.start
            assert elapsed < self.seconds, \
                f"criterion exceeded its {self.seconds}s budget ({elapsed:.1f}s)"
        return False


def named(net, family):
    return {frozenset(int(net.name(j)) for j in s) for s in family.sets}


def test_criterion_01_cut_set_goldens():
    with Budget(1.0):
        inst = gen_example("fig2", 10.0)
        net = inst.network
        r1 = make_route(net, (0, 1, 3, 4), kind="path")
        r2 = make_route(net, (0, 1, 2, 3, 4), kind="path")
        d1 = cut_sets_for_cycle(r1, net, 10.0)
        d2 = cut_sets_for_cycle(r2, net, 10.0)
        assert named(net, d1) == {frozenset({1, 2}), frozenset({2, 4}),
                                  frozenset({4, 5})}
        assert named(net, d2) == {frozenset({1, 2}), frozenset({2, 3}),
                                  frozenset({3, 4}), frozenset({4, 5})}
        full = aggregate_cut_sets([d1, d2], prune=False)
        expected_full = {frozenset(s) for s in [
            {1, 2}, {4, 5}, {1, 2, 3}, {1, 2, 4}, {2, 3, 4}, {2, 4, 5},
            {3, 4, 5}, {1, 2, 3, 4}, {1, 2, 4, 5}, {2, 3, 4, 5}]}
        assert named(net, full) == expected_full
        assert len(full.sets) == 10
        assert named(net, minimalize(full)) == {
            frozenset({1, 2}), frozenset({2, 3, 4}), frozenset({4, 5})}


def test_criterion_02_route_enumeration_goldens():
    with Budget(1.0):
        d = 12.0
        inst = gen_example("fig7", d)
        q = inst.demands[0]
        paths = enumerate_routes(inst, q, ORIGINAL)
        assert [(r.visits, r.length) for r in paths] == [
            ((0, 1), pytest.approx(d / 3)),
            ((0, 2, 1), pytest.approx(d / 2))]
        cycles = enumerate_routes(inst, q, CYCLIC)
        assert sorted((r.visits, r.length) for r in cycles) == sorted([
            ((0, 1, 0), pytest.approx(2 * d / 3)),
            ((0, 2, 1, 2, 0), pytest.approx(d)),
            ((0, 1, 2, 0), pytest.approx(5 * d / 6)),
            ((0, 1, 3, 0), pytest.approx(d))])


def test_criterion_03_behavioral_split():
    with Budget(1.0):
        inst = gen_example("fig7", 12.0)
        q = inst.demands[0]
        assert not is_served(inst, q, {3}, ORIGINAL)
        assert is_served(inst, q, {3}, CYCLIC)
        tau = route_budget(inst, q, CYCLIC)
        witness = search_cycle(
            CycleQuery(inst, q, frozenset({3}), tau)).witness
        assert witness.visits == (0, 1, 3, 0)


def test_criterion_04_trace_replay():
    with Budget(1.0):
        d = 3.0
        inst = gen_example("fig8", d)
        query = CycleQuery(inst, inst.demands[0], frozenset({2}), d,
                           dominance=False)
        result = search_cycle(query)
        expected = [(0, 0, 0.0, 0.0, math.inf),
                    (0, 1, d / 3, d / 3, math.inf),
                    (0, 1, 2 * d / 3, 2 * d / 3, math.inf),
                    (1, 1, 2 * d / 3, 0.0, 2 * d / 3),
                    (1, 1, d, d / 3, 2 * d / 3)]
        assert [lab.tuple5() for lab in result.selected] == expected
        # the last selected label closes the cycle at the sink, the sixth
        # and final state of the replay
        assert result.selected[-1].tuple5() == (1, 1, d, d / 3, 2 * d / 3)
        assert result.witness is not None
        assert len(result.selected) + 1 == 6


def test_criterion_05_relaxation_gap_explicit_routes():
    with Budget(10.0):
        for n in (3, 5, 9):
            inst = gen_prop5a(n)
            f1 = inst.demands[0].volume
            route_data = prepare_route_data(inst, ORIGINAL)
            families = [dr.aggregated for dr in route_data]
            disagg = lp_bound(build_model(inst, DISAGG, route_data=route_data))
            agg = lp_bound(build_model(inst, AGG, families=families))
            assert disagg >= f1 - 1e-6
            assert agg <= 2 * f1 / (n + 1) + 1e-6
            assert disagg / agg >= (n + 1) / 2 - 1e-4


def test_criterion_06_value_function_gap_large():
    with Budget(600.0):
        n = 7
        inst, family = gen_prop5b(n)
        f1 = inst.demands[0].volume
        num = inst.num_nodes  # 2n + 4 = 18
        x_prime = [1.0 / n] * num
        for j in (0, 1, num - 2, num - 1):
            x_prime[j] = 1.0
        agg_value = eval_v_agg(inst, [family], x_prime)
        assert abs(agg_value - f1) <= 1e-12
        served = [served_vector(family, num)]
        rng = random.Random(6)
        for _ in range(20):
            x = [rng.random() for _ in range(num)]
            scale = min(1.0, 6.0 / sum(x))
            x = [v * scale for v in x]
            assert eval_v_tight(inst, x, served=served) <= \
                (6.0 / 7.0) * f1 + 1e-6


def test_criterion_07_value_function_ordering():
    with Budget(300.0):
        rng = random.Random(7)
        pairs = 0
        for seed in range(40):
            inst = gen_random(300 + seed, num_nodes=6 + seed % 7,
                              density=0.35, num_demands=1 + seed % 3,
                              variant=CYCLIC if seed % 2 else ORIGINAL)
            variant = inst.variant_default
            route_data = prepare_route_data(inst, variant)
            families = [dr.aggregated for dr in route_data]
            served = [served_vector(f, inst.num_nodes) for f in families]
            for _ in range(5):
                x = [rng.random() for _ in range(inst.num_nodes)]
                tight = eval_v_tight(inst, x, served=served)
                agg = eval_v_agg(inst, families, x)
                disagg = eval_v_disagg(inst, route_data, x)
                assert tight <= agg + 1e-7
                assert agg <= disagg + 1e-7
                pairs += 1
        assert pairs == 200

        # equality of agg and disagg when every demand has a single route
        for seed in range(5):
            inst = gen_random(350 + seed, num_nodes=7, density=0.35,
                              num_demands=2)
            variant = inst.variant_default
            singletons = []
            for q in inst.demands:
                route = enumerate_routes(inst, q, variant)[0]
                singletons.append(replace(q, routes=(route.visits,)))
            single = replace(inst, demands=tuple(singletons))
            route_data = prepare_route_data(single, variant)
            families = [dr.aggregated for dr in route_data]
            for _ in range(10):
                x = [rng.random() for _ in range(single.num_nodes)]
                assert eval_v_agg(single, families, x) == pytest.approx(
                    eval_v_disagg(single, route_data, x), abs=1e-9)

        # equality of tight and agg on single-simple-path instances
        lengths = (3.0, 4.0, 6.0)
        for seed in range(5):
            lrng = random.Random(370 + seed)
            m = 4 + seed % 3
            edges = [Edge(j, j + 1, lrng.choice(lengths)) for j in range(m)]
            inst = build_instance([str(j + 1) for j in range(m + 1)], edges,
                                  [Demand(0, m, 1.0, alpha=1.0)], 12.0,
                                  variant_default=ORIGINAL)
            route_data = prepare_route_data(inst, ORIGINAL)
            families = [dr.aggregated for dr in route_data]
            served = [served_vector(f, inst.num_nodes) for f in families]
            for _ in range(10):
                x = [lrng.random() for _ in range(inst.num_nodes)]
                assert eval_v_tight(inst, x, served=served) == pytest.approx(
                    eval_v_agg(inst, families, x), abs=1e-7)


def test_criterion_08_cut_set_exactness(small_pool):
    with Budget(300.0):
        for inst in small_pool:
            variant = inst.variant_default
            n = inst.num_nodes
            for q in inst.demands:
                routes = enumerate_routes(inst, q, variant)
                families = [cut_sets_for_cycle(r, inst.network,
                                               inst.travel_range)
                            for r in routes]
                agg = aggregate_cut_sets(families)
                for bits in range(1 << n):
                    stations = frozenset(j for j in range(n) if bits >> j & 1)
                    verdicts = [is_traversable(r, stations, inst.travel_range)
                                for r in routes]
                    for family, verdict in zip(families, verdicts):
                        assert family.hits_all(stations) == verdict
                    assert agg.hits_all(stations) == any(verdicts)


def test_criterion_09_solver_vs_oracle():
    with Budget(900.0):
        for seed in range(100):
            inst = gen_random(400 + seed, num_nodes=6 + seed % 7,
                              density=0.3, num_demands=2 + seed % 5)
            for variant in (ORIGINAL, CYCLIC):
                for budget in (1, 2, 3, 4):
                    got = solve(SolveRequest(inst, variant, SOLVER_MAX_COVER,
                                             budget=budget))
                    want = brute_force_solve(inst, variant, "max_cover",
                                             budget=budget)
                    assert got.objective == pytest.approx(want.objective), \
                        (seed, variant, budget)
                want = brute_force_solve(inst, variant, "min_stations")
                try:
                    got_obj = solve(SolveRequest(inst, variant,
                                                 MIN_STATIONS)).objective
                except UnservableError:
                    got_obj = math.inf
                assert got_obj == want.objective, (seed, variant)


def test_criterion_10_dominance_soundness(small_pool):
    with Budget(300.0):
        for inst in small_pool:
            n = inst.num_nodes
            for q in inst.demands:
                tau = route_budget(inst, q, CYCLIC)
                for bits in range(1 << n):
                    stations = frozenset(j for j in range(n) if bits >> j & 1)
                    fast = search_cycle(
                        CycleQuery(inst, q, stations, tau)).witness is not None
                    slow = search_cycle(
                        CycleQuery(inst, q, stations, tau,
                                   dominance=False)).witness is not None
                    assert fast == slow, (q, sorted(stations))


def test_criterion_11_cyclic_dominates_original():
    with Budget(600.0):
        alphas = (1.0, 1.2, 1.5)
        for seed in range(12):
            base = gen_random(600 + seed, num_nodes=6 + seed % 4,
                              density=0.35, num_demands=2 + seed % 2)
            cover_obj = {ORIGINAL: [], CYCLIC: []}
            station_obj = {ORIGINAL: [], CYCLIC: []}
            for alpha in alphas:
                inst = replace(base, demands=tuple(
                    replace(q, alpha=alpha) for q in base.demands))
                orig = solve(SolveRequest(inst, ORIGINAL, SOLVER_MAX_COVER,
                                          budget=2))
                cyc = solve(SolveRequest(inst, CYCLIC, SOLVER_MAX_COVER,
                                         budget=2))
                assert reevaluate(inst, orig.stations, CYCLIC) >= \
                    orig.objective - 1e-9
                assert cyc.objective >= orig.objective - 1e-9
                cover_obj[ORIGINAL].append(orig.objective)
                cover_obj[CYCLIC].append(cyc.objective)
                for variant in (ORIGINAL, CYCLIC):
                    try:
                        value = solve(SolveRequest(inst, variant,
                                                   MIN_STATIONS)).objective
                    except UnservableError:
                        value = math.inf
                    station_obj[variant].append(value)
                assert station_obj[CYCLIC][-1] <= station_obj[ORIGINAL][-1]
            for variant in (ORIGINAL, CYCLIC):
                covers = cover_obj[variant]
                assert all(a <= b + 1e-9 for a, b in zip(covers, covers[1:]))
                stations = station_obj[variant]
                assert all(a >= b for a, b in zip(stations, stations[1:]))


def test_criterion_12_minimalization_preserves_relaxation(small_pool):
    with Budget(60.0):
        rng = random.Random(12)
        fig2 = gen_example("fig2", 10.0)
        net = fig2.network
        d1 = cut_sets_for_cycle(make_route(net, (0, 1, 3, 4), kind="path"),
                               net, 10.0)
        d2 = cut_sets_for_cycle(make_route(net, (0, 1, 2, 3, 4), kind="path"),
                               net, 10.0)
        families = [aggregate_cut_sets([d1, d2], prune=False)]
        for inst in small_pool[:9]:
            variant = inst.variant_default
            q = inst.demands[0]
            per_route = [cut_sets_for_cycle(r, inst.network,
                                            inst.travel_range)
                         for r in enumerate_routes(inst, q, variant)]
            families.append(aggregate_cut_sets(per_route, prune=False,
                                               cap=10 ** 5))
        checked = 0
        for family in itertools.cycle(families):
            if checked >= 1000:
                break
            minimal = minimalize(family)
            weights = [rng.random() for _ in range(family.num_nodes)]
            assert family.min_row_value(weights) == \
                minimal.min_row_value(weights)
            checked += 1
        # every minimal member admits a valid minimality witness
        for family in families:
            minimal = minimalize(family)
            for member in minimal.sets:
                w = minimality_witness(minimal, member)
                stations = {j for j, v in enumerate(w) if v}
                assert not stations & member
                assert all(stations & other for other in minimal.sets
                           if other != member)
