import random
from dataclasses import replace

import pytest

from frlp import (CYCLIC, ORIGINAL, PlacementConstraints, SolveRequest,
                  UnservableError, brute_force_solve, build_instance,
                  corridor, gen_example, gen_random, is_served, reevaluate,
                  separate, shrink_cut, solve)
from frlp import solver as solver_module
from frlp.solver import MAX_COVER, MIN_STATIONS


def fig7():
    return gen_example("fig7", 12.0)


def test_separate_no_cut_when_served():
    inst = fig7()
    assert separate(inst, CYCLIC, [0, 0, 1, 0], [1]) == []


def test_separate_emits_valid_minimal_cut():
    inst = fig7()
    cuts = separate(inst, ORIGINAL, [0, 0, 0, 1], [1])
    assert len(cuts) == 1
    qi, cut = cuts[0]
    assert qi == 0
    assert cut <= {0, 1, 2}
    # violated by the candidate: candidate opens none of the cut nodes
    assert all(j not in cut or j != 3 for j in cut)
    # valid: every station set serving the demand hits the cut
    for bits in range(16):
        stations = frozenset(j for j in range(4) if bits >> j & 1)
        if is_served(inst, inst.demands[0], stations, ORIGINAL):
            assert stations & cut


def test_separate_skips_unclaimed_demands():
    inst = fig7()
    assert separate(inst, ORIGINAL, [0, 0, 0, 0], [0]) == []


def test_solve_fig7_min_stations():
    inst = fig7()
    for variant in (ORIGINAL, CYCLIC):
        solution = solve(SolveRequest(inst, variant, MIN_STATIONS))
        assert solution.objective == 1
        assert solution.optimal
        assert len(solution.stations) == 1
        assert all(solution.served)


def test_solve_max_cover_with_full_budget():
    inst = gen_random(31, num_nodes=7, density=0.35, num_demands=3)
    for variant in (ORIGINAL, CYCLIC):
        solution = solve(SolveRequest(inst, variant, MAX_COVER,
                                      budget=inst.num_nodes))
        servable = sum(
            q.volume for q in inst.demands
            if is_served(inst, q, frozenset(range(inst.num_nodes)), variant))
        assert solution.objective == pytest.approx(servable)


def test_reevaluate_goldens():
    inst = fig7()
    assert reevaluate(inst, {3}, ORIGINAL) == 0.0
    assert reevaluate(inst, {3}, CYCLIC) == pytest.approx(1.0)
    assert reevaluate(inst, set(), CYCLIC) == 0.0
    assert reevaluate(inst, {0, 1, 2, 3}, CYCLIC) == pytest.approx(1.0)


def test_reevaluate_cyclic_dominates_original():
    for seed in range(6):
        inst = gen_random(seed + 60, num_nodes=7, density=0.3, num_demands=3)
        for bits in (0b0000001, 0b0010010, 0b1000100):
            stations = {j for j in range(7) if bits >> j & 1}
            assert reevaluate(inst, stations, CYCLIC) >= \
                reevaluate(inst, stations, ORIGINAL)


def test_solution_invariants_and_stats():
    inst = gen_random(71, num_nodes=8, density=0.3, num_demands=4)
    solution = solve(SolveRequest(inst, CYCLIC, MAX_COVER, budget=2))
    assert len(solution.stations) <= 2
    for q, flag in zip(inst.demands, solution.served):
        assert flag == is_served(inst, q, solution.stations, CYCLIC)
    assert solution.objective == pytest.approx(
        sum(q.volume for q, s in zip(inst.demands, solution.served) if s))
    assert solution.bound >= solution.objective - 1e-9
    stats = solution.stats
    assert 0 <= stats.separation_time <= stats.total_time
    assert stats.bb_nodes >= 1 and stats.cuts >= 0


def test_determinism():
    inst = gen_random(5, num_nodes=8, density=0.3, num_demands=4)
    a = solve(SolveRequest(inst, CYCLIC, MAX_COVER, budget=2))
    b = solve(SolveRequest(inst, CYCLIC, MAX_COVER, budget=2))
    assert a.stations == b.stations
    assert a.objective == b.objective
    assert a.stats.bb_nodes == b.stats.bb_nodes
    assert a.stats.cuts == b.stats.cuts


def test_node_relaxations_come_from_covering_lp(monkeypatch):
    from frlp.lp import LE, covering_lp
    solved = []
    solve_lp = solver_module.solve_lp

    def recording_solve_lp(lp, start=None):
        solved.append(lp)
        return solve_lp(lp, start)

    monkeypatch.setattr(solver_module, "solve_lp", recording_solve_lp)
    inst = gen_random(5, num_nodes=8, density=0.3, num_demands=4)
    solution = solve(SolveRequest(inst, CYCLIC, MAX_COVER, budget=2))
    assert solution.stats.cuts > 0
    assert solved[0] == covering_lp(inst, MAX_COVER, [], budget=2)
    for lp in solved:  # the budget row stays first as cut rows are added
        assert lp.rows[0] == ([(j, 1.0) for j in range(8)], LE, 2.0)
    assert len(solved[-1].rows) == 1 + solution.stats.cuts


def test_solve_rejects_coverage_out_of_range():
    with pytest.raises(ValueError, match="coverage"):
        solve(SolveRequest(fig7(), CYCLIC, MIN_STATIONS, coverage=1.5))


def test_min_stations_unservable_names_demand():
    inst = gen_example("fig2", 10.0)
    # shrink the range so the explicit routes have an over-long gap
    from dataclasses import replace
    tight = replace(inst, travel_range=4.0,
                    network=inst.network)  # edges (5.0) exceed the range
    with pytest.raises(UnservableError, match="1->5"):
        solve(SolveRequest(tight, ORIGINAL, MIN_STATIONS))


def test_partial_coverage():
    inst = gen_random(101, num_nodes=8, density=0.3, num_demands=4)
    full = solve(SolveRequest(inst, CYCLIC, MIN_STATIONS, coverage=1.0))
    half = solve(SolveRequest(inst, CYCLIC, MIN_STATIONS, coverage=0.5))
    assert half.objective <= full.objective
    covered = sum(q.volume for q, s in zip(inst.demands, half.served) if s)
    assert covered >= 0.5 * sum(q.volume for q in inst.demands) - 1e-9


def test_small_oracle_agreement():
    for seed in range(8):
        inst = gen_random(seed + 200, num_nodes=6, density=0.4, num_demands=3)
        for variant in (ORIGINAL, CYCLIC):
            for budget in (1, 2):
                got = solve(SolveRequest(inst, variant, MAX_COVER,
                                         budget=budget))
                want = brute_force_solve(inst, variant, "max_cover",
                                         budget=budget)
                assert got.objective == pytest.approx(want.objective)


def full_shrink_separate(instance, variant, x, y):
    """Reference separation: shrink over every closed node of the network."""
    n = instance.num_nodes
    cuts = []
    for qi, demand in enumerate(instance.demands):
        if y[qi] < 0.5:
            continue
        closed = [j for j in range(n) if x[j] < 0.5]
        open_set = frozenset(j for j in range(n) if x[j] >= 0.5)
        if is_served(instance, demand, open_set, variant):
            continue
        kept = set(closed)
        for j in sorted(closed):
            if not is_served(instance, demand,
                             frozenset(range(n)) - (kept - {j}), variant):
                kept.discard(j)
        cuts.append((qi, frozenset(kept)))
    return cuts


def loop_shrink(instance, q, stations, closed, variant):
    """The drop-one pass as one `is_served` verdict per closed node."""
    base, kept = set(stations), []
    for j in closed:
        if is_served(instance, q, base | {j}, variant):
            kept.append(j)
        else:
            base.add(j)
    return frozenset(kept)


def test_shrink_cut_is_the_loop_over_verdicts():
    # 16-node networks at their range and a shorter one, where the refueling
    # routes through a dropped node take several hops: after each drop, the
    # base's closure (cyclic) and cost maps (original) must take in the
    # routes through it. Under the original variant, a closed origin or
    # destination also comes first and last, as one more hub insertion
    # before and after the others. Every closed node, the corridor's and the
    # others, is one more input: opening a node outside the corridor never
    # serves the demand, so the pass drops it
    for seed in range(80):
        rng = random.Random(seed)
        inst = gen_random(seed, 16, density=0.2, num_demands=4,
                          variant=ORIGINAL)
        for variant in (ORIGINAL, CYCLIC):
            for scale in (0.6, 1.0):
                instance = replace(inst,
                                   travel_range=scale * inst.travel_range)
                for _ in range(4):
                    x = [rng.random() < 0.3 for _ in range(16)]
                    for q in instance.demands:
                        zone = corridor(instance, q, variant)
                        stations = frozenset(j for j in zone if x[j])
                        if is_served(instance, q, stations, variant):
                            continue
                        closed = sorted(zone - stations)
                        orders = [closed]
                        if variant == ORIGINAL:
                            ends = [j for j in (q.origin, q.destination)
                                    if j in closed]
                            rest = [j for j in closed if j not in ends]
                            orders += [ends + rest, rest + ends,
                                       ends[::-1] + rest, rest + ends[::-1]]
                        orders.append(sorted(set(range(16)) - stations))
                        for order in orders:
                            assert shrink_cut(instance, q, stations, order,
                                              variant) == \
                                loop_shrink(instance, q, stations, order,
                                            variant), \
                                (seed, variant, scale, q, sorted(stations),
                                 order)


def test_corridor_separation_matches_full_shrink(small_pool):
    rng = random.Random(7)
    for inst in small_pool:
        n, nq = inst.num_nodes, len(inst.demands)
        for variant in (ORIGINAL, CYCLIC):
            for _ in range(6):
                x = [int(rng.random() < 0.3) for _ in range(n)]
                y = [int(rng.random() < 0.8) for _ in range(nq)]
                assert separate(inst, variant, x, y) == \
                    full_shrink_separate(inst, variant, x, y), (x, y, variant)


def test_servedness_counters(monkeypatch):
    checks = []

    def counting_is_served(*args):
        checks.append(args)
        return is_served(*args)

    monkeypatch.setattr(solver_module, "is_served", counting_is_served)
    inst = gen_random(71, num_nodes=8, density=0.3, num_demands=4)
    for variant in (ORIGINAL, CYCLIC):
        for request in (SolveRequest(inst, variant, MAX_COVER, budget=2),
                        SolveRequest(inst, variant, MIN_STATIONS)):
            checks.clear()
            stats = solve(request).stats
            assert 0 < stats.served_memo_hits < stats.served_calls
            assert 0 < stats.shrink_checks < stats.served_calls
            # shrink verdicts are answered inside the checks, not by is_served
            assert stats.served_calls - stats.served_memo_hits - \
                stats.shrink_checks == len(checks)
            assert len(set(checks)) == len(checks)  # no check is repeated


def test_lp_counters(monkeypatch):
    solved = []
    solve_lp = solver_module.solve_lp

    def recording_solve_lp(lp, start=None):
        solution = solve_lp(lp, start)
        solved.append((solution.iterations, solution.cold_start))
        return solution

    monkeypatch.setattr(solver_module, "solve_lp", recording_solve_lp)
    inst = gen_random(5, num_nodes=8, density=0.3, num_demands=4)
    request = SolveRequest(inst, ORIGINAL, MAX_COVER, budget=2)
    stats = solve(request).stats
    assert stats.lp_solves > 1 and stats.lp_iterations > 0
    assert stats.lp_solves == len(solved)
    assert stats.lp_iterations == sum(it for it, _ in solved)
    # only the root LP starts from the logical basis
    assert stats.lp_cold_starts == sum(cold for _, cold in solved) == 1
    assert solved[0][1]
    again = solve(request).stats
    assert (again.lp_solves, again.lp_iterations, again.lp_cold_starts) == \
        (stats.lp_solves, stats.lp_iterations, stats.lp_cold_starts)


def with_placement(instance, placement):
    return build_instance(instance.network.node_names, instance.network.edges,
                          instance.demands, instance.travel_range, placement,
                          instance.variant_default)


LIMITED_INSTANCES = {
    "fig7": fig7,
    "random-forced": lambda: with_placement(
        gen_random(101, num_nodes=8, density=0.3, num_demands=4),
        PlacementConstraints(forced_open=frozenset({4}),
                             forced_closed=frozenset({5}))),
}


@pytest.mark.parametrize("limit", [{"node_limit": 0}, {"time_limit": 0.0}],
                         ids=["node_limit", "time_limit"])
@pytest.mark.parametrize("objective", [MAX_COVER, MIN_STATIONS])
@pytest.mark.parametrize("variant", [ORIGINAL, CYCLIC])
@pytest.mark.parametrize("name", sorted(LIMITED_INSTANCES))
def test_limited_solve_returns_the_fallback(name, variant, objective, limit):
    inst = LIMITED_INSTANCES[name]()
    budget = 2 if objective == MAX_COVER else None
    solution = solve(SolveRequest(inst, variant, objective, budget=budget,
                                  **limit))
    assert not solution.optimal
    assert solution.served == tuple(is_served(inst, q, solution.stations, variant)
                                    for q in inst.demands)
    assert solution.stations >= inst.placement.forced_open
    assert not solution.stations & inst.placement.forced_closed
    assert isinstance(solution.objective, float)
    # no node was solved: the bound is the one known before any LP
    if objective == MAX_COVER:
        assert len(solution.stations) <= budget
        assert solution.objective == reevaluate(inst, solution.stations, variant)
        assert solution.bound >= solution.objective
        assert solution.bound == sum(q.volume for q in inst.demands)
    else:
        assert all(solution.served)
        assert solution.objective == len(solution.stations)
        assert solution.bound <= solution.objective
        assert solution.bound == len(inst.placement.forced_open)


def test_limited_max_cover_serves_through_a_forced_open_node():
    inst = with_placement(fig7(), PlacementConstraints(forced_open=frozenset({3})))
    solution = solve(SolveRequest(inst, CYCLIC, MAX_COVER, budget=1,
                                  node_limit=0))
    assert solution.stations == frozenset({3})
    assert solution.served == (True,)
    assert solution.objective == pytest.approx(1.0)
    assert solution.stats.bb_nodes == 0


def test_unattainable_partial_coverage_fails_before_any_lp(monkeypatch):
    solved = []
    solve_lp = solver_module.solve_lp

    def counting_solve_lp(lp, start=None):
        solved.append(lp)
        return solve_lp(lp, start)

    monkeypatch.setattr(solver_module, "solve_lp", counting_solve_lp)
    from dataclasses import replace
    tight = replace(gen_example("fig2", 10.0), travel_range=4.0)
    with pytest.raises(UnservableError, match="1->5"):
        solve(SolveRequest(tight, ORIGINAL, MIN_STATIONS, coverage=0.5))
    assert solved == []
