import math
import random

import numpy as np
import pytest

from frlp import (AGG, CYCLIC, DISAGG, ORIGINAL, Demand, Edge, LinearProgram,
                  PlacementConstraints, ValidationError, build_instance, build_model,
                  covering_lp, eval_v_agg, eval_v_disagg, eval_v_tight,
                  gen_example, gen_prop5a, gen_random, lp_bound,
                  prepare_route_data, solve_lp)
from frlp import lp as lp_module
from frlp import solver as solver_module
from frlp.covering import CutSetFamily
from frlp.lp import (EQ, GE, LE, MAX, MAX_COVER, MIN, MIN_STATIONS,
                     PIVOT_TOL, DimensionCapError, LpSolution, NumericalError,
                     served_vector)
from frlp.solver import SolveRequest, solve


def line_instance(volume=1.0):
    return build_instance(["1", "2"], [Edge(0, 1, 5.0)],
                          [Demand(0, 1, volume, alpha=1.0)], 5.0)


def test_trivial_lp():
    lp = LinearProgram(MAX, [1.0], bounds=[(0.0, 1.0)])
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    assert sol.value == pytest.approx(1.0)


def test_single_row_lp():
    # max f*y with x fixed at (0.5, 0.5) and the row x1 + x2 >= y
    lp = LinearProgram(MAX, [0.0, 0.0, 3.0],
                       bounds=[(0.5, 0.5), (0.5, 0.5), (0.0, 1.0)])
    lp.add_row([(0, 1.0), (1, 1.0), (2, -1.0)], GE, 0.0)
    sol = solve_lp(lp)
    assert sol.value == pytest.approx(3.0)


def test_example2_budgeted_relaxation():
    fig2 = gen_example("fig2", 10.0)
    families = [d.aggregated for d in prepare_route_data(fig2, ORIGINAL)]
    model = build_model(fig2, AGG, families=families, budget=1)
    assert lp_bound(model) == pytest.approx(0.5)


def test_infeasible_and_unbounded():
    lp = LinearProgram(MIN, [1.0], bounds=[(0.0, 1.0)])
    lp.add_row([(0, 1.0)], GE, 2.0)
    assert solve_lp(lp).status == "infeasible"
    lp = LinearProgram(MAX, [1.0], bounds=[(0.0, math.inf)])
    assert solve_lp(lp).status == "unbounded"
    # no rows, bounded below: each variable sits at its lower bound
    lp = LinearProgram(MIN, [1.0, 0.0], bounds=[(2.0, math.inf), (-1.0, math.inf)])
    sol = solve_lp(lp)
    assert sol.status == "optimal" and sol.value == 2.0
    assert sol.primal == (2.0, -1.0) and sol.duals == ()
    assert all(type(v) is float for v in sol.primal)


def test_equality_rows_and_duals():
    lp = LinearProgram(MIN, [1.0, 2.0], bounds=[(0.0, 10.0), (0.0, 10.0)])
    lp.add_row([(0, 1.0), (1, 1.0)], EQ, 4.0)
    sol = solve_lp(lp)
    assert sol.value == pytest.approx(4.0)
    assert sol.primal == pytest.approx((4.0, 0.0))
    assert sol.duals[0] == pytest.approx(1.0)


def random_lps(seed=2, count=30):
    """Tiny random LPs: max c'x over the unit cube and two <= rows."""
    rng = random.Random(seed)
    for _ in range(count):
        n = 3
        c = [rng.uniform(-2, 2) for _ in range(n)]
        lp = LinearProgram(MAX, list(c), bounds=[(0.0, 1.0)] * n)
        rows = []
        for _ in range(2):
            coeffs = [(j, rng.uniform(0.1, 1.0)) for j in range(n)]
            rhs = rng.uniform(0.5, 2.0)
            lp.add_row(coeffs, LE, rhs)
            rows.append((coeffs, rhs))
        yield lp, rows


def test_random_lps_match_reference():
    # cross-check against a naive vertex enumeration on tiny random LPs
    for lp, rows in random_lps():
        n = lp.num_vars
        sol = solve_lp(lp)
        assert sol.status == "optimal"
        # reference: dense grid of cube vertices + clipped scaling
        best = -math.inf
        for bits in range(1 << n):
            x = [float(bits >> j & 1) for j in range(n)]
            scale = 1.0
            for coeffs, rhs in rows:
                lhs = sum(w * x[j] for j, w in coeffs)
                if lhs > rhs:
                    scale = min(scale, rhs / lhs)
            x = [v * scale for v in x]
            best = max(best, sum(ci * xi for ci, xi in zip(lp.objective, x)))
        assert sol.value >= best - 1e-7


class RowLoopSimplex(lp_module._Simplex):
    """Reference kernel: the basis inverse updated row by row in Python."""

    def _pivot(self, entering, leaving_pos, d=None):
        d = self.B_inv @ self.A[:, entering]
        pivot = d[leaving_pos]
        if abs(pivot) < PIVOT_TOL:
            self._refactor()
            d = self.B_inv @ self.A[:, entering]
            pivot = d[leaving_pos]
            if abs(pivot) < PIVOT_TOL:
                raise NumericalError("degenerate pivot element")
        self.basis[leaving_pos] = entering
        self.pivots += 1
        self.B_inv[leaving_pos] /= pivot
        for i in range(self.m):
            if i != leaving_pos and abs(d[i]) > 0:
                self.B_inv[i] -= d[i] * self.B_inv[leaving_pos]


def solve_with_kernel(kernel, lp, monkeypatch):
    """solve_lp on `kernel`; returns its (entering, leaving) pivots and the
    solution."""
    pivots = []

    class Recording(kernel):
        def _pivot(self, entering, leaving_pos, d=None):
            pivots.append((entering, self.basis[leaving_pos]))
            super()._pivot(entering, leaving_pos, d)

    monkeypatch.setattr(lp_module, "_Simplex", Recording)
    return pivots, solve_lp(lp)


def pinned_request():
    inst = gen_random(3, num_nodes=14, density=0.25, num_demands=14,
                      variant=ORIGINAL)
    return SolveRequest(inst, ORIGINAL, MAX_COVER, budget=3)


def test_rank1_update_is_pivot_identical_to_row_loop(monkeypatch):
    kernel = lp_module._Simplex  # before solve_with_kernel patches it
    relaxations = []
    solve_lp_of_solver = solver_module.solve_lp

    def recording_solve_lp(lp):
        relaxations.append(lp)
        return solve_lp_of_solver(lp)

    monkeypatch.setattr(solver_module, "solve_lp", recording_solve_lp)
    solve(pinned_request())
    assert len(relaxations) > 10
    phase1 = 0
    for lp in [lp for lp, _ in random_lps()] + relaxations:
        pivots, solution = solve_with_kernel(kernel, lp, monkeypatch)
        ref_pivots, ref_solution = solve_with_kernel(RowLoopSimplex, lp,
                                                     monkeypatch)
        assert pivots == ref_pivots
        # dataclass equality compares primals and duals entry by entry
        assert solution == ref_solution
        assert solution.iterations == len(pivots)
        phase1 += any(rel != LE for _, rel, _ in lp.rows)
    assert phase1 > 0  # some relaxations start from artificials


def test_original_solve_is_pinned():
    # bb_nodes, cuts and stations measured with the row-by-row kernel; LP
    # solves and pivots with the rank-1 kernel, so that a change of the
    # start basis or of the pivot rule fails here too
    solution = solve(pinned_request())
    assert solution.stats.bb_nodes == 23
    assert solution.stats.cuts == 27
    assert solution.stats.lp_solves == 28
    assert solution.stats.lp_iterations == 992
    assert solution.stations == frozenset({3, 4, 10})
    assert solution.objective == 31.0


def test_build_model_example1_disagg_rows():
    fig2 = gen_example("fig2", 10.0)
    route_data = prepare_route_data(fig2, ORIGINAL)
    model = build_model(fig2, DISAGG, route_data=route_data)
    assert len(model.lp.rows) == 8  # 3 + 4 covering rows + one route-choice row
    # the five station columns, then one route-use column per route
    routes = sum(len(d.routes) for d in route_data)
    assert routes == 2
    assert model.lp.objective == [0.0] * 5 + [fig2.demands[0].volume] * routes
    # route columns have no upper bound: the route-choice row implies z <= 1
    assert model.lp.bounds == [(0.0, 1.0)] * 5 + [(0.0, math.inf)] * routes


def test_build_model_example2_agg_rows():
    from frlp import aggregate_cut_sets, cut_sets_for_cycle, make_route
    fig2 = gen_example("fig2", 10.0)
    net = fig2.network
    d1 = cut_sets_for_cycle(make_route(net, (0, 1, 3, 4), kind="path"), net, 10.0)
    d2 = cut_sets_for_cycle(make_route(net, (0, 1, 2, 3, 4), kind="path"), net, 10.0)
    full = aggregate_cut_sets([d1, d2], prune=False)
    model = build_model(fig2, AGG, families=[full])
    assert len(model.lp.rows) == 10


def test_covering_lp_min_stations_empty():
    empty = build_instance(["1", "2"], [Edge(0, 1, 1.0)], [], 2.0)
    assert solve_lp(covering_lp(empty, MIN_STATIONS, [])).value == pytest.approx(0.0)


def placed_instance():
    # a - b - c with two demands, a budget of 2, `a` forced open, `c` closed
    return build_instance(["a", "b", "c"], [Edge(0, 1, 1.0), Edge(1, 2, 1.0)],
                          [Demand(0, 2, 1.0, alpha=1.0),
                           Demand(2, 0, 3.0, alpha=1.0)], 5.0,
                          PlacementConstraints(budget=2, forced_open=frozenset({0}),
                                               forced_closed=frozenset({2})))


def test_covering_lp_row_order():
    inst = placed_instance()
    pairs = [(1, frozenset({2, 0})), (0, frozenset()), (0, frozenset({1}))]
    cut_rows = [([(0, 1.0), (2, 1.0), (4, -1.0)], GE, 0.0),
                ([(3, 1.0)], LE, 0.0),  # an empty set: y_0 <= 0
                ([(1, 1.0), (3, -1.0)], GE, 0.0)]

    lp = covering_lp(inst, MAX_COVER, pairs)  # the placement budget
    assert lp.sense == MAX and lp.objective == [0.0, 0.0, 0.0, 1.0, 3.0]
    assert lp.rows == [([(0, 1.0), (1, 1.0), (2, 1.0)], LE, 2.0)] + cut_rows
    assert lp.bounds == [(1.0, 1.0), (0.0, 1.0), (0.0, 0.0), (0.0, 1.0), (0.0, 1.0)]
    assert covering_lp(inst, MAX_COVER, pairs, budget=1).rows[0][2] == 1.0

    lp = covering_lp(inst, MIN_STATIONS, pairs, coverage=0.5)
    assert lp.sense == MIN and lp.objective == [1.0, 1.0, 1.0, 0.0, 0.0]
    assert lp.rows == [([(3, 1.0), (4, 3.0)], GE, 2.0)] + cut_rows
    assert lp.bounds[3:] == [(0.0, 1.0), (0.0, 1.0)]

    lp = covering_lp(inst, MIN_STATIONS, pairs)  # full coverage fixes every y
    assert lp.rows == cut_rows
    assert lp.bounds[3:] == [(1.0, 1.0), (1.0, 1.0)]


def test_covering_lp_rejects_bad_objective_and_coverage():
    inst = placed_instance()
    for coverage in (0.0, -0.5, 1.5):
        with pytest.raises(ValueError, match="coverage"):
            covering_lp(inst, MIN_STATIONS, [], coverage=coverage)
    with pytest.raises(ValueError, match="objective"):
        covering_lp(inst, "min_cost", [])


@pytest.mark.parametrize("budget, message", [
    (-1, "budget must be nonnegative"),
    (0, "forced_open exceeds the budget"),  # node a is forced open
])
def test_budget_row_applies_the_budget_rule(budget, message):
    inst = placed_instance()
    route_data = prepare_route_data(inst, ORIGINAL)
    with pytest.raises(ValidationError, match=message):
        covering_lp(inst, MAX_COVER, [], budget=budget)
    with pytest.raises(ValidationError, match=message):
        build_model(inst, DISAGG, route_data=route_data, budget=budget)
    with pytest.raises(ValidationError, match=message):
        build_model(inst, AGG, families=[d.aggregated for d in route_data],
                    budget=budget)
    # The rule is the placement budget's; a budget of 1 leaves room for a.
    assert covering_lp(inst, MAX_COVER, [], budget=1).rows[0][2] == 1.0


def test_build_model_agg_is_the_covering_lp():
    inst = gen_random(3, num_nodes=7, density=0.4, num_demands=3)
    families = [d.aggregated for d in prepare_route_data(inst, ORIGINAL)]
    pairs = [(qi, s) for qi, f in enumerate(families) for s in f.sets]
    model = build_model(inst, AGG, families=families, budget=2)
    assert model.lp == covering_lp(inst, MAX_COVER, pairs, budget=2)
    # min-stations relaxations come from covering_lp alone
    with pytest.raises(ValueError, match="unknown formulation tag"):
        build_model(inst, MIN_STATIONS, families=families)


def test_no_covering_rows_max_cover_gives_total_volume():
    inst = line_instance(volume=4.0)
    n = inst.num_nodes
    empty_family = CutSetFamily((), n)
    model = build_model(inst, AGG, families=[empty_family])
    assert lp_bound(model) == pytest.approx(4.0)


def test_relaxing_route_choice_integrality_is_lossless():
    # route-use and served variables may be relaxed without changing optima
    from frlp.oracle import brute_force_solve
    for seed in range(4):
        inst = gen_random(seed + 40, num_nodes=6, density=0.4, num_demands=2,
                          variant=ORIGINAL)
        route_data = prepare_route_data(inst, ORIGINAL)
        families = [d.aggregated for d in route_data]
        oracle = brute_force_solve(inst, ORIGINAL, "max_cover",
                                   budget=inst.num_nodes)
        # with all stations open both relaxations hit the full optimum
        agg = build_model(inst, AGG, families=families)
        disagg = build_model(inst, DISAGG, route_data=route_data)
        assert lp_bound(agg) == pytest.approx(oracle.objective)
        assert lp_bound(disagg) == pytest.approx(oracle.objective)


def test_eval_v_disagg_examples():
    inst = gen_prop5a(3)
    route_data = prepare_route_data(inst, ORIGINAL)
    n = inst.num_nodes
    x = [1.0 / 3.0] * n
    assert eval_v_disagg(inst, route_data, x) == pytest.approx(1.0)
    assert eval_v_disagg(inst, route_data, [1.0] * n) == pytest.approx(1.0)
    assert eval_v_disagg(inst, route_data, [0.0] * n) == pytest.approx(0.0)


def test_eval_v_agg_examples():
    inst = gen_prop5a(3)
    families = [d.aggregated for d in prepare_route_data(inst, ORIGINAL)]
    n = inst.num_nodes
    assert eval_v_agg(inst, families, [1.0 / 3.0] * n) <= 0.5 + 1e-9
    line = line_instance(volume=2.0)
    line_fams = [d.aggregated for d in prepare_route_data(line, ORIGINAL)]
    assert eval_v_agg(line, line_fams, [0.5, 0.5]) == pytest.approx(1.0)
    assert eval_v_agg(line, line_fams, [1.0, 1.0]) == pytest.approx(2.0)


def test_eval_v_tight_examples():
    line = line_instance(volume=2.0)
    fams = [d.aggregated for d in prepare_route_data(line, ORIGINAL)]
    served = [served_vector(f, line.num_nodes) for f in fams]
    agg = eval_v_agg(line, fams, [0.5, 0.5])
    tight = eval_v_tight(line, [0.5, 0.5], served)
    assert tight == pytest.approx(agg) == pytest.approx(1.0)
    # integral points recover the exact 0/1 servedness payoff
    assert eval_v_tight(line, [1, 1], served) == pytest.approx(2.0)
    assert eval_v_tight(line, [1, 0], served) == pytest.approx(0.0)
    assert eval_v_tight(line, [0, 0], served) == pytest.approx(0.0)


def test_eval_v_tight_dimension_cap():
    inst = gen_random(1, num_nodes=19, density=0.2, num_demands=1)
    with pytest.raises(DimensionCapError):
        eval_v_tight(inst, [0.5] * 19, served=[])


def test_value_functions_concave():
    rng = random.Random(5)
    inst = gen_random(17, num_nodes=6, density=0.4, num_demands=2)
    route_data = prepare_route_data(inst, CYCLIC)
    families = [d.aggregated for d in route_data]
    served = [served_vector(f, inst.num_nodes) for f in families]
    n = inst.num_nodes
    for _ in range(10):
        x = np.array([rng.random() for _ in range(n)])
        y = np.array([rng.random() for _ in range(n)])
        lam = rng.random()
        mid = lam * x + (1 - lam) * y
        for fn in (
                lambda z: eval_v_disagg(inst, route_data, z),
                lambda z: eval_v_agg(inst, families, z),
                lambda z: eval_v_tight(inst, z, served=served)):
            assert fn(mid) >= lam * fn(x) + (1 - lam) * fn(y) - 1e-7


def test_served_vector_matches_hits_all():
    inst = gen_random(23, num_nodes=5, density=0.5, num_demands=1)
    family = prepare_route_data(inst, CYCLIC)[0].aggregated
    vec = served_vector(family, 5)
    for bits in range(1 << 5):
        stations = {j for j in range(5) if bits >> j & 1}
        assert vec[bits] == family.hits_all(stations)
