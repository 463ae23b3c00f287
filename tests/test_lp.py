import itertools
import json
import math
import os
import random
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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
    # every column is boxed, so no program is unbounded: a column without
    # an upper bound is rejected
    lp = LinearProgram(MAX, [1.0], bounds=[(0.0, math.inf)])
    with pytest.raises(ValueError, match="variable bounds must be finite"):
        solve_lp(lp)
    # no rows: each variable sits at the bound its cost prefers, the lower
    # one at a zero cost
    lp = LinearProgram(MIN, [1.0, 0.0], bounds=[(2.0, 5.0), (-1.0, 3.0)])
    sol = solve_lp(lp)
    assert sol.status == "optimal" and sol.value == 2.0
    assert sol.primal == (2.0, -1.0) and sol.duals == ()
    assert all(type(v) is float for v in sol.primal)


def one_row_lp(objective=1.0, coef=1.0, rhs=1.0, bounds=((0.0, 1.0),),
               columns=(0,)):
    """max objective * x subject to coef * x <= rhs, x within `bounds`; the
    row names x once by each index of `columns`."""
    lp = LinearProgram(MAX, [objective], bounds=list(bounds))
    lp.add_row([(j, coef) for j in columns], LE, rhs)
    return lp


@pytest.mark.parametrize("change, message", [
    ({"bounds": [(0.0, math.nan)]}, "variable bounds must be finite"),
    ({"bounds": [(0.0, math.inf)]}, "variable bounds must be finite"),
    ({"objective": math.nan}, "objective coefficients must be finite"),
    ({"coef": math.nan}, "row coefficients must be finite"),
    ({"coef": -math.inf}, "row coefficients must be finite"),
    ({"rhs": math.inf}, "right-hand sides must be finite"),
    ({"bounds": []}, "1 variables need 1 .* bound pairs, not 0"),
    ({"bounds": [(0.0, 1.0)] * 2}, "1 variables need 1 .* bound pairs, not 2"),
    ({"columns": (-1,)}, r"row 0 has column index -1, not an int in \[0, 1\)"),
    ({"columns": (1,)}, r"row 0 has column index 1, not an int in \[0, 1\)"),
    ({"columns": (0.0,)}, r"row 0 has column index 0.0, not an int in \[0, 1\)"),
    ({"columns": (0, 0), "coef": 1e308}, "row coefficients must be finite"),
    ({"coef": 1e300, "bounds": [(1e10, 2e10)]}, "right-hand sides must be finite"),
], ids=["nan-upper", "inf-upper", "nan-cost", "nan-coefficient",
        "minus-inf-coefficient", "inf-rhs", "no-bounds", "two-bounds",
        "column-minus-one", "column-n", "float-column", "coefficient-sum-overflows",
        "rhs-shift-overflows"])
def test_program_that_is_not_finite_and_boxed_is_rejected(change, message):
    # A negative column index is no alias of a column from the end, -inf * x
    # is rejected before it is multiplied by x's lower bound, and finite
    # numbers whose sum or product overflows are rejected without a warning.
    assert solve_lp(one_row_lp()).value == 1.0
    with pytest.raises(ValueError, match=message):
        solve_lp(one_row_lp(**change))


def reference_standard_form(lp):
    """(A, b, c, lo, ub, row_sign) of `_standard_form`, written one
    coefficient at a time: each row sums its coefficients into A, and
    subtracts coef * lo[j] from its right-hand side, in the order it lists
    them, and a >= row is negated after."""
    n, m = lp.num_vars, len(lp.rows)
    lo = np.array([b[0] for b in lp.bounds], dtype=float)
    hi = np.array([b[1] for b in lp.bounds], dtype=float)
    A = np.zeros((m, n))
    b = np.zeros(m)
    row_sign = np.ones(m)
    ub = np.full(n + m, np.inf)
    ub[:n] = np.maximum(hi - lo, 0.0)
    for i, (coeffs, rel, rhs) in enumerate(lp.rows):
        shifted = rhs
        for j, coef in coeffs:
            A[i, j] += coef
            shifted -= coef * lo[j]
        if rel == GE:
            row_sign[i] = -1.0
            A[i] *= -1.0
        elif rel == EQ:
            ub[n + i] = 0.0
        b[i] = row_sign[i] * shifted
    c = np.zeros(n + m)
    c[:n] = lp.objective
    if lp.sense == MAX:
        c[:n] *= -1.0
    return A, b, c, lo, ub, row_sign


# Magnitudes far apart, so that a sum in another order rounds otherwise,
# and both zeros, so that a sign of zero shows.
NUMBERS = st.sampled_from((0.0, -0.0, 1.0, -1.0, 0.1, 0.7, -2.5, 3.0, 1e16,
                           -1e16, 1e-9, 12345.678))


@st.composite
def assorted_programs(draw):
    """Programs with every kind of row: <=, >= and =, empty ones, columns
    named more than once, and lower bounds that are nonzero or fixed."""
    n = draw(st.integers(1, 5))
    bounds = []
    for _ in range(n):
        lower = draw(NUMBERS.filter(lambda v: abs(v) < 1e6))
        width = draw(st.sampled_from((0.0, 1.0, 2.5)))
        bounds.append((lower, lower + width))
    lp = LinearProgram(draw(st.sampled_from((MIN, MAX))),
                       [draw(NUMBERS) for _ in range(n)], bounds=bounds)
    for _ in range(draw(st.integers(0, 6))):
        coeffs = draw(st.lists(st.tuples(st.integers(0, n - 1), NUMBERS),
                               max_size=6))
        lp.add_row(coeffs, draw(st.sampled_from((LE, GE, EQ))), draw(NUMBERS))
    return lp


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(assorted_programs())
@example(LinearProgram(MIN, [1.0], bounds=[(0.0, 1.0)]))  # m = 0
@example(LinearProgram(MAX, [1.0, 2.0], bounds=[(0.3, 0.3), (-2.5, 1.0)],
                       rows=[([], LE, 1.0), ([], GE, -0.0), ([], EQ, 2.0)]))
@example(LinearProgram(MAX, [1.0, 1.0], bounds=[(0.1, 1.0), (0.7, 0.7)], rows=[
    ([(0, 1e16), (1, 1.0), (0, -1e16), (1, 0.1)], GE, 0.7),
    ([(1, 0.1), (1, 0.7), (0, -0.0)], EQ, -0.0),
    ([(0, 1.0), (0, 1.0)], LE, 3.0)]))
def test_standard_form_is_the_coefficient_loop_byte_for_byte(lp):
    got = lp_module._standard_form(lp)[:6]
    for name, mine, theirs in zip(("A", "b", "c", "lo", "ub", "row_sign"),
                                  got, reference_standard_form(lp)):
        assert (mine.shape, mine.dtype) == (theirs.shape, theirs.dtype), name
        assert mine.tobytes() == theirs.tobytes(), (name, mine, theirs)


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


def bounded_lps(seed=4, count=40):
    """Small random LPs over boxes, a fifth of the columns fixed, with <=,
    >= and = rows through a point of the box, so each is feasible and
    bounded. The objective pulls most columns to their upper bound."""
    rng = random.Random(seed)
    for k in range(count):
        n = 4
        bounds = []
        for _ in range(n):
            lo = rng.choice([0.0, -1.0, 0.5])
            hi = lo if rng.random() < 0.2 else lo + rng.choice([1.0, 2.0])
            bounds.append((lo, hi))
        point = [rng.uniform(lo, hi) for lo, hi in bounds]
        sense = MAX if k % 2 else MIN
        pull = 1.0 if sense == MAX else -1.0
        lp = LinearProgram(sense, [pull * rng.uniform(-0.5, 2.0) for _ in range(n)],
                           bounds=bounds)
        for rel in rng.sample([LE, LE, GE, GE, EQ], 3):
            coeffs = [(j, rng.uniform(-1.0, 1.0)) for j in range(n)
                      if rng.random() < 0.8]
            rhs = sum(a * point[j] for j, a in coeffs)
            rhs += {LE: 1.0, GE: -1.0, EQ: 0.0}[rel] * rng.uniform(0.0, 0.5)
            lp.add_row(coeffs, rel, rhs)
        yield lp


def best_vertex(lp):
    """The best vertex of a small LP, by enumerating every choice of n
    active constraints (all = rows among them)."""
    n = lp.num_vars
    dense = [(np.array([dict(coeffs).get(j, 0.0) for j in range(n)]), rel, rhs)
             for coeffs, rel, rhs in lp.rows]
    rows = [(a, rhs) for a, rel, rhs in dense]
    for j, (lo, hi) in enumerate(lp.bounds):
        rows += [(np.eye(n)[j], lo), (np.eye(n)[j], hi)]
    equalities = [i for i, (_, rel, _) in enumerate(dense) if rel == EQ]
    others = [i for i in range(len(rows)) if i not in equalities]
    sign = 1.0 if lp.sense == MAX else -1.0
    best = None
    for chosen in itertools.combinations(others, n - len(equalities)):
        active = equalities + list(chosen)
        matrix = np.array([rows[i][0] for i in active])
        if abs(np.linalg.det(matrix)) < 1e-9:
            continue
        x = np.linalg.solve(matrix, [rows[i][1] for i in active])
        feasible = all(lo - 1e-9 <= v <= hi + 1e-9
                       for v, (lo, hi) in zip(x, lp.bounds))
        for a, rel, rhs in dense:
            lhs = float(a @ x)
            feasible &= {LE: lhs <= rhs + 1e-9, GE: lhs >= rhs - 1e-9,
                         EQ: abs(lhs - rhs) <= 1e-9}[rel]
        value = float(np.dot(lp.objective, x))
        if feasible and (best is None or sign * value > sign * best[0]):
            best = (value, x)
    return best


def test_bounded_lps_match_vertex_enumeration():
    at_upper = 0
    for lp in bounded_lps():
        value, x = best_vertex(lp)
        sol = solve_lp(lp)
        assert sol.status == "optimal"
        assert sol.value == pytest.approx(value, abs=1e-7)
        # The duals are optimal iff they are complementary to an optimal
        # vertex: signs in minimisation form, row slackness and bound sides.
        s = -1.0 if lp.sense == MAX else 1.0
        y = s * np.array(sol.duals)
        reduced = s * np.array(lp.objective)
        for (coeffs, rel, rhs), y_i in zip(lp.rows, y):
            assert {LE: y_i <= 1e-7, GE: y_i >= -1e-7, EQ: True}[rel]
            lhs = sum(a * x[j] for j, a in coeffs)
            assert abs(y_i * (lhs - rhs)) <= 1e-7
            for j, a in coeffs:
                reduced[j] -= y_i * a
        for r_j, x_j, (lo, hi) in zip(reduced, x, lp.bounds):
            if r_j > 1e-7:
                assert x_j == pytest.approx(lo, abs=1e-7)
            if r_j < -1e-7:
                assert x_j == pytest.approx(hi, abs=1e-7)
        at_upper += sum(lo < hi and v == hi
                        for v, (lo, hi) in zip(sol.primal, lp.bounds))
    assert at_upper > 40  # optima sit at upper bounds, not only at lower ones


def child_lp(lp, solution):
    """A child of a solved LP, as branch-and-cut makes one: two >= rows
    that cut off every optimum of the parent (an objective cut at two
    depths) and one variable, basic where the basis has one that is not
    fixed, fixed at the bound further from its value."""
    child = LinearProgram(lp.sense, list(lp.objective), list(lp.rows),
                          list(lp.bounds))
    sign = 1.0 if lp.sense == MIN else -1.0
    for depth in (0.05, 0.1):  # sign * c'x >= sign * value + depth
        child.add_row([(j, sign * c) for j, c in enumerate(lp.objective)], GE,
                      sign * solution.value + depth)
    free = [j for j, (lo, hi) in enumerate(lp.bounds) if lo < hi]
    j = next((j for j in solution.basis.variables if j in free), free[0])
    lo, hi = lp.bounds[j]
    at = lo if solution.primal[j] - lo > hi - solution.primal[j] else hi
    child.bounds[j] = (at, at)
    return child


def test_warm_resolve_matches_cold_in_fewer_iterations():
    iterations = {"warm": 0, "cold": 0}
    statuses = []
    for lp in bounded_lps():
        parent = solve_lp(lp)
        assert parent.cold_start
        child = child_lp(lp, parent)
        warm = solve_lp(child, parent.basis)
        cold = solve_lp(child)
        assert not warm.cold_start and cold.cold_start
        assert warm.status == cold.status
        statuses.append(warm.status)
        if warm.status == "optimal":
            assert warm.value == pytest.approx(cold.value, rel=1e-9, abs=1e-9)
            # the warm basis is optimal too: re-solving from it takes no step
            again = solve_lp(child, warm.basis)
            assert again.iterations == 0
            assert again.value == pytest.approx(warm.value, rel=1e-12, abs=1e-12)
        iterations["warm"] += warm.iterations
        iterations["cold"] += cold.iterations
    # both kinds of child occur: re-optimised and proven infeasible
    assert statuses.count("optimal") > 10 and statuses.count("infeasible") > 10
    assert iterations["warm"] < iterations["cold"]


def test_warm_infeasible_only_when_the_bounds_prove_it():
    # The added row x0 + coef * x1 >= 2, with x0 fixed at 1, is met only
    # from x1 = 1 / coef on: a rate below PIVOT_TOL, on a column whose upper
    # bound 2 / coef lies beyond that. The dual simplex finds no entering
    # column, yet x1's range reaches the row's bound, so neither start
    # reports the feasible program infeasible: the warm one falls back cold,
    # and the cold one raises.
    for coef in (1e-10, 1e-12):
        lp = LinearProgram(MIN, [0.0, 1.0],
                           bounds=[(0.0, 1.0), (0.0, 2.0 / coef)])
        lp.add_row([(0, 1.0)], LE, 1.0)
        parent = solve_lp(lp)
        child = LinearProgram(MIN, [0.0, 1.0], list(lp.rows),
                              [(1.0, 1.0), (0.0, 2.0 / coef)])
        child.add_row([(0, 1.0), (1, coef)], GE, 2.0)
        with pytest.raises(NumericalError):
            solve_lp(child, parent.basis)
        with pytest.raises(NumericalError):
            solve_lp(child)


def test_numerical_trouble_on_the_warm_path_falls_back_cold(monkeypatch):
    lp, parent, child, cold = next(
        (lp, parent, child, solve_lp(child))
        for lp in bounded_lps()
        for parent in [solve_lp(lp)]
        for child in [child_lp(lp, parent)]
        if solve_lp(child, parent.basis).status == "optimal")
    # the dual simplex, then the residual check
    for owner, name in ((lp_module._Simplex, "dual"),
                        (lp_module, "_check_residuals")):
        original = getattr(owner, name)
        calls = []

        def fail_first(*args):
            calls.append(name)
            if len(calls) == 1:
                raise lp_module.NumericalError("injected")
            return original(*args)

        monkeypatch.setattr(owner, name, fail_first)
        again = solve_lp(child, parent.basis)
        monkeypatch.undo()
        assert len(calls) > 1  # the warm path failed and the cold one ran
        assert again.cold_start
        assert (again.status, again.value, again.primal, again.basis) == \
            (cold.status, cold.value, cold.primal, cold.basis)
        assert again.iterations >= cold.iterations


def test_start_is_used_unless_it_is_not_a_basis(monkeypatch):
    from dataclasses import replace
    checked = flipped_warm = fell_back = 0
    for lp in bounded_lps(count=20):
        parent = solve_lp(lp)
        basis = parent.basis
        if not (basis.slacks and basis.variables):
            continue
        child = child_lp(lp, parent)
        cold = solve_lp(child)
        checked += 1
        for singular in (
                # one column listed twice, in place of a slack
                replace(basis, variables=basis.variables + basis.variables[:1],
                        slacks=basis.slacks[1:]),
                replace(basis, slacks=basis.slacks[1:])):  # a slack dropped
            again = solve_lp(child, singular)
            assert again.cold_start  # one cold start, in the same call
            assert again.status == cold.status
            assert (again.value, again.primal, again.basis) == \
                (cold.value, cold.primal, cold.basis)
        # The optimal basis of the opposite objective is mostly not dual
        # feasible. Where only variables price out with the wrong sign,
        # moving them to their other bound makes it so, and the warm solve
        # ends at the cold answer. Where a nonbasic logical does, no move
        # can, and the solve starts cold.
        flipped = LinearProgram(MIN if lp.sense == MAX else MAX,
                                list(lp.objective), list(lp.rows),
                                list(lp.bounds))
        _, simplex, again = solve_with_kernel(lp_module._Simplex, child,
                                              monkeypatch,
                                              solve_lp(flipped).basis)
        assert again.status == cold.status
        if cold.status == "optimal":
            assert again.value == pytest.approx(cold.value, rel=1e-9, abs=1e-9)
        if again.cold_start:
            assert (again.value, again.primal, again.basis) == \
                (cold.value, cold.primal, cold.basis)
        fell_back += again.cold_start
        flipped_warm += not again.cold_start and simplex.start_flips > 0
    assert checked >= 10 and flipped_warm > 3 and fell_back > 3


def test_numerically_singular_start_falls_back_cold():
    # two nearly parallel rows: their variables as a basis invert to
    # entries near 1e12
    lp = LinearProgram(MAX, [1.0, 1.0], bounds=[(0.0, 1.0)] * 2)
    lp.add_row([(0, 1.0), (1, 1.0)], LE, 1.5)
    lp.add_row([(0, 1.0), (1, 1.0 + 1e-12)], LE, 1.5)
    start = lp_module.Basis(variables=(0, 1), slacks=(), at_upper=(), rows=2)
    cold = solve_lp(lp)
    again = solve_lp(lp, start)
    assert again.cold_start
    assert (again.value, again.primal) == (cold.value, cold.primal)


def test_residual_check_rejects_a_column_on_the_wrong_bound():
    # min x0 - x1 over the unit box and x0 + x1 <= 2: the optimum is (0, 1)
    lp = LinearProgram(MIN, [1.0, -1.0], bounds=[(0.0, 1.0)] * 2)
    lp.add_row([(0, 1.0), (1, 1.0)], LE, 2.0)
    A, b, c, lo, ub, row_sign, _ = lp_module._standard_form(lp)
    assert A.shape == (1, 2)  # the structural columns only
    y = np.zeros(1)
    right = np.array([0.0, 1.0, 1.0])  # x and the row's slack
    lp_module._check_residuals(right[:2], y, A, b, c, lo, ub, row_sign, right)
    # x0 at its upper bound although its reduced cost is positive
    wrong = np.array([1.0, 1.0, 0.0])
    with pytest.raises(NumericalError, match="complementary slackness"):
        lp_module._check_residuals(wrong[:2], y, A, b, c, lo, ub, row_sign,
                                   wrong)


def solve_with_kernel(kernel, lp, monkeypatch, start=None):
    """solve_lp on `kernel`; returns its (entering, leaving) pivots, the
    first simplex object and the solution. The simplex keeps the bound
    flips that made its start dual feasible, those before its first ratio
    test, in `start_flips`, and the columns these moved to their upper bound
    in `start_upper`."""
    pivots, simplexes = [], []

    class Recording(kernel):
        def __init__(self, *args):
            super().__init__(*args)
            self.start_flips = None
            self.start_upper = []
            simplexes.append(self)

        def _started(self):
            if self.start_flips is None:
                self.start_flips = self.flips

        def _set_upper(self, j, upper):
            if self.start_flips is None and upper:
                self.start_upper.append(int(j))
            super()._set_upper(j, upper)

        def dual(self, c):
            status = super().dual(c)
            self._started()  # a solve without a ratio test
            return status

        def _inverse_row(self, r):
            self._started()  # the pivot row of the first ratio test
            return super()._inverse_row(r)

        def _pivot(self, entering, leaving_pos, row):
            pivots.append((entering, self.basis[leaving_pos]))
            super()._pivot(entering, leaving_pos, row)

    monkeypatch.setattr(lp_module, "_Simplex", Recording)
    solution = solve_lp(lp, start)
    monkeypatch.undo()
    return pivots, simplexes[0], solution


def pinned_request(objective=MAX_COVER):
    inst = gen_random(3, num_nodes=14, density=0.25, num_demands=14,
                      variant=ORIGINAL)
    return SolveRequest(inst, ORIGINAL, objective,
                        budget=3 if objective == MAX_COVER else None)


def rows_the_logical_start_violates(lp):
    """Rows whose logical starts outside its bounds: b < 0, or b != 0 on an
    = row, whose logical is fixed at 0."""
    _, b, _, _, ub, *_ = lp_module._standard_form(lp)
    return int(np.count_nonzero((b < 0.0) | (b > ub[lp.num_vars:])))


def row_loop_violation(lp, primal):
    """The row-by-row primal check: the relation and residual (lhs - rhs)
    of the first program row violated at PRIMAL_TOL, or None."""
    _, b, *_ = lp_module._standard_form(lp)
    tol = lp_module.PRIMAL_TOL * (1.0 + float(np.abs(b).max(initial=0.0)))
    for coeffs, rel, rhs in lp.rows:
        resid = sum(coef * primal[j] for j, coef in coeffs) - rhs
        if {LE: resid > tol, GE: resid < -tol, EQ: abs(resid) > tol}[rel]:
            return rel, resid
    return None


def test_residual_check_flags_the_rows_a_row_loop_flags():
    rng = random.Random(7)
    flagged = passed = 0
    for lp in bounded_lps():
        solution = solve_lp(lp)
        if solution.status != "optimal":
            continue
        A, b, c, lo, ub, row_sign, _ = lp_module._standard_form(lp)
        y = np.zeros(len(lp.rows))
        for _ in range(5):
            primal = np.array(solution.primal) + \
                [rng.choice([0.0, rng.uniform(-1e-3, 1e-3)]) for _ in lp.bounds]
            u = np.concatenate((primal - lo, np.zeros(len(lp.rows))))
            expected = row_loop_violation(lp, primal)
            try:
                lp_module._check_residuals(primal, y, A, b, c, lo, ub,
                                           row_sign, u)
                message = ""
            except NumericalError as exc:
                message = str(exc)
            if expected is None:
                assert not message.startswith("primal residual")
                passed += 1
                continue
            rel, resid = expected
            match = re.fullmatch(r"primal residual (\S+) on an? (\S+) row",
                                 message)
            assert match and match.group(2) == rel, (message, expected)
            assert float(match.group(1)) == pytest.approx(resid, rel=1e-9)
            flagged += 1
    assert flagged > 20 and passed > 20


def kernel_programs(monkeypatch):
    """The kernel's test pool: the random and bounded LPs cold, the
    relaxations of the pinned solves cold and from the starts they ran with,
    and a disaggregated relaxation whose cold solve takes more than
    REFACTOR_EVERY pivots."""
    relaxations = []
    solve_lp_of_solver = solver_module.solve_lp

    def recording_solve_lp(lp, start=None):
        relaxations.append((lp, start))
        return solve_lp_of_solver(lp, start)

    monkeypatch.setattr(solver_module, "solve_lp", recording_solve_lp)
    solve(pinned_request())
    solve(pinned_request(MIN_STATIONS))  # full coverage: cover rows start violated
    monkeypatch.undo()
    assert len(relaxations) > 10
    inst = gen_random(1, num_nodes=16, density=0.25, num_demands=16,
                      variant=ORIGINAL)
    long = build_model(inst, DISAGG, route_data=prepare_route_data(inst, ORIGINAL),
                       budget=3)
    return [(lp, None) for lp, _ in random_lps()] + \
        [(lp, None) for lp in bounded_lps()] + \
        [(lp, None) for lp, _ in relaxations] + \
        [(lp, start) for lp, start in relaxations if start is not None] + \
        [(long, None)]


def test_product_form_inverse_times_the_basis_is_the_identity(monkeypatch):
    programs = kernel_programs(monkeypatch)
    errors, runs = [], []

    class Checked(lp_module._Simplex):
        def __init__(self, *args):
            super().__init__(*args)
            self.refactors = 0
            runs.append(self)

        def _check(self):
            # B0^-1 - U'W, the inverse the kernel works with, times the basis
            k = self.updates
            inverse = (np.eye(self.m) if self.identity else self.B0_inv) - \
                self.U[:k].T @ self.W[:k]
            product = inverse @ np.hstack((self.A, np.eye(self.m)))[:, self.basis]
            errors.append(float(np.abs(product - np.eye(self.m)).max(initial=0.0)))

        def _refactor(self):
            super()._refactor()
            self.refactors += 1
            self._check()

        def _pivot(self, entering, leaving_pos, row):
            super()._pivot(entering, leaving_pos, row)
            self._check()

    for lp, start in programs:
        monkeypatch.setattr(lp_module, "_Simplex", Checked)
        solve_lp(lp, start)
        monkeypatch.undo()
    assert max(errors) <= 1e-9
    assert len(errors) > 500
    # some solves invert the basis midway and go on pivoting from B0^-1
    assert any(run.refactors and run.pivots > lp_module.REFACTOR_EVERY
               for run in runs)


def test_kernel_keeps_status_and_value_and_counts_every_iteration(monkeypatch):
    # The reference inverts the basis before every iteration, so that U and
    # W never hold more than the one update of the last pivot.
    kernel = lp_module._Simplex  # before solve_with_kernel patches it
    start_flips = passed = warm = long = 0
    for lp, start in kernel_programs(monkeypatch):
        pivots, simplex, solution = solve_with_kernel(kernel, lp, monkeypatch,
                                                      start)
        monkeypatch.setattr(lp_module, "REFACTOR_EVERY", 1)
        ref_pivots, ref_simplex, reference = solve_with_kernel(
            kernel, lp, monkeypatch, start)
        assert solution.status == reference.status
        if solution.status == "optimal":
            assert solution.value == pytest.approx(reference.value, rel=1e-9,
                                                   abs=1e-9)
        # an iteration is a pivot or a bound flip
        assert solution.iterations == len(pivots) + simplex.flips
        assert reference.iterations == len(ref_pivots) + ref_simplex.flips
        # A: the structural columns only; the logicals stay implicit
        assert simplex.A.shape == (len(lp.rows), lp.num_vars)
        start_flips += simplex.start_flips > 0 and len(pivots) > 0
        passed += simplex.flips > simplex.start_flips
        warm += not solution.cold_start and len(pivots) > 0
        long += len(pivots) > lp_module.REFACTOR_EVERY
    assert start_flips > 0  # some starts flip columns, then pivot
    assert passed > 0  # some ratio tests flip tied columns
    assert warm > 0  # and some warm starts pivot
    assert long > 0  # and some solves refactor midway


def test_original_solve_is_pinned():
    # bb_nodes, cuts, LP solves, iterations (pivots plus bound flips) and
    # cold starts measured with the bounded-variable kernel, whose re-solves
    # start warm from the last optimal basis, so that a change of the start
    # basis or of the pivot rule fails here; and the servedness checks and
    # memo hits, so that a change of which checks the search asks fails too
    from frlp.oracle import brute_force_solve
    request = pinned_request()
    solution = solve(request)
    assert solution.stats.bb_nodes == 13
    assert solution.stats.cuts == 28
    assert solution.stats.served_calls == 189
    assert solution.stats.served_memo_hits == 73
    assert solution.stats.lp_solves == 19
    assert solution.stats.lp_iterations == 100
    assert solution.stats.lp_cold_starts == 1
    assert solution.objective == 31.0
    # {3, 4, 10} and {3, 8, 10} tie at 31: the stations are one of them,
    # whichever the tree reaches first
    optimal_sets = brute_force_solve(request.instance, ORIGINAL, MAX_COVER,
                                     budget=request.budget).optimal_sets
    assert set(optimal_sets) == {frozenset({3, 4, 10}), frozenset({3, 8, 10})}
    assert solution.stations in optimal_sets


def solved_simplex(lp, monkeypatch):
    _, simplex, solution = solve_with_kernel(lp_module._Simplex, lp, monkeypatch)
    assert solution.status == "optimal"
    return simplex


def test_cover_relaxations_keep_bounds_and_start_on_slacks(monkeypatch):
    inst = pinned_request().instance
    route_data = prepare_route_data(inst, ORIGINAL)
    pairs = [(qi, s) for qi, d in enumerate(route_data)
             for s in d.aggregated.sets]
    max_cover = covering_lp(inst, MAX_COVER, pairs, budget=3)
    disagg = build_model(inst, DISAGG, route_data=route_data, budget=3)
    full_min = covering_lp(inst, MIN_STATIONS, pairs)
    for lp in (max_cover, disagg, full_min):
        simplex = solved_simplex(lp, monkeypatch)
        # one row per program row: no finite upper bound became a row
        assert any(math.isfinite(hi) for _, hi in lp.bounds)
        assert simplex.m == len(lp.rows)
        # one logical per row, and no other column
        assert simplex.n == lp.num_vars + len(lp.rows)
    # x = y = 0 satisfies every cover row, so the logical start is primal
    # feasible. A covered volume is a negative cost in min form, so the
    # cold start moves every y (every z of the disaggregated model) to its
    # upper bound before its first pivot ...
    for lp in (max_cover, disagg):
        assert rows_the_logical_start_violates(lp) == 0
        paying = [j for j, (v, (lo, hi)) in
                       enumerate(zip(lp.objective, lp.bounds)) if v > 0 and lo < hi]
        assert len(paying) > 10
        simplex = solved_simplex(lp, monkeypatch)
        assert simplex.start_upper == paying
        assert simplex.start_flips == len(paying)
    # ... unlike full coverage, where y = 1 makes each cover row x(S) >= 1;
    # its costs are >= 0, so the dual simplex starts on them at once
    assert rows_the_logical_start_violates(full_min) == len(pairs)
    assert solved_simplex(full_min, monkeypatch).start_flips == 0


def test_tied_columns_flip_instead_of_entering(monkeypatch):
    # max sum z over k boxed columns with sum z <= 1, the shape of a
    # disaggregated route-choice row. The start flips every z to 1, which
    # puts the row k - 1 out of bounds. All k columns tie in the ratio
    # test; k - 2 of them flip back to 0 instead of entering, so the solve
    # takes one pivot, not k - 1.
    k = 50
    lp = LinearProgram(MAX, [1.0] * k, bounds=[(0.0, 1.0)] * k)
    lp.add_row([(j, 1.0) for j in range(k)], LE, 1.0)
    pivots, simplex, solution = solve_with_kernel(lp_module._Simplex, lp,
                                                  monkeypatch)
    assert solution.value == 1.0
    assert simplex.start_flips == k
    assert len(pivots) == 1
    assert solution.iterations == 1 + k + (k - 2)


MEMORY_CHILD = textwrap.dedent("""
    import json, resource, sys
    from frlp import LinearProgram, solve_lp
    from frlp import lp as lp_module
    from frlp.lp import LE, MAX

    squares, patched = float(sys.argv[1]), sys.argv[2] == "patched"
    if patched:
        def dual(self, c):
            raise RuntimeError("pivoted")
        lp_module._Simplex.dual = dual
    m, n = 6000, 4
    lp = LinearProgram(MAX, [1.0] * n, bounds=[(0.0, 1.0)] * n)
    for i in range(m):
        lp.add_row([(i % n, 1.0)], LE, 1.0)
    a_bytes = 8 * m * n  # A: the structural columns only
    square_bytes = 8 * m * m  # the basis inverse, and the basis it inverts
    with open("/proc/self/status") as status:
        vm_kb = next(int(line.split()[1]) for line in status
                     if line.startswith("VmSize:"))
    # Room for A and `squares` m x m arrays.
    limit = 1024 * vm_kb + a_bytes + int(squares * square_bytes)
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    try:
        solve_lp(lp)
        error = None
    except (MemoryError, RuntimeError) as exc:
        error = f"{type(exc).__name__}: {exc}"
    after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"error": error, "grown_kb": after - before,
                      "square_kb": square_bytes // 1024}))
""")


def run_memory_child(squares, patched=False):
    """MEMORY_CHILD's report on a 6,000-row program, under an address-space
    limit with room for `squares` m x m arrays beyond what it holds."""
    resource = pytest.importorskip("resource")
    if not hasattr(resource, "RLIMIT_AS") or not Path("/proc/self/status").exists():
        pytest.skip("needs RLIMIT_AS and /proc/self/status")
    import frlp
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   [str(Path(frlp.__file__).resolve().parents[1])] +
                   [p for p in [os.environ.get("PYTHONPATH")] if p]))
    child = subprocess.run([sys.executable, "-c", MEMORY_CHILD, str(squares),
                            "patched" if patched else "plain"], env=env,
                           capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    return json.loads(child.stdout.splitlines()[-1])


def test_basis_inverse_that_cannot_fit_fails_before_a_is_written():
    # Room for the inverse but not for the basis a refactor inverts: the
    # two are reserved together, before A, so the solve fails at once.
    report = run_memory_child(1.5)
    assert report["error"].startswith("MemoryError")
    assert "(6000, 6000)" in report["error"]
    # nothing was written: the peak RSS barely moved
    assert report["grown_kb"] < report["square_kb"] // 10


def test_basis_that_cannot_fit_fails_before_any_pivot():
    # With the dual simplex, the first pass of every solve, made to raise:
    # the reservation fails before it runs ...
    report = run_memory_child(1.5, patched=True)
    assert report["error"].startswith("MemoryError")
    # ... and with room for both m x m arrays, the solve reaches it.
    assert run_memory_child(2.5, patched=True)["error"] == "RuntimeError: pivoted"


def test_build_model_example1_disagg_rows():
    fig2 = gen_example("fig2", 10.0)
    route_data = prepare_route_data(fig2, ORIGINAL)
    lp = build_model(fig2, DISAGG, route_data=route_data)
    assert len(lp.rows) == 8  # 3 + 4 covering rows + one route-choice row
    # the five station columns, then one route-use column per route
    routes = sum(len(d.routes) for d in route_data)
    assert routes == 2
    assert lp.objective == [0.0] * 5 + [fig2.demands[0].volume] * routes
    # route columns are boxed in [0, 1], which the route-choice row and
    # z >= 0 imply
    assert lp.bounds == [(0.0, 1.0)] * 5 + [(0.0, 1.0)] * routes


def test_build_model_example2_agg_rows():
    from frlp import aggregate_cut_sets, cut_sets_for_cycle, make_route
    fig2 = gen_example("fig2", 10.0)
    net = fig2.network
    d1 = cut_sets_for_cycle(make_route(net, (0, 1, 3, 4), kind="path"), net, 10.0)
    d2 = cut_sets_for_cycle(make_route(net, (0, 1, 2, 3, 4), kind="path"), net, 10.0)
    full = aggregate_cut_sets([d1, d2], prune=False)
    lp = build_model(fig2, AGG, families=[full])
    assert len(lp.rows) == 10


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
    lp = build_model(inst, AGG, families=families, budget=2)
    assert lp == covering_lp(inst, MAX_COVER, pairs, budget=2)
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
