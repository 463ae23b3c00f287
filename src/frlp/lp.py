"""Bundled LP engine, covering-model builders and relaxation-bound evaluators.

The solver is a dense bounded-variable dual simplex: small deterministic
models only, no external dependencies. Every program variable lies in a
finite box, and bounds stay bounds, never rows: a nonbasic column sits at
its lower or its upper bound. `_standard_form` builds the equality system,
one row per program row, whose logical column (the slack, fixed at 0 on an
= row) is the unit column of its row and is never stored. It allocates the
two m x m arrays of a refactor first (a program whose inverse cannot be
allocated fails before any coefficient array is built), then reads every
row's coefficients into flat arrays and scatters them into the dense A in
one call; a column index must be an int in [0, n), and every number finite. The basis inverse
is kept in product form between two inversions of the basis: one rank-1
term per pivot, never added into an m x m array. Every solve starts from a
basis of logicals or, given the optimal `Basis` of an earlier solve, from
that basis with the logicals of the rows added since. Putting each nonbasic
column at the bound its reduced cost prefers makes the start dual feasible,
and one pass of the dual simplex on the objective solves the program. Every
returned solution passes the residual check.
Model builders give the LP relaxations of the per-route (disaggregated) and
per-demand (aggregated) max-cover formulations (`build_model`); the
aggregated one, for either objective, comes from `covering_lp`, which the
branch-and-cut solver also builds its relaxations with. Their covering rows
x(S) - z >= 0 share one (j, 1.0) tuple per station column and one (z, -1.0)
per route or demand, and go into the row list without `add_row`'s copy, so
a row costs one list, not a tuple per coefficient. The evaluators
compute the three concave servedness bounds (per-route LP value, aggregated
closed form, tightest concave interpolant over explicit servedness vectors).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from itertools import chain
from typing import FrozenSet, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .covering import CutSetFamily, aggregate_cut_sets, cut_sets_for_cycle
from .network import (MAX_COVER, MIN_STATIONS, Demand, Instance,
                      ValidationError, budget_violations)
from .routes import Route, enumerate_routes

MAX = "max"
MIN = "min"
LE, GE, EQ = "<=", ">=", "="

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"

# Formulation tags of build_model: the per-route and the per-demand
# max-cover model.
DISAGG = "disagg"
AGG = "agg"

PRIMAL_TOL = 1e-7
DUAL_TOL = 1e-6
PIVOT_TOL = 1e-9
REFACTOR_EVERY = 64  # basis updates between two inversions of the basis

TIGHT_NODE_CAP = 18


class NumericalError(RuntimeError):
    """Raised when the simplex cannot meet its residual tolerances."""


class DimensionCapError(ValueError):
    """Raised when the tight-bound evaluator is asked for too many nodes."""


@dataclass
class LinearProgram:
    """min/max c'x subject to sparse rows and box bounds, both finite."""

    sense: str
    objective: List[float]
    rows: List[Tuple[List[Tuple[int, float]], str, float]] = field(default_factory=list)
    bounds: List[Tuple[float, float]] = field(default_factory=list)

    def add_row(self, coeffs, relation, rhs):
        """Append the row sum coef * x_j `relation` rhs, with `coeffs` an
        iterable of (j, coef) pairs, copied into a list of its own. The
        builders of this module append their covering rows without the copy,
        from shared pairs; nothing changes a row once it is appended."""
        self.rows.append((list(coeffs), relation, float(rhs)))

    @property
    def num_vars(self) -> int:
        return len(self.objective)


@dataclass(frozen=True)
class Basis:
    """A simplex basis in program terms: the start of a warm `solve_lp`."""

    variables: Tuple[int, ...]  # basic variables
    slacks: Tuple[int, ...]  # rows whose logical (slack) is basic
    at_upper: Tuple[int, ...]  # nonbasic variables at their upper bound
    rows: int  # rows of the program the basis was taken from


@dataclass
class LpSolution:
    status: str
    value: Optional[float]
    primal: Optional[Tuple[float, ...]]
    duals: Optional[Tuple[float, ...]]  # one per LinearProgram row
    iterations: int = 0  # simplex pivots plus bound flips, every pass
    basis: Optional[Basis] = None  # the optimal basis
    cold_start: bool = True  # started from the logical basis


def _standard_form(lp: LinearProgram):
    """The program as min c'u subject to [A I] u = b, 0 <= u <= ub, where u
    is x - lo followed by one logical column per row.

    Bounds stay bounds: A holds the m x n structural block, one row per
    program row, and the logical of row i is the unit column e_i, never
    stored. A >= row is negated (`row_sign`), so its logical is its slack
    too; the logical of an = row is fixed at 0. The logicals are the start
    basis of every solve, whose inverse is the identity, whether or not its
    basic values b lie within their bounds. The basis inverse and the basis
    it inverts (m x m each) are allocated before any coefficient array is
    built, so a program whose inverse cannot be allocated fails fast; one
    that passes can still raise MemoryError at its first refactor, whose
    `np.linalg.inv` needs about three more m x m arrays.

    The coefficients of all rows are read into flat arrays in row order and
    scattered into A by one unbuffered `np.add.at`, so a column named twice
    in a row sums in the order the row lists it; b is each right-hand side
    less coef * lo[j] over its row, subtracted in that same order. A program
    without one finite (lower, upper) pair per variable, with a column index
    that is not an int in [0, n), or with a cost, row coefficient or
    right-hand side that is not finite raises ValueError, before any
    arithmetic on them. Returns (A, b, c, lo, ub, row_sign, (B_inv, B)).
    """
    n = lp.num_vars
    if len(lp.bounds) != n:
        raise ValueError(f"{n} variables need {n} (lower, upper) bound pairs, "
                         f"not {len(lp.bounds)}")
    lo = np.array([b[0] for b in lp.bounds], dtype=float)
    hi = np.array([b[1] for b in lp.bounds], dtype=float)
    if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
        raise ValueError("all variable bounds must be finite")
    if np.any(hi < lo - PIVOT_TOL):
        raise ValueError("variable bounds must satisfy lower <= upper")
    if lp.sense not in (MIN, MAX):
        raise ValueError(f"unknown sense {lp.sense!r}")
    relations = [rel for _, rel, _ in lp.rows]
    for rel in relations:
        if rel not in (LE, GE, EQ):
            raise ValueError(f"unknown relation {rel!r}")

    m = len(lp.rows)
    space = (np.empty((m, m)), np.empty((m, m)))
    coeff_lists = [coeffs for coeffs, _, _ in lp.rows]
    pairs = list(chain.from_iterable(coeff_lists))
    try:
        cols = np.frombuffer(array("q", [j for j, _ in pairs]), dtype=np.int64)
    except (TypeError, OverflowError):
        cols = None
    if cols is None or (cols.size and (cols.min() < 0 or cols.max() >= n)):
        i, j = next((i, j) for i, coeffs in enumerate(coeff_lists)
                    for j, _ in coeffs
                    if not (isinstance(j, (int, np.integer)) and 0 <= j < n))
        raise ValueError(f"row {i} has column index {j!r}, "
                         f"not an int in [0, {n})")
    coefs = np.frombuffer(array("d", [coef for _, coef in pairs]))
    shifted = np.array([rhs for _, _, rhs in lp.rows], dtype=float)
    c = np.zeros(n + m)
    c[:n] = lp.objective
    for name, values in (("objective coefficients", c),
                         ("row coefficients", coefs),
                         ("right-hand sides", shifted)):
        if not np.all(np.isfinite(values)):
            raise ValueError(f"all {name} must be finite")

    ge = np.array([rel == GE for rel in relations], dtype=bool)
    row_sign = np.where(ge, -1.0, 1.0)
    ub = np.full(n + m, np.inf)
    ub[:n] = np.maximum(hi - lo, 0.0)
    ub[n + np.flatnonzero([rel == EQ for rel in relations])] = 0.0
    row_of = np.repeat(np.arange(m), np.fromiter(map(len, coeff_lists),
                                                 dtype=np.intp, count=m))
    entries = row_of * n + cols
    A = np.zeros((m, n))
    with np.errstate(over="ignore", invalid="ignore"):
        np.add.at(A.reshape(-1), entries, coefs)
        np.subtract.at(shifted, row_of, coefs * lo[cols])
    np.negative(A, out=A, where=ge[:, None])
    b = row_sign * shifted
    # finite terms can still sum beyond the largest float
    if not np.all(np.isfinite(A.reshape(-1)[entries])):
        raise ValueError("all row coefficients must be finite")
    if not np.all(np.isfinite(b)):
        raise ValueError("all right-hand sides must be finite")
    if lp.sense == MAX:
        c[:n] *= -1.0
    return A, b, c, lo, ub, row_sign, space


class _Simplex:
    """Bounded-variable revised dual simplex (`dual`), with a Bland
    fallback, on min c'u, [A I] u = b, 0 <= u <= ub: the columns of A, then
    the implicit logicals. Only the logical of an inequality row has no
    upper bound.

    It starts from the logical basis with every other column at 0. A
    nonbasic column sits at 0 or, when `at_upper`, at its finite ub; `rhs` is
    b less the columns at their upper bound, so the basic values are
    B^-1 rhs. Fixed columns (ub == 0) never enter. `pivots` counts basis
    changes and `flips` the moves of nonbasic columns to their other bound
    (`_flip`): at the start of `dual`, and in its ratio test.

    The inverse is kept in product form, B^-1 = B0^-1 - U'W, with one row of
    U and of W per basis update since B0, the basis last inverted. Until the
    first inversion B0 is the logical basis and B0^-1 = I is never formed.
    The basis is inverted again, and U and W emptied, after every
    REFACTOR_EVERY updates. `basis` is an index array, the basic column of
    each row, and the ratio test hands the leaving row of B^-1, which it has
    computed, on to `_pivot`.
    """

    def __init__(self, A, b, ub, space):
        self.A = A
        self.b = b
        self.ub = ub
        self.m, self.structural = A.shape
        self.n = self.structural + self.m
        self.basis = np.arange(self.structural, self.n)  # a column per row
        self.B0_inv, self.B = space  # B0's inverse, and room to form a basis
        self.identity = True  # B0 is the logical basis
        self.U = np.empty((REFACTOR_EVERY, self.m))
        self.W = np.empty((REFACTOR_EVERY, self.m))
        self.at_upper = np.zeros(self.n, dtype=bool)
        self.rhs = b.copy()
        self.pivots = 0
        self.flips = 0
        self.updates = 0  # rows of U and W in use

    def _price(self, y):
        """y'[A I], one entry per column."""
        return np.concatenate((y @ self.A, y))

    def _ftran(self, v):
        """B^-1 v."""
        x = v.copy() if self.identity else self.B0_inv @ v
        k = self.updates
        if k:
            x -= self.U[:k].T @ (self.W[:k] @ v)
        return x

    def _ftran_column(self, j):
        """B^-1 times column j: for a logical, column j - structural of
        B^-1."""
        i = j - self.structural
        if i < 0:
            return self._ftran(self.A[:, j])
        if self.identity:
            d = np.zeros(self.m)
            d[i] = 1.0
        else:
            d = self.B0_inv[:, i].copy()
        k = self.updates
        if k:
            d -= self.U[:k].T @ self.W[:k, i]
        return d

    def _btran(self, v):
        """v'B^-1."""
        y = v.copy() if self.identity else v @ self.B0_inv
        k = self.updates
        if k:
            y -= (self.U[:k] @ v) @ self.W[:k]
        return y

    def _inverse_row(self, r):
        """Row r of B^-1."""
        if self.identity:
            row = np.zeros(self.m)
            row[r] = 1.0
        else:
            row = self.B0_inv[r].copy()
        k = self.updates
        if k:
            row -= self.U[:k, r] @ self.W[:k]
        return row

    def _refactor(self):
        cols = self.basis
        structural = cols < self.structural
        logical = np.flatnonzero(~structural)
        B = self.B
        B[:] = 0.0
        B[:, structural] = self.A[:, cols[structural]]
        B[cols[logical] - self.structural, logical] = 1.0
        self.B0_inv[:] = np.linalg.inv(B)
        self.identity = False
        self.updates = 0
        upper = np.flatnonzero(self.at_upper)
        logical_upper = upper[upper >= self.structural]
        upper = upper[upper < self.structural]
        self.rhs = self.b - self.A[:, upper] @ self.ub[upper]
        self.rhs[logical_upper - self.structural] -= self.ub[logical_upper]

    def restart(self, basis, upper) -> bool:
        """Move to the basis `basis` (a column per row) with the nonbasic
        columns of `upper` at their upper bound, and refactor once. False,
        leaving the simplex unusable, when the columns do not form a basis
        or form a nearly singular one (an inverse entry above
        1 / PIVOT_TOL)."""
        if len(basis) != self.m or len(set(basis)) != self.m:
            return False
        self.basis = np.array(basis, dtype=np.intp)
        self.at_upper[:] = False
        self.at_upper[upper] = True
        self.at_upper[self.basis] = False
        try:
            self._refactor()
        except np.linalg.LinAlgError:
            return False
        return float(np.abs(self.B0_inv).max(initial=0.0)) <= 1.0 / PIVOT_TOL

    def _set_upper(self, j, upper):
        """Put nonbasic column j at its upper (True) or lower bound."""
        if self.at_upper[j] != upper:
            self.at_upper[j] = upper
            step = -self.ub[j] if upper else self.ub[j]
            if j < self.structural:
                self.rhs += step * self.A[:, j]
            else:
                self.rhs[j - self.structural] += step

    def _flip(self, columns):
        """Move each nonbasic column of `columns` to its other bound."""
        for j in columns:
            self._set_upper(j, not self.at_upper[j])
        self.flips += len(columns)

    def _pivot(self, entering, leaving_pos, row):
        """Swap `entering` into the basis at `leaving_pos`; `row` is row
        `leaving_pos` of B^-1, which the ratio test has already computed.

        With d = B^-1 times the entering column, the new inverse is
        B^-1 - (d - e_r)(B^-1)_r / d_r, for the leaving row r: U gains the
        row d - e_r and W the row (B^-1)_r / d_r.
        """
        d = self._ftran_column(entering)
        pivot = d[leaving_pos]
        if abs(pivot) < PIVOT_TOL:
            self._refactor()
            d = self._ftran_column(entering)
            pivot = d[leaving_pos]
            if abs(pivot) < PIVOT_TOL:
                raise NumericalError("degenerate pivot element")
            row = self._inverse_row(leaving_pos)
        k = self.updates
        self.W[k] = row / pivot
        self.U[k] = d
        self.U[k, leaving_pos] -= 1.0
        self.basis[leaving_pos] = entering
        self.pivots += 1
        self.updates += 1

    def dual(self, c):
        """Bounded-variable dual simplex on min c'u from the current basis.
        A nonbasic column whose reduced cost has the wrong sign for its
        bound, beyond DUAL_TOL, first moves to its other bound. Only a
        nonbasic logical of an inequality row has none: then the basis
        cannot be made dual feasible and `dual` raises NumericalError
        (never from a cold start, whose logicals are basic). Returns OPTIMAL
        once every basic value lies within its bounds, and INFEASIBLE when a
        row admits no entering column (the dual is unbounded) and the bounds
        of the nonbasic columns keep its basic value outside its own. A row
        with no entering column whose bounds do not prove that raises
        NumericalError.

        The leaving row is the basic value furthest outside its bounds, and
        it leaves at the bound it violates. The ratio test keeps every
        nonbasic reduced cost on the side its bound needs (>= 0 at the lower
        bound, <= 0 at the upper one) and prefers the largest pivot among
        ties; fixed columns never enter. Outside the Bland rule, a tie that
        leaves x_r outside its bound even across its whole range flips to
        its other bound instead of entering, so a route-choice row
        sum z <= 1 with every z at 1 takes one pivot, not one per z. The
        reduced costs are computed at each inversion of the basis and
        updated by the pivot row between.
        """
        m, n = self.m, self.n
        movable = self.ub > 0.0
        tol = DUAL_TOL * (1.0 + float(np.abs(c).max(initial=0.0)))
        degenerate = 0
        bland_trigger = 10 * (m + n)
        max_iter = 50 * (m + n) + 10000
        reduced = None
        for _ in range(max_iter):
            if self.updates >= REFACTOR_EVERY:
                self._refactor()
            if self.updates == 0:
                reduced = c - self._price(self._btran(c[self.basis]))
            gain = np.where(self.at_upper, -reduced, reduced)
            nonbasic = movable.copy()
            nonbasic[self.basis] = False
            wrong = (nonbasic & (gain < -tol)).nonzero()[0]
            if wrong.size:
                if not np.all(np.isfinite(self.ub[wrong])):
                    raise NumericalError("the basis cannot be made dual "
                                         "feasible")
                self._flip(wrong)
                gain[wrong] *= -1.0
            xB = self._ftran(self.rhs)
            ub_basic = self.ub[self.basis]
            excess = np.maximum(-xB, xB - ub_basic)
            infeasible = (excess > PRIMAL_TOL).nonzero()[0]
            if infeasible.size == 0:
                return OPTIMAL
            bland = degenerate > bland_trigger
            if bland:
                r = int(infeasible[self.basis[infeasible].argmin()])
            else:
                r = int(infeasible[excess[infeasible].argmax()])
            to_upper = bool(xB[r] > ub_basic[r])
            # x_r = (B^-1 rhs)_r - alpha @ u: the rate at which moving each
            # column off its bound moves x_r towards its violated bound.
            row = self._inverse_row(r)
            alpha = self._price(row)
            rate = np.where(self.at_upper, alpha, -alpha)
            if to_upper:
                rate = -rate
            eligible = (nonbasic & (rate > PIVOT_TOL)).nonzero()[0]
            if eligible.size == 0:
                if self.updates > 0:
                    self._refactor()  # confirm the empty row on a fresh inverse
                    continue
                # Moving every nonbasic column across its whole range
                # towards the violated bound, however small its rate, moves
                # x_r by `reach`: infeasible only when x_r still misses.
                # Rates within rounding of zero (m ulps of the row's largest
                # product) count as zero.
                noise = m * np.finfo(float).eps * \
                    float(np.abs(row).max()) * \
                    max(float(np.abs(self.A).max(initial=0.0)), 1.0)
                towards = nonbasic & (rate > noise)
                reach = float(rate[towards] @ self.ub[towards])
                if excess[r] - reach > PRIMAL_TOL:
                    return INFEASIBLE
                raise NumericalError("a violated row has no entering column, "
                                     "yet its bounds do not prove infeasibility")
            ratios = np.maximum(gain[eligible], 0.0) / rate[eligible]
            best = float(ratios.min())
            ties = eligible[ratios <= best + PIVOT_TOL]
            if bland:
                entering = int(ties[0])
            else:
                ties = ties[(-rate[ties]).argsort(kind="stable")]
                reach = (rate[ties[:-1]] * self.ub[ties[:-1]]).cumsum()
                passed = ties[:-1][reach < excess[r] - PRIMAL_TOL]
                self._flip(passed)
                entering = int(ties[passed.size])
            if best < PIVOT_TOL:
                degenerate += 1
            leaving = self.basis[r]
            # The entering column's reduced cost falls to zero, the leaving
            # one's becomes -reduced[entering] / alpha[entering].
            reduced = reduced - (reduced[entering] / alpha[entering]) * alpha
            self._set_upper(entering, False)
            self._pivot(entering, r, row)
            self._set_upper(leaving, to_upper)
        raise NumericalError("dual simplex iteration limit exceeded")


def _start_columns(start: Basis, n: int, m: int) -> Optional[List[int]]:
    """The basis columns of `start` in a program with n variables and m
    rows: its basic variables, then the logicals of its basic rows and of
    every row added since it was taken. None when the program lacks one of
    them."""
    if start.rows > m or not all(0 <= j < n for j in start.variables) or \
            not all(0 <= i < start.rows for i in start.slacks):
        return None
    return list(start.variables) + [n + i for i in start.slacks] + \
        list(range(n + start.rows, n + m))


def solve_lp(lp: LinearProgram, start: Optional[Basis] = None) -> LpSolution:
    """Optimal basic solution (primal, row duals and basis) of the program.

    With no `start` the simplex starts cold, from the logical basis. `start`,
    the basis of an earlier solution of this program taken before rows were
    appended or variable bounds changed, makes the solve warm: the rows added
    since it was taken get their logical basic, which leaves every reduced
    cost as it was, and each nonbasic variable stays on its side, so a
    fixed one sits at its only value; the basis is refactored once. Either
    start then goes through `_optimize`. A start that is singular or meets
    numerical trouble anywhere on the warm path, the residual check
    included, falls back to the cold start within the same call
    (`cold_start`).
    """
    A, b, c, lo, ub, row_sign, space = _standard_form(lp)
    n, m = lp.num_vars, len(lp.rows)
    spent = 0  # iterations of a warm start that fell back
    if start is not None:
        simplex = _Simplex(A, b, ub, space)
        columns = _start_columns(start, n, m)
        upper = [j for j in start.at_upper if 0 <= j < n]
        try:
            if columns is not None and simplex.restart(columns, upper):
                return _optimize(simplex, lp, c, lo, row_sign, 0, cold=False)
        except (NumericalError, np.linalg.LinAlgError):
            pass  # numerical trouble: start cold
        spent = simplex.pivots + simplex.flips
    return _optimize(_Simplex(A, b, ub, space), lp, c, lo, row_sign, spent,
                     cold=True)


def _optimize(simplex, lp, c, lo, row_sign, spent, cold) -> LpSolution:
    """Solve from the simplex's basis by one pass of the dual simplex on c,
    read the primal and dual solution off the final basis, check the
    residuals and name the optimal basis. `spent` counts the iterations of
    a warm start that fell back."""
    n = lp.num_vars
    status = simplex.dual(c)
    iterations = spent + simplex.pivots + simplex.flips
    if status != OPTIMAL:
        return LpSolution(status, None, None, None, iterations,
                          cold_start=cold)

    y = simplex._btran(c[simplex.basis])
    u = np.where(simplex.at_upper, simplex.ub, 0.0)
    u[simplex.basis] = simplex._ftran(simplex.rhs)
    primal = lo + u[:n]
    value = float(np.dot(lp.objective, primal))

    _check_residuals(primal, y, simplex.A, simplex.b, c, lo, simplex.ub,
                     row_sign, u)

    sense_sign = -1.0 if lp.sense == MAX else 1.0
    duals = tuple(float(sense_sign * row_sign[i] * y[i]) for i in range(len(lp.rows)))
    cols = simplex.basis
    optimal_basis = Basis(tuple(sorted(cols[cols < n].tolist())),
                          tuple(sorted((cols[cols >= n] - n).tolist())),
                          tuple(np.flatnonzero(simplex.at_upper[:n]).tolist()),
                          len(lp.rows))
    return LpSolution(OPTIMAL, value, tuple(float(v) for v in primal), duals,
                      iterations, optimal_basis, cold)


def _check_residuals(primal, y, A, b, c, lo, ub, row_sign, u):
    """Primal feasibility at 1e-7; dual feasibility, complementary slackness
    and strong duality at 1e-6 on the internal form min c'u, [A I] u = b,
    0 <= u <= ub.

    A program row's lhs - rhs is row_sign * (A (x - lo) - b), and a
    variable's bounds are lo and lo + ub. The reduced costs d = c - y'[A I]
    certify optimality with bound duals: a column's active bound is its
    upper one when d_j < 0 and ub_j is finite, its lower one otherwise. A
    column without an upper bound needs d_j >= 0, u must sit at the active
    bound of every column with d_j != 0, and c'u must equal the dual value
    y'b + sum of d_j ub_j over the columns active at their upper bound.
    """
    scale = 1.0 + float(np.abs(b).max(initial=0.0))
    tol = PRIMAL_TOL * scale
    n = len(primal)
    shifted = primal - lo
    excess = A @ shifted - b  # minus each row's logical
    equality = ub[n:] == 0.0
    wrong = np.where(equality, np.abs(excess), excess) > tol
    if wrong.any():
        i = int(np.argmax(wrong))
        relation = "an =" if equality[i] else \
            "a <=" if row_sign[i] > 0 else "a >="
        resid = float(row_sign[i] * excess[i])
        raise NumericalError(f"primal residual {resid} on "
                             f"{relation} row")
    outside = (shifted < -tol) | (shifted > ub[:n] + tol)
    if outside.any():
        raise NumericalError(f"variable {int(np.argmax(outside))} violates "
                             "its bounds")
    reduced = c - np.concatenate((y @ A, y))
    cscale = 1.0 + float(np.abs(c).max(initial=0.0))
    bounded = np.isfinite(ub)
    if np.any(reduced[~bounded] < -DUAL_TOL * cscale):
        raise NumericalError("dual infeasibility above tolerance")
    at_upper = bounded & (reduced < 0.0)
    off_bound = np.where(at_upper, ub - u, u)
    slack_prod = float(np.abs(reduced * off_bound).max(initial=0.0))
    if slack_prod > DUAL_TOL * cscale * (1.0 + float(np.abs(u).max(initial=0.0))):
        raise NumericalError("complementary slackness above tolerance")
    dual_value = float(y @ b) + float(reduced[at_upper] @ ub[at_upper])
    gap = abs(float(c @ u) - dual_value)
    if gap > DUAL_TOL * scale * cscale:
        raise NumericalError(f"strong duality gap {gap}")


# ---------------------------------------------------------------------------
# Model builders
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DemandRoutes:
    """A demand with its admissible routes and one covering family per route."""

    demand: Demand
    routes: Tuple[Route, ...]
    families: Tuple[CutSetFamily, ...]

    @property
    def aggregated(self) -> CutSetFamily:
        return aggregate_cut_sets(self.families)


def prepare_route_data(instance: Instance, variant: str) -> List[DemandRoutes]:
    """Enumerate routes and build per-route covering families for every demand."""
    data = []
    for demand in instance.demands:
        routes = tuple(enumerate_routes(instance, demand, variant))
        families = tuple(cut_sets_for_cycle(r, instance.network,
                                            instance.travel_range)
                         for r in routes)
        data.append(DemandRoutes(demand, routes, families))
    return data


def _cover_row(ones, s, minus) -> List[Tuple[int, float]]:
    """The coefficients of x(S) - z >= 0: ones[j] = (j, 1.0) of each j in
    S, in S's order, then `minus` = (column of z, -1.0), all shared with the
    other rows of the program."""
    coeffs = [ones[j] for j in s]
    coeffs.append(minus)
    return coeffs


def _add_budget_row(lp: LinearProgram, instance: Instance,
                    budget: Optional[int]):
    """Row sum x <= budget over the station columns (the placement budget
    when `budget` is None; no row when neither is set), after the budget
    rule of `network.budget_violations`."""
    if budget is None:
        budget = instance.placement.budget
    violations = budget_violations(budget, instance.placement)
    if violations:
        raise ValidationError(violations)
    if budget is not None:
        lp.add_row([(j, 1.0) for j in range(instance.num_nodes)], LE,
                   float(budget))


def _apply_placement(lp: LinearProgram, instance: Instance):
    for j in instance.placement.forced_open:
        lp.bounds[j] = (1.0, 1.0)
    for j in instance.placement.forced_closed:
        lp.bounds[j] = (0.0, 0.0)


def covering_lp(instance: Instance, objective: str,
                rows: Iterable[Tuple[int, FrozenSet[int]]],
                budget: Optional[int] = None,
                coverage: float = 1.0) -> LinearProgram:
    """Relaxation of the aggregated covering model over the given
    (demand index, node set) rows.

    Columns are the stations x_j, then the served flags y_q. The first row
    is the station budget (MAX_COVER; the placement budget when `budget` is
    None, no row when neither is set) or the coverage row (MIN_STATIONS with
    coverage < 1; at full coverage every y_q is fixed to 1 instead). Then
    one row x(S) - y_q >= 0 per pair, in the order given; an empty S gives
    y_q <= 0. Forced placements become bounds on x. A budget that breaks
    the rule of `network.budget_violations` raises ValidationError.
    """
    n = instance.num_nodes
    volumes = [q.volume for q in instance.demands]
    nq = len(volumes)
    if objective == MAX_COVER:
        lp = LinearProgram(MAX, [0.0] * n + volumes, bounds=[(0.0, 1.0)] * (n + nq))
        _add_budget_row(lp, instance, budget)
    elif objective == MIN_STATIONS:
        if not 0.0 < coverage <= 1.0:
            raise ValueError("coverage must lie in (0, 1]")
        full = coverage == 1.0
        lp = LinearProgram(MIN, [1.0] * n + [0.0] * nq,
                           bounds=[(0.0, 1.0)] * n +
                                  [(1.0, 1.0) if full else (0.0, 1.0)] * nq)
        if not full:
            lp.add_row([(n + qi, v) for qi, v in enumerate(volumes)],
                       GE, coverage * sum(volumes))
    else:
        raise ValueError(f"unknown objective {objective!r}")
    ones = [(j, 1.0) for j in range(n)]
    minus = [(n + qi, -1.0) for qi in range(nq)]
    for qi, s in rows:
        if s:
            lp.rows.append((_cover_row(ones, s, minus[qi]), GE, 0.0))
        else:
            lp.add_row([(n + qi, 1.0)], LE, 0.0)  # demand q cannot be served
    _apply_placement(lp, instance)
    return lp


def build_model(instance: Instance, tag: str,
                route_data: Optional[Sequence[DemandRoutes]] = None,
                families: Optional[Sequence[CutSetFamily]] = None,
                budget: Optional[int] = None) -> LinearProgram:
    """LP relaxation of the max-cover MIP for one of the formulation tags
    DISAGG and AGG (every variable of the MIP is binary).

    disagg needs route_data; agg needs one covering family per demand and
    is built by `covering_lp`.
    """
    n = instance.num_nodes
    if tag == DISAGG:
        if route_data is None:
            raise ValueError("disagg model requires route_data")
        lp = LinearProgram(MAX, [0.0] * n, bounds=[(0.0, 1.0)] * n)
        ones = [(j, 1.0) for j in range(n)]
        rows = lp.rows
        for dr in route_data:
            z_cols = []
            for family in dr.families:
                col = len(lp.objective)
                lp.objective.append(dr.demand.volume)
                # z_r <= 1 follows from the route-choice row and z >= 0;
                # the bound repeats it, so that every column is boxed.
                lp.bounds.append((0.0, 1.0))
                z_cols.append(col)
                minus = (col, -1.0)
                rows.extend((_cover_row(ones, s, minus), GE, 0.0)
                            for s in family.sets)
            lp.add_row([(c, 1.0) for c in z_cols], LE, 1.0)
        _add_budget_row(lp, instance, budget)
        _apply_placement(lp, instance)
        return lp
    if tag != AGG:
        raise ValueError(f"unknown formulation tag {tag!r}")
    if families is None:
        raise ValueError("agg model requires families")
    rows = [(qi, s) for qi, family in enumerate(families) for s in family.sets]
    return covering_lp(instance, MAX_COVER, rows, budget)


def lp_bound(lp: LinearProgram) -> float:
    """Optimum of a relaxation, such as `build_model`'s."""
    solution = solve_lp(lp)
    if solution.status != OPTIMAL:
        raise NumericalError(f"relaxation is {solution.status}")
    return solution.value


# ---------------------------------------------------------------------------
# Value functions of a fractional station vector
# ---------------------------------------------------------------------------

def eval_v_disagg(instance: Instance, route_data: Sequence[DemandRoutes],
                  x) -> float:
    """Sum over demands of the per-route relaxation value at x: each route
    contributes min over its covering sets of the station mass, total capped
    at 1 per demand."""
    total = 0.0
    for dr in route_data:
        mass = sum(f.min_row_value(x) for f in dr.families)
        total += dr.demand.volume * min(1.0, mass)
    return total


def eval_v_agg(instance: Instance, families: Sequence[CutSetFamily],
               x) -> float:
    """Sum over demands of the aggregated relaxation value at x (closed form:
    volume times the capped minimum row mass of the demand's family)."""
    total = 0.0
    for demand, family in zip(instance.demands, families):
        total += demand.volume * min(1.0, family.min_row_value(x))
    return total


def _bit_matrix(n: int) -> np.ndarray:
    """(2^n, n) float matrix: row s is the indicator vector of subset s."""
    idx = np.arange(1 << n, dtype=np.uint32)
    return ((idx[:, None] >> np.arange(n, dtype=np.uint32)) & 1).astype(float)


def served_vector(family: CutSetFamily, n: int) -> np.ndarray:
    """Boolean array over all 2^n station subsets: True iff the subset hits
    every member of the family."""
    idx = np.arange(1 << n, dtype=np.int64)
    served = np.ones(1 << n, dtype=bool)
    for s in family.sets:
        mask = 0
        for j in s:
            mask |= 1 << j
        served &= (idx & mask) != 0
    return served


def _interpolation_value(n: int, bits: np.ndarray, payoff: np.ndarray,
                         x: np.ndarray) -> float:
    """Tightest concave interpolant at x: the best convex combination of
    0/1 station vectors averaging to x, weighted by their payoffs.

    Solved by lazy column generation: restricted LPs over a growing column
    set, priced by a full vectorized scan of all 2^n columns.
    """
    # Initial feasible columns: the staircase decomposition of x along its
    # sorted coordinates (plus the empty set), which averages to x exactly.
    order = np.argsort(-x, kind="stable")
    columns = [0]
    mask = 0
    for j in order:
        mask |= 1 << int(j)
        columns.append(mask)
    active = sorted(set(columns))

    for _ in range(1 << (n + 2)):
        # The weights sum to 1, so the box [0, 1] leaves the LP as it is.
        lp = LinearProgram(MAX, [float(payoff[s]) for s in active],
                           bounds=[(0.0, 1.0)] * len(active))
        for i in range(n):
            lp.add_row([(k, bits[s, i]) for k, s in enumerate(active)
                        if bits[s, i]], EQ, float(x[i]))
        lp.add_row([(k, 1.0) for k in range(len(active))], EQ, 1.0)
        solution = solve_lp(lp)
        if solution.status != OPTIMAL:
            raise NumericalError(f"interpolation LP is {solution.status}")
        y = np.array(solution.duals)
        reduced = payoff - bits @ y[:n] - y[n]
        reduced[active] = -np.inf
        best = int(np.argmax(reduced))
        if reduced[best] <= 1e-9 * (1.0 + float(np.abs(payoff).max(initial=0.0))):
            return solution.value
        active.append(best)
        active.sort()
    raise NumericalError("column generation failed to converge")


def eval_v_tight(instance: Instance, x,
                 served: Sequence[np.ndarray]) -> float:
    """Sum over demands of the tightest concave extension of 0/1 servedness.

    `served` holds one boolean vector per demand over the 2^n station
    subsets, such as `served_vector` of the demand's covering family.
    """
    n = instance.num_nodes
    if n > TIGHT_NODE_CAP:
        raise DimensionCapError(f"eval_v_tight is capped at {TIGHT_NODE_CAP} nodes")
    x = np.asarray(x, dtype=float)
    bits = _bit_matrix(n)
    total = 0.0
    for demand, vec in zip(instance.demands, served):
        payoff = demand.volume * vec.astype(float)
        total += _interpolation_value(n, bits, payoff, x)
    return total
