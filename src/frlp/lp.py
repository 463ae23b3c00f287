"""Bundled LP engine, covering-model builders and relaxation-bound evaluators.

The solver is a dense two-phase revised simplex: small deterministic models
only, no external dependencies. Model builders transcribe the per-route
(disaggregated) and per-demand (aggregated) covering formulations; the
aggregated one, for either objective, comes from `covering_lp`, which the
branch-and-cut solver also builds its relaxations with. The evaluators
compute the three concave servedness bounds (per-route LP value, aggregated
closed form, tightest concave interpolant).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import FrozenSet, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .covering import CutSetFamily, aggregate_cut_sets, cut_sets_for_cycle
from .feasibility import is_served
from .network import (MAX_COVER, MIN_STATIONS, Demand, Instance,
                      ValidationError, budget_violations)
from .routes import Route, enumerate_routes

MAX = "max"
MIN = "min"
LE, GE, EQ = "<=", ">=", "="

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

# Formulation tags of build_model; the aggregated min-station model is
# tagged with its objective, MIN_STATIONS.
DISAGG = "disagg"
AGG = "agg"

PRIMAL_TOL = 1e-7
DUAL_TOL = 1e-6
PIVOT_TOL = 1e-9

TIGHT_NODE_CAP = 18


class NumericalError(RuntimeError):
    """Raised when the simplex cannot meet its residual tolerances."""


class DimensionCapError(ValueError):
    """Raised when the tight-bound evaluator is asked for too many nodes."""


@dataclass
class LinearProgram:
    """min/max c'x subject to sparse rows and box bounds (lower bounds finite)."""

    sense: str
    objective: List[float]
    rows: List[Tuple[List[Tuple[int, float]], str, float]] = field(default_factory=list)
    bounds: List[Tuple[float, float]] = field(default_factory=list)

    def add_row(self, coeffs, relation, rhs):
        self.rows.append((list(coeffs), relation, float(rhs)))

    @property
    def num_vars(self) -> int:
        return len(self.objective)


@dataclass
class LpSolution:
    status: str
    value: Optional[float]
    primal: Optional[Tuple[float, ...]]
    duals: Optional[Tuple[float, ...]]  # one per LinearProgram row
    iterations: int = 0  # simplex pivots, both phases


@dataclass
class MipModel:
    """A covering MIP: its LP relaxation (every variable of the MIP is
    binary) and the role of each variable."""

    lp: LinearProgram
    roles: List[tuple]  # ("x", j) | ("y", q) | ("z", q, r)
    tag: str


def _standard_form(lp: LinearProgram):
    """Shift bounds and add slacks; returns the equality system and metadata."""
    n = lp.num_vars
    lo = np.array([b[0] for b in lp.bounds], dtype=float)
    hi = np.array([b[1] for b in lp.bounds], dtype=float)
    if not np.all(np.isfinite(lo)):
        raise ValueError("all variable lower bounds must be finite")
    if np.any(hi < lo - PIVOT_TOL):
        raise ValueError("variable bounds must satisfy lower <= upper")

    rows = list(lp.rows)
    user_rows = len(rows)
    for j in range(n):
        if math.isfinite(hi[j]):
            rows.append(([(j, 1.0)], LE, hi[j]))

    m = len(rows)
    num_slack = sum(1 for _, rel, _ in rows if rel != EQ)
    total = n + num_slack
    A = np.zeros((m, total))
    b = np.zeros(m)
    slack_col = n
    row_sign = np.ones(m)
    for i, (coeffs, rel, rhs) in enumerate(rows):
        shifted = rhs
        for j, coef in coeffs:
            A[i, j] += coef
            shifted -= coef * lo[j]
        b[i] = shifted
        if rel == LE:
            A[i, slack_col] = 1.0
            slack_col += 1
        elif rel == GE:
            A[i, slack_col] = -1.0
            slack_col += 1
        elif rel != EQ:
            raise ValueError(f"unknown relation {rel!r}")
        if b[i] < 0:
            A[i, :] *= -1.0
            b[i] *= -1.0
            row_sign[i] = -1.0

    c = np.zeros(total)
    c[:n] = lp.objective
    if lp.sense == MAX:
        c = -c
    elif lp.sense != MIN:
        raise ValueError(f"unknown sense {lp.sense!r}")
    return A, b, c, lo, user_rows, row_sign


class _Simplex:
    """Revised simplex with an explicit basis inverse and Bland fallback."""

    def __init__(self, A, b):
        self.A = A
        self.b = b
        self.m, self.n = A.shape
        self.pivots = 0

    def _refactor(self):
        self.B_inv = np.linalg.inv(self.A[:, self.basis])

    def _pivot(self, entering, leaving_pos, d=None):
        """Swap `entering` into the basis at `leaving_pos`; `d` is
        B_inv @ A[:, entering] when the caller has it already.

        The basis inverse gets one rank-1 update: row i loses d[i] times the
        scaled pivot row, the same float operations as a row-by-row update.
        """
        if d is None:
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
        d = d.copy()
        d[leaving_pos] = 0.0
        self.B_inv -= np.outer(d, self.B_inv[leaving_pos])

    def run(self, c, basis, allowed):
        """Minimize c'x from the given basis; returns (status, x, y)."""
        self.basis = list(basis)
        self._refactor()
        m, n = self.m, self.n
        degenerate = 0
        bland = False
        bland_trigger = 10 * (m + n)
        max_iter = 50 * (m + n) + 10000
        for iteration in range(max_iter):
            if iteration and iteration % 64 == 0:
                self._refactor()
            xB = self.B_inv @ self.b
            y = c[self.basis] @ self.B_inv
            reduced = c - y @ self.A
            in_basis = np.zeros(n, dtype=bool)
            in_basis[self.basis] = True
            candidates = np.where(allowed & ~in_basis & (reduced < -PIVOT_TOL))[0]
            if candidates.size == 0:
                x = np.zeros(n)
                x[self.basis] = xB
                return OPTIMAL, x, y
            if bland or degenerate > bland_trigger:
                bland = True
                entering = int(candidates[0])
            else:
                entering = int(candidates[np.argmin(reduced[candidates])])
            d = self.B_inv @ self.A[:, entering]
            ratios = np.full(m, np.inf)
            positive = d > PIVOT_TOL
            ratios[positive] = np.maximum(xB[positive], 0.0) / d[positive]
            if not positive.any():
                return UNBOUNDED, None, None
            best = ratios.min()
            ties = np.where(ratios <= best + PIVOT_TOL)[0]
            leaving_pos = int(min(ties, key=lambda i: self.basis[i]))
            if best < PIVOT_TOL:
                degenerate += 1
            self._pivot(entering, leaving_pos, d)
        raise NumericalError("simplex iteration limit exceeded")


def solve_lp(lp: LinearProgram) -> LpSolution:
    """Optimal basic solution (primal + row duals) of the given program."""
    A, b, c, lo, user_rows, row_sign = _standard_form(lp)
    m, total = A.shape
    n = lp.num_vars

    if m == 0:
        # No rows at all: every variable sits at its favorable bound.
        primal = np.array(lo, dtype=float)
        if np.any(c[:n] < -PIVOT_TOL):
            return LpSolution(UNBOUNDED, None, None, None)
        value = float(np.dot(lp.objective, primal))
        return LpSolution(OPTIMAL, value, tuple(primal), ())

    # Phase 1: artificial variables form the starting identity basis, except
    # where a +1 slack column can serve directly.
    art_cols = []
    basis = []
    A_ext = [A]
    slack_of_row = {}
    col = n
    for i, (_, rel, _) in enumerate(list(lp.rows) + [(None, LE, None)] * (m - user_rows)):
        if rel != EQ:
            slack_of_row[i] = col
            col += 1
    for i in range(m):
        sc = slack_of_row.get(i)
        if sc is not None and A[i, sc] == 1.0:
            basis.append(sc)
        else:
            art = np.zeros((m, 1))
            art[i, 0] = 1.0
            A_ext.append(art)
            basis.append(total + len(art_cols))
            art_cols.append(total + len(art_cols))
    A1 = np.hstack(A_ext)
    del A, A_ext  # A1 holds the only copy of the matrix both phases need
    simplex = _Simplex(A1, b)

    if art_cols:
        c1 = np.zeros(A1.shape[1])
        c1[art_cols] = 1.0
        allowed = np.ones(A1.shape[1], dtype=bool)
        status, x1, _ = simplex.run(c1, basis, allowed)
        if status != OPTIMAL or float(c1 @ x1) > PRIMAL_TOL:
            return LpSolution(INFEASIBLE, None, None, None, simplex.pivots)
        basis = simplex.basis
        # Drive artificials out of the basis: a zero-valued degenerate pivot
        # onto any real column keeps feasibility. Artificials that cannot
        # leave sit on redundant rows and provably stay at zero.
        art_set = set(art_cols)
        for r in range(m):
            if basis[r] not in art_set:
                continue
            row = simplex.B_inv[r] @ A1[:, :total]
            in_b = set(basis)
            for j in range(total):
                if j not in in_b and abs(row[j]) > 1e-7:
                    simplex._pivot(j, r)
                    break
        basis = simplex.basis

    c2 = np.zeros(A1.shape[1])
    c2[:total] = c
    allowed = np.ones(A1.shape[1], dtype=bool)
    for j in art_cols:
        allowed[j] = False  # artificials may stay basic at zero but never enter
    status, x, y = simplex.run(c2, basis, allowed)
    if status == UNBOUNDED:
        return LpSolution(UNBOUNDED, None, None, None, simplex.pivots)

    u = x[:n]
    primal = lo + u
    value = float(np.dot(lp.objective, primal))

    _check_residuals(lp, primal, y, row_sign, A1, b, c2, x, allowed)

    sense_sign = -1.0 if lp.sense == MAX else 1.0
    duals = tuple(float(sense_sign * row_sign[i] * y[i]) for i in range(user_rows))
    return LpSolution(OPTIMAL, value, tuple(float(v) for v in primal), duals,
                      simplex.pivots)


def _check_residuals(lp, primal, y, row_sign, A1, b, c2, x, allowed):
    """Primal feasibility at 1e-7; dual feasibility / complementary slackness
    and strong duality at 1e-6 (on the internal equality form)."""
    scale = 1.0 + float(np.abs(b).max(initial=0.0))
    for coeffs, rel, rhs in lp.rows:
        lhs = sum(coef * primal[j] for j, coef in coeffs)
        resid = lhs - rhs
        if rel == LE and resid > PRIMAL_TOL * scale:
            raise NumericalError(f"primal residual {resid} on a <= row")
        if rel == GE and resid < -PRIMAL_TOL * scale:
            raise NumericalError(f"primal residual {resid} on a >= row")
        if rel == EQ and abs(resid) > PRIMAL_TOL * scale:
            raise NumericalError(f"primal residual {resid} on an = row")
    for j, (lo_j, hi_j) in enumerate(lp.bounds):
        if primal[j] < lo_j - PRIMAL_TOL * scale or primal[j] > hi_j + PRIMAL_TOL * scale:
            raise NumericalError(f"variable {j} violates its bounds")
    reduced = c2 - y @ A1
    cscale = 1.0 + float(np.abs(c2).max(initial=0.0))
    if np.any(reduced[allowed] < -DUAL_TOL * cscale):
        raise NumericalError("dual infeasibility above tolerance")
    slack_prod = float(np.abs(reduced * x).max(initial=0.0))
    if slack_prod > DUAL_TOL * cscale * (1.0 + float(np.abs(x).max(initial=0.0))):
        raise NumericalError("complementary slackness above tolerance")
    gap = abs(float(c2 @ x) - float(y @ b))
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


def prepare_families(instance: Instance, variant: str) -> List[CutSetFamily]:
    """Minimal aggregated covering family per demand."""
    return [d.aggregated for d in prepare_route_data(instance, variant)]


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
    for qi, s in rows:
        if s:
            lp.add_row([(j, 1.0) for j in sorted(s)] + [(n + qi, -1.0)], GE, 0.0)
        else:
            lp.add_row([(n + qi, 1.0)], LE, 0.0)  # demand q cannot be served
    _apply_placement(lp, instance)
    return lp


def build_model(instance: Instance, tag: str,
                route_data: Optional[Sequence[DemandRoutes]] = None,
                families: Optional[Sequence[CutSetFamily]] = None,
                budget: Optional[int] = None,
                coverage: float = 1.0) -> MipModel:
    """Covering MIP for one of the formulation tags DISAGG, AGG, MIN_STATIONS.

    disagg needs route_data; agg (max-cover) and min_stations need one
    covering family per demand and are built by `covering_lp`.
    """
    n = instance.num_nodes
    if tag == DISAGG:
        if route_data is None:
            raise ValueError("disagg model requires route_data")
        roles = [("x", j) for j in range(n)]
        lp = LinearProgram(MAX, [0.0] * n, bounds=[(0.0, 1.0)] * n)
        for qi, dr in enumerate(route_data):
            z_cols = []
            for ri, family in enumerate(dr.families):
                col = len(lp.objective)
                lp.objective.append(dr.demand.volume)
                lp.bounds.append((0.0, 1.0))
                roles.append(("z", qi, ri))
                z_cols.append(col)
                for s in family.sets:
                    lp.add_row([(j, 1.0) for j in sorted(s)] + [(col, -1.0)],
                               GE, 0.0)
            lp.add_row([(c, 1.0) for c in z_cols], LE, 1.0)
        _add_budget_row(lp, instance, budget)
        _apply_placement(lp, instance)
        return MipModel(lp, roles, tag)
    if tag not in (AGG, MIN_STATIONS):
        raise ValueError(f"unknown formulation tag {tag!r}")
    if families is None:
        raise ValueError(f"{tag} model requires families")
    rows = [(qi, s) for qi, family in enumerate(families) for s in family.sets]
    lp = covering_lp(instance, MAX_COVER if tag == AGG else MIN_STATIONS, rows,
                     budget, coverage)
    roles = [("x", j) for j in range(n)] + [("y", qi)
                                            for qi in range(len(instance.demands))]
    return MipModel(lp, roles, tag)


def lp_bound(model: MipModel) -> float:
    """Optimum of the continuous relaxation (integrality dropped)."""
    solution = solve_lp(model.lp)
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
        lp = LinearProgram(MAX, [float(payoff[s]) for s in active],
                           bounds=[(0.0, math.inf)] * len(active))
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


def eval_v_tight(instance: Instance, x, variant: Optional[str] = None,
                 families: Optional[Sequence[CutSetFamily]] = None,
                 served: Optional[Sequence[np.ndarray]] = None) -> float:
    """Sum over demands of the tightest concave extension of 0/1 servedness.

    Servedness over station subsets comes from explicit `served` vectors, from
    covering `families`, or from the feasibility check under `variant`.
    """
    n = instance.num_nodes
    if n > TIGHT_NODE_CAP:
        raise DimensionCapError(f"eval_v_tight is capped at {TIGHT_NODE_CAP} nodes")
    x = np.asarray(x, dtype=float)
    bits = _bit_matrix(n)

    if served is None:
        if families is not None:
            served = [served_vector(f, n) for f in families]
        else:
            if variant is None:
                variant = instance.variant_default
            served = []
            for demand in instance.demands:
                vec = np.zeros(1 << n, dtype=bool)
                for s in range(1 << n):
                    stations = frozenset(j for j in range(n) if (s >> j) & 1)
                    vec[s] = is_served(instance, demand, stations, variant)
                served.append(vec)

    total = 0.0
    for demand, vec in zip(instance.demands, served):
        payoff = demand.volume * vec.astype(float)
        total += _interpolation_value(n, bits, payoff, x)
    return total
