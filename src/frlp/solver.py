"""Branch-and-cut over the aggregated covering formulation with lazy
separation: the relaxation is `lp.covering_lp` over a cut pool that starts
empty, integral candidates are checked by the feasibility module, and
violated (demand, node-set) cuts are pooled globally and shared across the
tree. The search starts from a feasible fallback placement, so a solve
stopped by a limit still answers with a placement and a valid bound.
"""

from __future__ import annotations

import heapq
import itertools
import logging
import time
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

from .feasibility import corridor, is_served, shrink_cut
from .lp import INFEASIBLE, OPTIMAL, NumericalError, covering_lp, solve_lp
from .network import MAX_COVER, MIN_STATIONS, Instance

INT_TOL = 1e-6

log = logging.getLogger("frlp.solver")


class UnservableError(ValueError):
    """Raised when a min-stations request cannot reach its coverage even
    with a station on every allowed node; names the demands that placement
    leaves unserved."""

    def __init__(self, instance, demand_indices):
        self.demand_indices = tuple(demand_indices)
        names = ", ".join(
            f"{instance.network.name(instance.demands[i].origin)}->"
            f"{instance.network.name(instance.demands[i].destination)}"
            for i in demand_indices)
        super().__init__(f"unservable demands: {names}")


@dataclass(frozen=True)
class SolveRequest:
    instance: Instance
    variant: str
    objective: str = MAX_COVER
    budget: Optional[int] = None
    coverage: float = 1.0
    time_limit: Optional[float] = None
    node_limit: Optional[int] = None


@dataclass
class SolveStats:
    total_time: float = 0.0
    separation_time: float = 0.0
    bb_nodes: int = 0
    cuts: int = 0
    served_calls: int = 0  # servedness verdicts asked for
    served_memo_hits: int = 0  # ... of which answered from the per-solve memo
    shrink_checks: int = 0  # ... of which answered inside a check's shrink
    lp_solves: int = 0  # relaxations solved
    lp_iterations: int = 0  # ... and their simplex iterations, summed
    lp_cold_starts: int = 0  # ... of which started from the logical basis


@dataclass
class Solution:
    stations: FrozenSet[int]
    served: Tuple[bool, ...]
    objective: float
    bound: float
    optimal: bool
    stats: SolveStats


class _Verdicts:
    """Servedness verdicts of one solve, memoised per demand and set of open
    nodes inside the demand's corridor (kept as a bitmask, which is far
    smaller than a frozenset key). The corridors are read from the demands'
    cached checks, which also answer each memo miss and each shrink; the
    shrink's verdicts bypass the memo."""

    def __init__(self, instance: Instance, variant: str, stats: SolveStats):
        self.instance = instance
        self.variant = variant
        self.stats = stats
        self.corridors = [corridor(instance, q, variant)
                          for q in instance.demands]
        self.memo: List[Dict[int, bool]] = [{} for _ in instance.demands]

    def served(self, qi: int, stations) -> bool:
        open_zone = self.corridors[qi].intersection(stations)
        key = sum(1 << j for j in open_zone)
        self.stats.served_calls += 1
        verdict = self.memo[qi].get(key)
        if verdict is None:
            verdict = is_served(self.instance, self.instance.demands[qi],
                                open_zone, self.variant)
            self.memo[qi][key] = verdict
        else:
            self.stats.served_memo_hits += 1
        return verdict

    def shrink(self, qi: int, stations, closed) -> FrozenSet[int]:
        self.stats.served_calls += len(closed)
        self.stats.shrink_checks += len(closed)
        return shrink_cut(self.instance, self.instance.demands[qi], stations,
                          closed, self.variant)


def separate(instance: Instance, variant: str, x, y,
             verdicts: Optional[_Verdicts] = None) -> List[Tuple[int, FrozenSet[int]]]:
    """One-pass lazy separation on an integral candidate.

    For each demand claimed served (y_q = 1): let S' be the closed nodes of
    the demand's corridor; if the demand is actually served the claim stands,
    otherwise shrink S' by a single ascending-id pass (drop a node iff the
    demand stays unserved when that node is also opened) and emit the
    violated covering cut (q, S'). Closed nodes outside the corridor are
    left out of S' without a check: opening one never serves the demand, so
    the shrink pass would drop it anyway. The first verdict is memoised;
    the shrink runs inside the demand's check (`shrink_cut`). `verdicts`
    carries the memo and the counters of a solve across calls.
    """
    if verdicts is None:
        verdicts = _Verdicts(instance, variant, SolveStats())
    cuts = []
    for qi in range(len(instance.demands)):
        if y[qi] < 0.5:
            continue
        zone = verdicts.corridors[qi]
        closed = sorted(j for j in zone if x[j] < 0.5)
        open_zone = zone.difference(closed)
        if verdicts.served(qi, open_zone):
            continue
        cuts.append((qi, verdicts.shrink(qi, open_zone, closed)))
    return cuts


def solve(request: SolveRequest) -> Solution:
    """LP-based best-bound branch-and-bound with lazy covering cuts.

    The search starts from a fallback placement: the forced-open nodes for
    max-cover, every node not forced closed for min-stations. A request that
    this placement cannot meet, a demand left unserved at full coverage or a
    served volume short of `coverage` times the total, raises
    UnservableError before any LP is solved. A solve stopped by its time or
    node limit returns the best placement found, at worst the fallback, with
    `optimal` false and a bound from the open nodes. Before any node is
    solved that bound is the total demand volume (max-cover) or the number of
    forced-open nodes (min-stations).

    Deterministic: branching on the most fractional station variable (ties to
    the lowest index), FIFO tie-breaking in the node queue, cuts appended in
    separation order. Only the root LP starts cold: each cut round re-solves
    from the node's last optimal basis, and each child from its parent's.
    """
    instance = request.instance
    n = instance.num_nodes
    nq = len(instance.demands)
    maximize = request.objective == MAX_COVER
    cut_pool: List[Tuple[int, FrozenSet[int]]] = []
    cut_keys = set()

    def relaxation(fixings):
        lp = covering_lp(instance, request.objective, cut_pool, request.budget,
                         request.coverage)
        for j, val in fixings.items():
            lp.bounds[j] = (float(val), float(val))
        return lp

    relaxation({})  # an unknown objective or coverage raises before any work
    stats = SolveStats()
    start = time.perf_counter()
    verdicts = _Verdicts(instance, request.variant, stats)

    def served_volume(served):
        return float(sum(q.volume for q, s in zip(instance.demands, served) if s))

    def evaluate(stations):
        """(stations, served flags, objective value) of a placement."""
        served = tuple(verdicts.served(qi, stations) for qi in range(nq))
        value = served_volume(served) if maximize else float(len(stations))
        return stations, served, value

    # The fallback: the forced-open nodes fit any budget that relaxation({})
    # accepted, and no placement serves more than every allowed node.
    if maximize:
        incumbent = evaluate(instance.placement.forced_open)
    else:
        incumbent = evaluate(frozenset(range(n)) - instance.placement.forced_closed)
        unserved = [qi for qi, s in enumerate(incumbent[1]) if not s]
        target = request.coverage * sum(q.volume for q in instance.demands)
        if unserved and (request.coverage == 1.0 or
                         served_volume(incumbent[1]) < target - 1e-9):
            raise UnservableError(instance, unserved)

    def better(value):
        return value > incumbent[2] + 1e-9 if maximize else \
            value < incumbent[2] - 1e-9

    # Node queue ordered by bound (best-bound first), then FIFO. The root
    # carries the bound known before any LP.
    counter = itertools.count()
    if maximize:
        root_key = -sum(q.volume for q in instance.demands)
    else:
        root_key = len(instance.placement.forced_open)
    heap = [(float(root_key), next(counter), {}, None)]

    while heap:
        if request.time_limit is not None and \
                time.perf_counter() - start > request.time_limit:
            break
        if request.node_limit is not None and stats.bb_nodes >= request.node_limit:
            break
        key, _, fixings, basis = heapq.heappop(heap)
        if not better(-key if maximize else key):
            continue
        stats.bb_nodes += 1

        while True:  # re-solve the node after each round of new cuts
            solution = solve_lp(relaxation(fixings), basis)
            stats.lp_solves += 1
            stats.lp_iterations += solution.iterations
            stats.lp_cold_starts += solution.cold_start
            basis = solution.basis
            if solution.status == INFEASIBLE:
                solution = None
                break
            if solution.status != OPTIMAL:
                raise NumericalError(f"node relaxation is {solution.status}")
            if not better(solution.value):
                solution = None
                break
            x = solution.primal[:n]
            fractional = [(min(v, 1.0 - v), j) for j, v in enumerate(x)
                          if min(v, 1.0 - v) > INT_TOL]
            if fractional:
                break  # branch
            # Integral station vector: claim the strongest y consistent with
            # the pool, then separate lazily.
            x_int = [1 if v > 0.5 else 0 for v in x]
            y_claim = [1] * nq
            for qi, cut in cut_pool:
                if not cut or all(x_int[j] == 0 for j in cut):
                    y_claim[qi] = 0
            sep_start = time.perf_counter()
            cuts = separate(instance, request.variant, x_int, y_claim,
                            verdicts)
            stats.separation_time += time.perf_counter() - sep_start
            new = [(qi, cut) for qi, cut in cuts if (qi, cut) not in cut_keys]
            if not new:
                break  # candidate is genuinely feasible
            for item in new:
                cut_keys.add(item)
                cut_pool.append(item)
            stats.cuts += len(new)

        if solution is not None and not fractional:
            # Integral and separation-clean: a candidate incumbent.
            candidate = evaluate(frozenset(j for j, v in enumerate(x)
                                           if v > 0.5))
            if better(candidate[2]):
                incumbent = candidate
        if log.isEnabledFor(logging.DEBUG):
            log.debug("node %d: bound %s, incumbent %g, pool %d, "
                      "shrink checks %d", stats.bb_nodes,
                      "pruned" if solution is None else f"{solution.value:g}",
                      incumbent[2], len(cut_pool), stats.shrink_checks)
        if solution is None or not fractional:
            continue
        # Most fractional first; ties to the lowest index.
        _, j = max(fractional, key=lambda t: (t[0], -t[1]))
        for val in (0, 1):
            child = dict(fixings)
            child[j] = val
            heapq.heappush(heap, (-solution.value if maximize
                                  else solution.value,
                                  next(counter), child, basis))

    stations, served, value = incumbent
    if maximize:
        bound = max([value] + [-key for key, *_ in heap])
    else:
        bound = min([value] + [key for key, *_ in heap])
    stats.total_time = time.perf_counter() - start
    return Solution(stations, served, value, bound, not heap, stats)


def reevaluate(instance: Instance, stations, variant: str) -> float:
    """Served volume of a fixed placement under the given routing variant."""
    stations = frozenset(stations)
    return sum(q.volume for q in instance.demands
               if is_served(instance, q, stations, variant))
