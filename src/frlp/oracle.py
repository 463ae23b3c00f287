"""Brute-force reference solvers.

Servedness here is decided purely by exhaustive route enumeration plus the
gap predicate — never by the cyclic min-plus check, the labeling search, the
refueling-network check or covering families — so these results are an independent ground truth for the
optimizing solver and the feasibility module.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Optional, Tuple

from .network import (MAX_COVER, MIN_STATIONS, Demand, Instance,
                      ValidationError, budget_violations)
from .routes import enumerate_routes, is_traversable

ORACLE_NODE_CAP = 20
OPTIMAL_SET_CAP = 64


class OracleSizeError(ValueError):
    """Raised when the instance is too large for subset enumeration."""


@dataclass
class OracleResult:
    objective: float
    optimal_sets: Tuple[FrozenSet[int], ...]
    served_by_set: Dict[FrozenSet[int], Tuple[bool, ...]] = field(
        default_factory=dict)


def exhaustive_served(instance: Instance, demand: Demand, stations,
                      variant: str) -> bool:
    """Servedness by full enumeration: some admissible route is traversable."""
    stations = frozenset(stations)
    return any(is_traversable(r, stations, instance.travel_range)
               for r in enumerate_routes(instance, demand, variant))


def _allowed_subsets(instance: Instance, max_size: Optional[int]):
    """All station sets respecting forced open/closed and an optional cap,
    grouped by cardinality in ascending order."""
    pc = instance.placement
    forced = pc.forced_open
    free = [j for j in range(instance.num_nodes)
            if j not in forced and j not in pc.forced_closed]
    top = len(free) if max_size is None else min(len(free),
                                                 max_size - len(forced))
    for extra in range(top + 1):
        for combo in itertools.combinations(free, extra):
            yield frozenset(forced | set(combo))


def brute_force_solve(instance: Instance, variant: str, objective: str,
                      budget: Optional[int] = None,
                      coverage: float = 1.0) -> OracleResult:
    """Exact optimum by exhausting feasible station sets (<= 20 nodes)."""
    if instance.num_nodes > ORACLE_NODE_CAP:
        raise OracleSizeError(
            f"brute force capped at {ORACLE_NODE_CAP} nodes")
    if budget is None:
        budget = instance.placement.budget
    violations = budget_violations(budget, instance.placement)
    if violations:
        raise ValidationError(violations)
    demands = instance.demands
    total_volume = sum(q.volume for q in demands)
    routes = [enumerate_routes(instance, q, variant) for q in demands]

    def served_map(stations: FrozenSet[int]) -> Tuple[bool, ...]:
        return tuple(any(is_traversable(r, stations, instance.travel_range)
                         for r in demand_routes)
                     for demand_routes in routes)

    if objective == MAX_COVER:
        best = -1.0
        best_sets = []
        served_by_set = {}
        for stations in _allowed_subsets(instance, budget):
            served = served_map(stations)
            value = sum(q.volume for q, s in zip(demands, served) if s)
            if value > best + 1e-12:
                best = value
                best_sets = [stations]
                served_by_set = {stations: served}
            elif abs(value - best) <= 1e-12 and len(best_sets) < OPTIMAL_SET_CAP:
                best_sets.append(stations)
                served_by_set[stations] = served
        return OracleResult(max(best, 0.0), tuple(best_sets), served_by_set)

    if objective != MIN_STATIONS:
        raise ValueError(f"unknown objective {objective!r}")
    if not 0.0 < coverage <= 1.0:
        raise ValueError("coverage must lie in (0, 1]")
    target = coverage * total_volume
    best_sets = []
    served_by_set = {}
    current_size = None
    for stations in _allowed_subsets(instance, None):
        if current_size is not None and len(stations) > current_size:
            break
        served = served_map(stations)
        value = sum(q.volume for q, s in zip(demands, served) if s)
        if value >= target - 1e-9:
            current_size = len(stations)
            if len(best_sets) < OPTIMAL_SET_CAP:
                best_sets.append(stations)
                served_by_set[stations] = served
    if current_size is None:
        return OracleResult(float("inf"), (), {})
    return OracleResult(float(current_size), tuple(best_sets), served_by_set)
