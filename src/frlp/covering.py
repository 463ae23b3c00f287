"""Covering families of node sets: per-route construction, per-demand
aggregation, minimalization and servedness witnesses.

A family encodes "at least one station in every member set". The per-route
family makes a single route traversable; the aggregated per-demand family
makes some route of the demand traversable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Tuple

from .network import DIST_TOL, Network
from .routes import Route

DEFAULT_AGGREGATION_CAP = 10 ** 7


class ConstructionError(ValueError):
    """Raised when a cut-set family cannot be built (edge beyond range)."""


class AggregationOverflowError(RuntimeError):
    """Raised when the aggregation product exceeds the configured cap."""


class WitnessUndefinedError(ValueError):
    """Raised when a minimality witness is requested for a non-minimal member."""


@dataclass(frozen=True)
class CutSetFamily:
    sets: Tuple[frozenset, ...]
    num_nodes: int

    def __post_init__(self):
        if any(not s for s in self.sets):
            raise ConstructionError("covering family contains an empty set")

    def hits_all(self, stations) -> bool:
        stations = frozenset(stations)
        return all(s & stations for s in self.sets)

    def min_row_value(self, weights) -> float:
        """min over members of the summed node weights (inf for empty family)."""
        best = float("inf")
        for s in self.sets:
            best = min(best, sum(weights[j] for j in s))
        return best

    def sorted_sets(self):
        """Members in a stable order (by size, then sorted node ids)."""
        return sorted(self.sets, key=lambda s: (len(s), sorted(s)))


def cut_sets_for_cycle(cycle: Route, network: Network,
                       travel_range: float) -> CutSetFamily:
    """Per-arc covering family of a closed walk: the family is hit by a
    station set iff the cycle is repeatedly traversable with it."""
    visits, arcs = cycle.cycle_form()
    if any(a > travel_range + DIST_TOL for a in arcs):
        raise ConstructionError("cycle contains an edge longer than the range")
    m = len(arcs)  # period length in arcs
    prefix = [0.0]
    for a in arcs:
        prefix.append(prefix[-1] + a)
    total = prefix[-1]

    seen = set()
    members = []
    for k in range(1, m + 1):  # arc ending at position k
        member = set()
        # Walk backward (at most one full period); the forward distance from
        # position i to k grows monotonically, so stop at the first overshoot.
        for back in range(1, m + 1):
            i = k - back
            dist = prefix[k] - prefix[i] if i >= 0 else \
                prefix[k] + (total - prefix[i + m])
            if dist > travel_range + DIST_TOL:
                break
            member.add(visits[i % m])
        fs = frozenset(member)
        if fs not in seen:
            seen.add(fs)
            members.append(fs)
    return CutSetFamily(tuple(members), network.num_nodes)


def minimalize(family: CutSetFamily) -> CutSetFamily:
    """Keep exactly the members that are not strict supersets of another."""
    kept = _minimal_sets(family.sets)
    return CutSetFamily(tuple(kept), family.num_nodes)


def _minimal_sets(sets: Iterable[frozenset]):
    unique = sorted(set(sets), key=lambda s: (len(s), sorted(s)))
    kept = []
    for s in unique:
        if not any(k < s for k in kept):
            kept.append(s)
    return kept


def aggregate_cut_sets(families, prune: bool = True,
                       cap: int = DEFAULT_AGGREGATION_CAP) -> CutSetFamily:
    """Per-demand family: all unions picking one member per per-route family.

    With prune=True (default), subsumption pruning is applied on the fly and
    the result is minimal; with prune=False the full deduplicated product is
    returned (exponential in the number of routes).
    """
    families = list(families)
    if not families:
        raise ValueError("at least one per-route family is required")

    frontier = [frozenset(s) for s in set(families[0].sets)]
    if prune:
        frontier = _minimal_sets(frontier)
    produced = len(frontier)
    for family in families[1:]:
        members = set(family.sets)
        unions = set()
        for a in frontier:
            for b in members:
                unions.add(a | b)
                produced += 1
                if produced > cap:
                    raise AggregationOverflowError(
                        f"aggregation product exceeds {cap} intermediate unions")
        frontier = _minimal_sets(unions) if prune else sorted(
            unions, key=lambda s: (len(s), sorted(s)))
    return CutSetFamily(tuple(frontier), families[0].num_nodes)


def minimality_witness(family: CutSetFamily, member) -> Tuple[int, ...]:
    """0/1 station vector hitting every member except the given minimal one."""
    member = frozenset(member)
    if member not in set(family.sets):
        raise WitnessUndefinedError("member does not belong to the family")
    if any(other < member for other in family.sets):
        raise WitnessUndefinedError("member is not minimal in the family")
    return tuple(0 if j in member else 1 for j in range(family.num_nodes))
