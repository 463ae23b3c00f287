"""Covering families of node sets: per-route construction, per-demand
aggregation, minimalization and servedness witnesses.

A family encodes "at least one station in every member set". The per-route
family makes a single route traversable; the aggregated per-demand family
makes some route of the demand traversable.

Members are frozensets of node ids, listed by size and then by sorted ids
(`member_key`). Aggregation and minimalization work on int bitmasks (bit j
is node j): a union is `a | b`, and `k` is a subset of `s` when
`k & s == k`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Tuple

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
        return sorted(self.sets, key=member_key)


def member_key(member):
    """Sort key of a member: its size, then its sorted node ids."""
    return len(member), sorted(member)


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
    kept = _minimal_masks(_mask(s) for s in family.sets)
    return CutSetFamily(_unmasked(kept), family.num_nodes)


def _mask(member) -> int:
    """Bit j set for each node id j of the member."""
    mask = 0
    for j in member:
        mask |= 1 << j
    return mask


def _unmasked(masks: Iterable[int]) -> Tuple[frozenset, ...]:
    """The members of the given masks, sorted by `member_key`."""
    members = (frozenset(j for j in range(m.bit_length()) if m >> j & 1)
               for m in masks)
    return tuple(sorted(members, key=member_key))


def _minimal_masks(masks: Iterable[int]) -> List[int]:
    """The distinct masks that contain no other one, in size order."""
    kept = []
    for s in sorted(set(masks), key=int.bit_count):
        if not any(k & s == k for k in kept):
            kept.append(s)
    return kept


def aggregate_cut_sets(families, prune: bool = True,
                       cap: int = DEFAULT_AGGREGATION_CAP) -> CutSetFamily:
    """Per-demand family: all unions picking one member per per-route family.

    With prune=True (default), subsumption pruning is applied on the fly and
    the result is minimal; with prune=False the full deduplicated product is
    returned (exponential in the number of routes). Either way the members
    are sorted by `member_key`.

    The unions are formed on bitmasks. Under prune=True, a frontier set that
    already contains a member of the next family is that row's only minimal
    union (every other union of the row contains it), so the row's product
    is skipped. `cap` bounds a count: the first family's distinct members
    (its minimal ones under prune=True), plus |frontier| x |members| for
    each later family, whether or not that family's unions are formed.
    AggregationOverflowError is raised once a product takes it past `cap`.
    """
    families = list(families)
    if not families:
        raise ValueError("at least one per-route family is required")

    frontier = {_mask(s) for s in families[0].sets}
    if prune:
        frontier = _minimal_masks(frontier)
    produced = len(frontier)
    for family in families[1:]:
        members = {_mask(s) for s in family.sets}
        product = len(frontier) * len(members)
        produced += product
        if product and produced > cap:
            raise AggregationOverflowError(
                f"aggregation product exceeds {cap} intermediate unions")
        if not prune:
            frontier = {a | b for a in frontier for b in members}
            continue
        kept, unions = [], set()
        for a in frontier:
            for b in members:
                if b & a == b:  # every union of this row contains a
                    kept.append(a)
                    break
            else:
                unions.update(a | b for b in members)
        # kept is part of a minimal frontier: prune only when a row grew
        frontier = _minimal_masks(kept + list(unions)) if unions else kept
    return CutSetFamily(_unmasked(frontier), families[0].num_nodes)


def minimality_witness(family: CutSetFamily, member) -> Tuple[int, ...]:
    """0/1 station vector hitting every member except the given minimal one."""
    member = frozenset(member)
    if member not in set(family.sets):
        raise WitnessUndefinedError("member does not belong to the family")
    if any(other < member for other in family.sets):
        raise WitnessUndefinedError("member is not minimal in the family")
    return tuple(0 if j in member else 1 for j in range(family.num_nodes))
