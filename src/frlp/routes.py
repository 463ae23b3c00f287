"""Admissible route sets and the ground-truth traversability predicate.

Routes are walks (node repetition allowed), not simple paths. A path route is
always evaluated as the closed walk path ++ reverse(path), so a single
predicate covers both routing variants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

from .network import (CYCLIC, DIST_TOL, ORIGINAL, Demand, Instance, Network,
                      require_variant, trip_length)

PATH = "path"
CYCLE = "cycle"

DEFAULT_ROUTE_CAP = 10 ** 6


class NoRouteError(ValueError):
    """Raised when a deviation demand has no trip: its destination, or under
    the cyclic variant its way back, is unreachable."""


class EnumerationOverflowError(RuntimeError):
    """Raised when route enumeration exceeds the configured cap."""


@dataclass(frozen=True)
class Route:
    kind: str  # PATH or CYCLE
    visits: Tuple[int, ...]
    arc_lengths: Tuple[float, ...]

    @property
    def length(self) -> float:
        return sum(self.arc_lengths)

    def cycle_form(self):
        """Closed-walk visits and arc lengths this route is evaluated on."""
        if self.kind == CYCLE:
            return self.visits, self.arc_lengths
        return (self.visits + self.visits[-2::-1],
                self.arc_lengths + self.arc_lengths[::-1])


def make_route(network: Network, visits, kind: Optional[str] = None) -> Route:
    """Build a Route from a node sequence, taking arc lengths from the network."""
    visits = tuple(visits)
    arcs = []
    for u, v in zip(visits, visits[1:]):
        arc = network.arc_length(u, v)
        if arc is None:
            raise ValueError(f"no traversable edge {u}->{v}")
        arcs.append(arc)
    if kind is None:
        kind = CYCLE if len(visits) > 1 and visits[0] == visits[-1] else PATH
    return Route(kind, visits, tuple(arcs))


def route_budget(instance: Instance, demand: Demand, variant: str) -> float:
    """Maximum admissible route length tau under the deviation factor."""
    if demand.alpha is None:
        raise ValueError("route_budget applies to deviation demands only")
    trip = trip_length(instance.network, demand, variant)
    if math.isinf(trip):
        raise NoRouteError(f"no {variant} trip {demand.origin}->"
                           f"{demand.destination}: a leg is unreachable")
    return demand.alpha * trip


def enumerate_routes(instance: Instance, demand: Demand, variant: str,
                     cap: int = DEFAULT_ROUTE_CAP):
    """All admissible routes of a demand: walks origin->destination (original)
    or closed walks through the destination (cyclic), within the length budget.

    A closed walk and its reversal over arcs of the same lengths are
    reported once, as on an undirected network. On a directed network
    the reversal may run over other arcs, and is then another route.
    ValidationError when the network does not admit the variant.
    """
    network = instance.network
    require_variant(network, variant)
    if demand.routes is not None:
        return [make_route(network, r) for r in demand.routes]

    tau = route_budget(instance, demand, variant)
    origin, dest = demand.origin, demand.destination
    dist_to_dest = network.distances_to(dest)
    dist_to_origin = network.distances_to(origin)
    dest_to_origin = dist_to_origin[dest]

    results = []
    seen = set()
    prefix = [origin]
    arcs = []

    def emit():
        visits, lengths = tuple(prefix), tuple(arcs)
        if variant == CYCLIC:
            canonical = min((visits, lengths), (visits[::-1], lengths[::-1]))
            if canonical in seen:
                return
            seen.add(canonical)
        results.append(Route(CYCLE if variant == CYCLIC else PATH, visits,
                             lengths))
        if len(results) > cap:
            raise EnumerationOverflowError(
                f"more than {cap} routes for demand "
                f"{network.name(origin)}->{network.name(dest)}")

    # Depth first, with an explicit stack of adjacency iterators: a route
    # may be longer than Python's recursion limit.
    adjacency = network.adjacency
    original = variant == ORIGINAL
    stack = [(iter(adjacency[origin]), 0.0, False)]  # validation: origin != dest
    while stack:
        successors, length, visited_dest = stack[-1]
        for nxt, arc in successors:
            nlen = length + arc
            ndest = visited_dest or nxt == dest
            if original:
                bound = nlen + dist_to_dest[nxt]
            elif ndest:
                bound = nlen + dist_to_origin[nxt]
            else:
                bound = nlen + dist_to_dest[nxt] + dest_to_origin
            if bound <= tau + DIST_TOL:
                prefix.append(nxt)
                arcs.append(arc)
                if (nxt == dest) if original else (nxt == origin and ndest):
                    emit()
                stack.append((iter(adjacency[nxt]), nlen, ndest))
                break
        else:
            stack.pop()
            if arcs:
                arcs.pop()
                prefix.pop()
    results.sort(key=lambda r: (r.length, r.visits))
    return results


def is_traversable(route: Route, stations, travel_range: float) -> bool:
    """True iff the route can be repeated indefinitely with the given stations.

    A closed walk is traversable iff it visits at least one station and every
    cyclically-consecutive pair of station visits is at most `travel_range`
    apart (including the wrap across the period boundary).
    """
    visits, arc_lengths = route.cycle_form()
    prefix = [0.0]
    for arc in arc_lengths:
        prefix.append(prefix[-1] + arc)
    total = prefix[-1]
    # Station visit positions over one period (the closing node repeats the
    # opening one, so only positions 0..len-2 are considered).
    positions = [i for i in range(len(visits) - 1) if visits[i] in stations]
    if len(visits) == 1:  # degenerate single-node cycle
        positions = [0] if visits[0] in stations else []
    if not positions:
        return False
    for a, b in zip(positions, positions[1:]):
        if prefix[b] - prefix[a] > travel_range + DIST_TOL:
            return False
    wrap = total - prefix[positions[-1]] + prefix[positions[0]]
    return wrap <= travel_range + DIST_TOL
