"""Servedness checks for a fixed station set.

The cyclic variant uses a best-first labeling search for a repeatable cycle
through the destination; the original variant reduces to a shortest-path
search on a refueling network built over origin, destination and stations
(depart half-charged, arrive at least half-charged).

Both checks look only at the demand's corridor: the nodes whose shortest
detour fits the route budget tau. For the original variant that is
d(o,j) + d(j,t) <= tau; for the cyclic variant, j must fit on a closed walk
through o and t, before the destination (d(o,j) + d(j,t) + d(t,o) <= tau) or
after it (d(o,t) + d(t,j) + d(j,o) <= tau). No admissible route leaves the
corridor, so a station outside it never changes a verdict. The labeling
search enforces the same bound arc by arc: an extension is dropped when its
length so far plus the shortest completion back to the origin exceeds tau,
or when its charge distance exceeds the travel range. Those tests, and
dominance against the node's kept labels, run on plain floats before a
`Label` is built, so the search builds only the labels it keeps;
`_extension` is the one extension rule. The replay of `frlp check --trace`
(dominance off) lists no label that cannot close within tau.

Each demand gets one check per variant, picked and built in one place on
first use: explicit routes, the original refueling Dijkstra over the
distance rows of the corridor's nodes, or the cyclic labeling search at the
demand's tau. It answers the corridor, the verdict and a witness route; the
verdict is "a witness exists", save the original one, a Dijkstra with no
parent map. The check is kept in the network's distance cache, keyed by
(demand, variant), next to the rows it reads; each answer reads the travel
range R from its instance, since instances with other ranges may share a
network.
Pairing the original variant with a directed network raises
`ValidationError` (`network.require_variant`), here and in
`routes.enumerate_routes`.

The cyclic verdict first rejects, without a search, station sets that no
admissible cycle can serve. Let the hubs be the open corridor stations;
every admissible cycle stops at one, so with none it is unserved. Each
charge segment of a cycle runs from one hub to the next (possibly the same)
within R. If the destination is not a station, the segment through it runs
from some hub a to some hub b (through the origin, perhaps), and by the
triangle inequality is at least min_a d(a,t) + min_b d(t,b); if that exceeds
R, no cycle is repeatable. The same holds for the segment through the
origin, the wrap segment gamma_end + l_charge. The test compares against
R + 2*DIST_TOL, so that float association never rejects a segment the
search accepts at R + DIST_TOL. The cyclic witness runs this pre-check;
`search_cycle` itself, which `frlp check --trace` replays, always runs the
full search.

`find_traversable_path` runs the same refueling Dijkstra at a given tau with
a parent map and builds from it the witness path, which at the demand's tau
is the original variant's witness.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from typing import Optional, Tuple

from .network import (CYCLIC, DIST_TOL, ORIGINAL, Demand, Instance, Network,
                      require_variant)
from .routes import CYCLE, PATH, Route, is_traversable, make_route, route_budget

INF = math.inf


class Label:
    """Resource state of a partial cycle from the origin. A plain slotted
    class: the search builds hundreds of thousands of them, and equality is
    identity (compare `tuple5()` for the resource state)."""

    __slots__ = ("delta_charge", "delta_dest", "l_start", "l_charge",
                 "gamma_end", "node", "parent")

    def __init__(self, delta_charge: int, delta_dest: int, l_start: float,
                 l_charge: float, gamma_end: float, node: int = -1,
                 parent: Optional["Label"] = None):
        self.delta_charge = delta_charge
        self.delta_dest = delta_dest
        self.l_start = l_start
        self.l_charge = l_charge
        self.gamma_end = gamma_end
        self.node = node
        self.parent = parent

    def tuple5(self):
        return (self.delta_charge, self.delta_dest, self.l_start,
                self.l_charge, self.gamma_end)

    def __repr__(self):
        return f"Label{self.tuple5()} at node {self.node}"


@dataclass(frozen=True)
class CycleQuery:
    instance: Instance
    demand: Demand
    stations: frozenset
    tau: float
    dominance: bool = True


@dataclass
class CycleSearch:
    """Outcome of a labeling run: witness cycle plus replayable trace."""

    witness: Optional[Route]
    selected: list  # labels in extraction order; a witness closes the last


def _extension(delta_charge: int, l_start: float, l_charge: float,
               gamma_end: float, length: float, has_station: bool):
    """The one extension rule: the resources (delta_charge, l_start,
    l_charge, gamma_end) after an arc of `length` into a node with or
    without an open station. The caller tests budget and range."""
    new_start = l_start + length
    if has_station:
        return 1, new_start, 0.0, gamma_end if delta_charge else new_start
    return delta_charge, new_start, l_charge + length, gamma_end


def _reconstruct(label: Label) -> Tuple[int, ...]:
    visits = []
    cur = label
    while cur is not None:
        visits.append(cur.node)
        cur = cur.parent
    visits.reverse()
    return tuple(visits)


def search_cycle(query: CycleQuery) -> CycleSearch:
    """Best-first labeling search for a traversable cycle in the deviation
    route set; records the selection sequence for trace replay."""
    instance, demand = query.instance, query.demand
    network = instance.network
    stations = query.stations
    origin, dest = demand.origin, demand.destination
    budget = query.tau + DIST_TOL
    reach = instance.travel_range + DIST_TOL

    dist_to_dest = network.distances_to(dest)
    dist_to_origin = network.distances_to(origin)
    dest_to_origin = dist_to_origin[dest]

    if origin in stations:
        seed = Label(1, 0, 0.0, 0.0, 0.0, node=origin)
    else:
        seed = Label(0, 0, 0.0, 0.0, INF, node=origin)

    # Heap entries are [score, tie, label, alive]; a label superseded while
    # queued is marked dead in place and skipped when popped.
    counter = itertools.count()
    entry = [dist_to_dest[origin] + dest_to_origin, next(counter), seed, True]
    heap = [entry]
    kept = [[] for _ in range(network.num_nodes)]  # live entries per node
    kept[origin].append(entry)
    selected = []

    while heap:
        _, _, label, alive = heapq.heappop(heap)
        if not alive:
            continue
        selected.append(label)
        node = label.node
        if node == origin and label.delta_dest:
            # Zero-length arc to the sink, allowed only from the origin.
            if label.l_charge + label.gamma_end <= reach:
                visits = _reconstruct(label)
                witness = make_route(network, visits, CYCLE)
                return CycleSearch(witness, selected)
        delta_charge, gamma_end = label.delta_charge, label.gamma_end
        l_start, l_charge = label.l_start, label.l_charge
        past_dest = label.delta_dest
        for j2, length in network.adjacency[node]:
            # Reject on plain floats before a label is built. The completion
            # bound (the shortest way back to the origin via the destination)
            # implies the length budget, since a completion is >= 0.
            if past_dest or j2 == dest:
                reached, score = 1, dist_to_origin[j2]
            else:
                reached, score = 0, dist_to_dest[j2] + dest_to_origin
            if l_start + length + score > budget or l_charge + length > reach:
                continue
            charged, start, charge, gamma = _extension(
                delta_charge, l_start, l_charge, gamma_end, length,
                j2 in stations)
            store = kept[j2]
            # Dominance (or, without it, identity) against the node's kept
            # labels, tested on the floats before a label is built.
            if query.dominance:
                dominated = False
                for old in store:
                    o = old[2]
                    if (o.delta_dest >= reached
                            and o.l_start <= start + DIST_TOL
                            and o.l_charge <= charge + DIST_TOL
                            and o.gamma_end <= gamma + DIST_TOL):
                        dominated = True
                        break
                if dominated:
                    continue
                live = []
                for old in store:
                    o = old[2]
                    if (reached >= o.delta_dest
                            and start <= o.l_start + DIST_TOL
                            and charge <= o.l_charge + DIST_TOL
                            and gamma <= o.gamma_end + DIST_TOL):
                        old[3] = False
                    else:
                        live.append(old)
                store[:] = live
            else:
                state = (charged, reached, start, charge, gamma)
                if any(old[2].tuple5() == state for old in store):
                    continue  # identical duplicates kept once
            ext = Label(charged, reached, start, charge, gamma, node=j2,
                        parent=label)
            entry = [score, next(counter), ext, True]
            store.append(entry)
            heapq.heappush(heap, entry)
    return CycleSearch(None, selected)


class _PathCheck:
    """The original-variant check of one demand at route budget tau: its
    corridor, and the distance rows of the corridor and of origin and
    destination. The travel range is read from the instance of each verdict,
    not kept, because instances with other ranges may share the network."""

    __slots__ = ("origin", "dest", "tau", "corridor", "rows")

    def __init__(self, network: Network, origin: int, dest: int, tau: float):
        self.origin, self.dest, self.tau = origin, dest, tau
        self.corridor = _detour_nodes(network, origin, dest, tau)
        self.rows = {a: network.distances_from(a)
                     for a in self.corridor | {origin, dest}}

    def served(self, instance: Instance, stations,
               parent: Optional[dict] = None) -> bool:
        """Dijkstra over the refueling network from the origin: its hubs are
        origin, destination and the open corridor nodes, and a hop a -> b is
        the shortest distance when it fits one charge, or half a charge when
        it leaves an origin without a station or reaches a destination
        without one. A hop from such an origin straight to such a
        destination has no station and never serves. True iff the
        destination is reached within tau; `parent`, when given, receives
        the predecessor of every hub reached."""
        origin, dest, rows = self.origin, self.dest, self.rows
        hubs = self.corridor.intersection(stations) | {origin, dest}
        full = instance.travel_range + DIST_TOL
        half = instance.travel_range / 2.0 + DIST_TOL
        # (hop limit, hop limit to the destination) out of the origin and
        # out of any other hub
        dest_open = dest in stations
        from_other = (full, full if dest_open else half)
        from_origin = from_other if origin in stations else \
            (half, half if dest_open else -INF)
        budget = self.tau + DIST_TOL
        best = {origin: 0.0}
        heap = [(0.0, origin)]
        while heap:
            cost, a = heapq.heappop(heap)
            if cost > best[a] + DIST_TOL:
                continue
            if cost > budget:
                return False  # every hub still to come costs at least this
            if a == dest:
                return True
            row = rows[a]
            limit, to_dest = from_origin if a == origin else from_other
            for b in hubs:
                hop = row[b]
                if hop > (to_dest if b == dest else limit):
                    continue
                ncost = cost + hop
                if ncost < best.get(b, INF) - DIST_TOL:
                    best[b] = ncost
                    if parent is not None:
                        parent[b] = a
                    heapq.heappush(heap, (ncost, b))
        return False


def find_traversable_path(instance: Instance, demand: Demand, stations,
                          tau_path: float) -> Optional[Route]:
    """Original-variant check via the refueling network: a round trip over a
    path is repeatable iff one can depart the origin half-charged and arrive
    at the destination at least half-charged, recharging at stations.
    Returns a witness path within `tau_path`, or None."""
    network = instance.network
    require_variant(network, ORIGINAL)
    origin, dest = demand.origin, demand.destination
    check = _PathCheck(network, origin, dest, tau_path)
    parent = {}
    if not check.served(instance, frozenset(stations), parent):
        return None
    hops = [dest]
    while hops[-1] != origin:
        hops.append(parent[hops[-1]])
    hops.reverse()
    visits = [origin]
    for a, b in zip(hops, hops[1:]):
        segment = network.shortest_path(a, b)
        visits.extend(segment[1:])
    return make_route(network, visits, PATH)


def _detour_nodes(network: Network, a: int, b: int, budget: float) -> frozenset:
    """Nodes j with d(a,j) + d(j,b) <= budget."""
    out, back = network.distances_from(a), network.distances_to(b)
    return frozenset(j for j in range(network.num_nodes)
                     if out[j] + back[j] <= budget + DIST_TOL)


def _check(instance: Instance, demand: Demand, variant: str):
    """The demand's check under the variant: (corridor, served, witness),
    where `served(instance, stations)` gives a verdict and `witness` a
    traversable admissible route or None. The one place that tells explicit
    routes, ORIGINAL and CYCLIC apart. Built on first use and kept in the
    network's distance cache, keyed by (demand, variant)."""
    network = instance.network
    check = network._dist_cache.get((demand, variant))
    if check is not None:
        return check
    require_variant(network, variant)
    served = None  # unless set below, a verdict is "a witness exists"
    if demand.routes is not None:
        routes = [make_route(network, r) for r in demand.routes]
        zone = frozenset(j for r in demand.routes for j in r)

        def witness(inst, stations):
            return next((r for r in routes
                         if is_traversable(r, stations, inst.travel_range)),
                        None)
    elif variant == ORIGINAL:
        tau = route_budget(instance, demand, ORIGINAL)
        path = _PathCheck(network, demand.origin, demand.destination, tau)

        def witness(inst, stations):
            return find_traversable_path(inst, demand, stations, tau)
        # the verdict is the parent-free Dijkstra, which builds no route
        zone, served = path.corridor, path.served
    else:
        origin, dest = demand.origin, demand.destination
        tau = route_budget(instance, demand, CYCLIC)
        out = network.distances_to(dest)[origin]
        back = network.distances_to(origin)[dest]
        zone = (_detour_nodes(network, origin, dest, tau - back)
                | _detour_nodes(network, dest, origin, tau - out))

        # The rows of the pre-check (module docstring): distances into and
        # out of the destination and the origin.
        ends = [(j, network.distances_to(j), network.distances_from(j))
                for j in (dest, origin)]

        def witness(inst, stations):
            # no search for a station set that no admissible cycle serves
            hubs = zone & stations
            if not hubs:
                return None
            reach = inst.travel_range + 2 * DIST_TOL
            for j, into, out_of in ends:
                if j not in stations and (min(into[a] for a in hubs)
                                          + min(out_of[b] for b in hubs)
                                          > reach):
                    return None
            return search_cycle(CycleQuery(inst, demand, stations, tau)).witness
    if served is None:
        def served(inst, stations):
            return witness(inst, stations) is not None
    check = network._dist_cache[(demand, variant)] = (zone, served, witness)
    return check


def corridor(instance: Instance, demand: Demand, variant: str) -> frozenset:
    """Nodes that can lie on an admissible route of the demand; stations
    outside this set never change its servedness."""
    return _check(instance, demand, variant)[0]


def is_served(instance: Instance, demand: Demand, stations,
              variant: str) -> bool:
    """True iff the demand is served by the station set under the variant."""
    return _check(instance, demand, variant)[1](instance, frozenset(stations))


def find_witness(instance: Instance, demand: Demand, stations,
                 variant: str) -> Optional[Route]:
    """A traversable admissible route of the demand under the variant, None
    iff `is_served` is False: the first such explicit route, the original
    variant's path or the labeling search's cycle."""
    return _check(instance, demand, variant)[2](instance, frozenset(stations))
