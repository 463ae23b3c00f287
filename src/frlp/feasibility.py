"""Servedness checks for a fixed station set.

The cyclic verdict is a min-plus check over the open corridor stations; a
best-first labeling search finds the witness cycle through the destination
and replays its steps for `frlp check --trace`. The original variant reduces
to a shortest-path search on a refueling network built over origin,
destination and stations (depart half-charged, arrive at least
half-charged).

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
distance rows of the corridor's nodes, or the cyclic min-plus check over
the distances between the corridor's nodes. It answers the corridor, the
verdict and a witness route. For explicit routes the verdict is "a witness
exists"; the original verdict is a Dijkstra with no parent map, and the
cyclic one builds no route either, so solves, which ask only for verdicts,
never search. The cyclic witness asks the verdict first and runs
`search_cycle` at the demand's tau only for a served station set. The check
is kept in the network's check cache, keyed by (demand, variant); each
answer reads the travel range R from its instance, since instances with
other ranges may share a network.
Pairing the original variant with a directed network raises
`ValidationError` (`network.require_variant`), here and in
`routes.enumerate_routes`.

The cyclic verdict. Let the hubs H be the open corridor stations; every
admissible cycle stops at one, so with none it is unserved. Each charge
segment of a cycle runs from one hub to the next (possibly the same) within
R. A pre-check first rejects station sets that no admissible cycle can
serve: if the destination is not a station, the segment through it runs
from some hub a to some hub b (through the origin, perhaps), and by the
triangle inequality is at least min_a d(a,t) + min_b d(t,b); if that exceeds
R, no cycle is repeatable. The same holds for the segment through the
origin, the wrap segment gamma_end + l_charge. The test compares against
R + 2*DIST_TOL, so that float association never rejects a segment the
search accepts at R + DIST_TOL.

Then the exact check. Routes are walks, so a traversable cycle stays
traversable, and gets no longer, when each charge segment is replaced by
shortest paths between its hubs, through the destination t and the origin o
where it passes them; conversely, shortest paths joined in that way form an
admissible traversable cycle. With R' = R + DIST_TOL, let P be the
min-plus (Floyd-Warshall) closure over H of the hops d(a,b) <= R', and
T[c,e] = d(c,t) + d(t,e), O[a,b] = d(a,o) + d(o,b), each infinite above R'.
The demand is served iff the shortest such cycle is within tau + DIST_TOL:
- o and t stations: P[o,t] + P[t,o];
- only o a station: min over c, e of P[o,c] + T[c,e] + P[e,o];
- only t a station: min over a, b of P[t,a] + O[a,b] + P[b,t];
- neither: the smaller of min over s1, c, e, sk of
  P[s1,c] + T[c,e] + P[e,sk] + O[sk,s1] (a segment through each end) and
  min over a, b of P[b,a] plus one segment a -> t -> o -> b or
  a -> o -> t -> b, where that segment is within R' (one through both).
The matrices are cut from the check's corridor distance matrix, which is
read once from the cached distance rows. `search_cycle` itself, which
`frlp check --trace` replays, always runs the full search.

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

import numpy as np

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


class _CycleCheck:
    """The cyclic check of one demand at route budget tau: its corridor, and
    the shortest distances between the corridor's nodes, a square matrix in
    the order of `nodes`, read once from the cached distance rows. The
    travel range is read from the instance of each verdict."""

    __slots__ = ("tau", "corridor", "nodes", "dist", "o", "t")

    def __init__(self, network: Network, origin: int, dest: int, tau: float):
        self.tau = tau
        out = network.distances_to(dest)[origin]
        back = network.distances_to(origin)[dest]
        self.corridor = (_detour_nodes(network, origin, dest, tau - back)
                         | _detour_nodes(network, dest, origin, tau - out))
        self.nodes = sorted(self.corridor)
        rows = np.array([network.distances_from(a) for a in self.nodes])
        self.dist = rows[:, self.nodes]
        self.o, self.t = self.nodes.index(origin), self.nodes.index(dest)

    def served(self, instance: Instance, stations) -> bool:
        """The pre-check, then the min-plus check over the hubs (module
        docstring)."""
        hubs = [i for i, j in enumerate(self.nodes) if j in stations]
        if not hubs:
            return False
        o, t, h = self.o, self.t, len(hubs)
        # distances between the hubs, then the destination and the origin
        d = self.dist.take(hubs + [t, o], 0).take(hubs + [t, o], 1)
        to_t, from_t = d[:h, h], d[h, :h]
        to_o, from_o = d[:h, h + 1], d[h + 1, :h]
        o_open, t_open = o in hubs, t in hubs
        for j_open, into, out_of in ((t_open, to_t, from_t),
                                     (o_open, to_o, from_o)):
            if not j_open and (into.min() + out_of.min()
                               > instance.travel_range + 2 * DIST_TOL):
                return False
        reach = instance.travel_range + DIST_TOL
        p = _capped(d[:h, :h], reach)
        for k in range(h):
            np.minimum(p, p[:, k, None] + p[k], out=p)
        through_t = _capped(to_t[:, None] + from_t, reach)
        through_o = _capped(to_o[:, None] + from_o, reach)
        if o_open and t_open:
            a, b = hubs.index(o), hubs.index(t)
            value = p[a, b] + p[b, a]
        elif o_open or t_open:
            # the charge segment through the closed end, from hub c to e
            a = hubs.index(o if o_open else t)
            seg = through_t if o_open else through_o
            value = (p[a][:, None] + seg + p[:, a]).min()
        else:
            # a segment through each end: s1 ~> c -> t -> e ~> sk -> o -> s1
            loop = _min_plus(_min_plus(p, through_t), p)
            value = (loop + through_o.T).min()
            # one segment through both ends, from hub a back to hub b
            both = np.minimum(
                _capped(to_t[:, None] + d[h, h + 1] + from_o, reach),
                _capped(to_o[:, None] + d[h + 1, h] + from_t, reach))
            value = min(value, (p.T + both).min())
        return bool(value <= self.tau + DIST_TOL)


def _capped(seg, reach: float):
    """The segment lengths, infinite where they exceed one charge."""
    return np.where(seg <= reach, seg, INF)


def _min_plus(a, b):
    """The min-plus product of two square matrices."""
    return (a[:, :, None] + b[None, :, :]).min(axis=1)


def _check(instance: Instance, demand: Demand, variant: str):
    """The demand's check under the variant: (corridor, served, witness),
    where `served(instance, stations)` gives a verdict and `witness` a
    traversable admissible route or None. The one place that tells explicit
    routes, ORIGINAL and CYCLIC apart. Built on first use and kept in the
    network's check cache, keyed by (demand, variant)."""
    network = instance.network
    check = network._checks.get((demand, variant))
    if check is not None:
        return check
    require_variant(network, variant)
    if demand.routes is not None:
        routes = [make_route(network, r) for r in demand.routes]
        zone = frozenset(j for r in demand.routes for j in r)

        def witness(inst, stations):
            return next((r for r in routes
                         if is_traversable(r, stations, inst.travel_range)),
                        None)

        def served(inst, stations):
            return witness(inst, stations) is not None
    elif variant == ORIGINAL:
        tau = route_budget(instance, demand, ORIGINAL)
        path = _PathCheck(network, demand.origin, demand.destination, tau)

        def witness(inst, stations):
            return find_traversable_path(inst, demand, stations, tau)
        # the verdict is the parent-free Dijkstra, which builds no route
        zone, served = path.corridor, path.served
    else:
        tau = route_budget(instance, demand, CYCLIC)
        cycle = _CycleCheck(network, demand.origin, demand.destination, tau)
        zone, served = cycle.corridor, cycle.served

        def witness(inst, stations):
            # the labeling search runs only for a served station set
            if not served(inst, stations):
                return None
            return search_cycle(CycleQuery(inst, demand, stations, tau)).witness
    check = network._checks[(demand, variant)] = (zone, served, witness)
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
