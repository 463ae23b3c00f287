"""Servedness checks for a fixed station set.

The cyclic verdict is a min-plus check over the open corridor stations; a
best-first labeling search finds the witness cycle through the destination
and replays its steps for `frlp check --trace`. The original variant reduces
to a shortest-path search from the origin to the destination through the
open corridor stations under one hop rule (depart half-charged, arrive at
least half-charged).

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
first use: explicit routes, the original hop-rule Dijkstra over the
distance rows of the corridor's nodes, or the cyclic min-plus check over
the distances between the corridor's nodes. It answers the corridor, the
verdict, a witness route and separation's drop-one shrink (`shrink_cut`).
For explicit routes the verdict is "a witness exists" and the shrink is a
loop over verdicts; the original verdict is a Dijkstra with no parent map,
and the cyclic one builds no route either, so solves, which ask only for
verdicts, never search. The original witness is that Dijkstra with a
parent map; the cyclic witness asks the verdict first and runs
`search_cycle` at the demand's tau only for a served station set. The check
is kept in the network's check cache, keyed by (demand, variant); each
answer reads the travel range R from its instance, since instances with
other ranges may share a network.
Pairing the original variant with a directed network raises
`ValidationError` (`network.require_variant`), here and in
`routes.enumerate_routes`.

The original verdict. A round trip over a path is repeatable iff the driver
can leave o half-charged and reach t with at least half a charge (the
refueling network of MirHassani & Ebrazi, "A flexible reformulation of the
refueling station location problem", Transportation Science 2013). The
trip's ends are a source at o and a sink at t, never stations; the hubs are
the open corridor nodes, o and t among them when open. A hop a -> b is
d(place(a), place(b)) long and fits iff a hub is among a and b and it is at
most (R/2)*(hubs among a, b) + DIST_TOL: R between hubs, R/2 out of the
source or into the sink, and no hop from the source straight to the sink.
The demand is served iff a Dijkstra from the source reaches the sink within
tau + DIST_TOL.

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
The matrices are blocks of one stack, built once per check and travel
range over the whole corridor: the capped hops, T, O and the segments
through both ends. `search_cycle` itself, which `frlp check --trace`
replays, always runs the full search.

The shrink. Separation's drop-one pass takes the closed corridor nodes in
order and asks, for each j, whether the demand is served by the base plus
j, where the base is the open stations plus the nodes dropped so far; j is
dropped iff it is not. The base starts unserved (the pass runs only then)
and grows only by a dropped j, whose verdict was unserved, so it stays
unserved. Hence a route that serves the base plus j passes through j, and
the check needs only the routes through j. A kept j changes nothing, so its
state is thrown away; a dropped j is inserted into the base's state, which
is what the next candidate reads (vertex insertion into all-pairs shortest
paths: Ausiello, Italiano, Marchetti-Spaccamela & Nanni, "Incremental
algorithms for minimal length paths", J. Algorithms 1991).
- Cyclic: the closure P over the base hubs is built once. Inserting j costs
  O(h^2) with no Floyd-Warshall: with hop the capped hops,
  in[a] = min_c P[a,c] + hop[c,j] and out[b] = min_c hop[j,c] + P[c,b] are
  the shortest ways into and out of j through the base (a shortest path
  visits j once), and P' = min(P, in + out) with row out and column in for
  j. The verdict reads P' as the full check reads P, in O(h^2), except the
  loop term with neither end a station: the base's loops are longer than
  tau, so only the loops through j count. Rotated to start at j, such a
  loop runs j ~> c -> t -> e ~> sk -> o -> s1 ~> j, or passes o first;
  each is three vector-matrix min-plus products. The pre-check reads the
  base's least distances into and out of each end, lowered by j's.
- Original: the costs from the source and to the sink over the base hubs
  are built once, by a forward and a backward Dijkstra; the backward one
  reads the hop b -> a from b's distance row. The cheapest route through j
  is the cheapest hop into j from a place reached plus the cheapest hop out
  of j to a place that reaches the sink, each fitting the hop rule with j a
  hub, and j is kept iff that fits within tau + DIST_TOL. A dropped j gets
  those two costs, and a Dijkstra from j lowers the others (decrease-only).
  A closed origin or destination is inserted like any other node.
The shrink adds a route's lengths in another order than the full verdict
does, so its value may differ from it in the last bits (and, for the
original variant, by less than the DIST_TOL within which a Dijkstra keeps
the cost it has). That reaches only the final comparison with
tau + DIST_TOL: the hop caps and the pre-check compare single distances,
as the full verdict does.

The original witness maps the source and the sink back to o and t and joins
the places of the Dijkstra's route by shortest paths; `find_traversable_path`
asks a check built at a given tau for it.
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


# The trip's ends in the original check: a source at the origin and a sink at
# the destination, never hubs (module docstring).
_SOURCE, _SINK = -1, -2


def _hop_caps(travel_range: float):
    """The longest hop that fits, by the hubs among its two places: none
    (no hop), one (R/2) or two (R), each plus DIST_TOL."""
    half = travel_range / 2.0
    return (-INF, half + DIST_TOL, 2 * half + DIST_TOL)


class _PathCheck:
    """The original-variant check of one demand at route budget tau: its
    corridor, the nodes of the source and the sink (a hub is its own node),
    and the distance rows (the network's cached ones) of those nodes, from
    which each hop is read forward or backward. The travel range is read
    from the instance of each answer, not kept, because instances with
    other ranges may share the network."""

    __slots__ = ("tau", "corridor", "places", "rows")

    def __init__(self, network: Network, origin: int, dest: int, tau: float):
        self.tau = tau
        self.corridor = _detour_nodes(network, origin, dest, tau)
        self.places = {_SOURCE: origin, _SINK: dest}
        self.rows = {a: network.distances_from(a)
                     for a in self.corridor | {origin, dest}}

    def _search(self, instance: Instance, hubs, costs: dict, heap: list,
                forward: bool = True, parent: Optional[dict] = None) -> bool:
        """Dijkstra under the hop rule over the hubs, from the places queued
        in `heap`, lowering `costs`: the costs from the source (`forward`)
        or to the sink. True as soon as a forward search reaches the sink
        within tau; `parent`, when given, receives the predecessor of every
        place reached."""
        rows, places, budget = self.rows, self.places, self.tau + DIST_TOL
        caps = _hop_caps(instance.travel_range)
        end = _SINK if forward else _SOURCE
        # each place a hop can reach: its node, its row and whether a hub
        targets = [(b, b, rows[b], True) for b in hubs]
        targets.append((end, places[end], rows[places[end]], False))
        while heap:
            cost, a = heapq.heappop(heap)
            if cost > costs[a] + DIST_TOL:
                continue
            if cost > budget:
                return False  # every place still to come costs at least this
            if a == end:
                return True
            here = places.get(a, a)
            line, hub = rows[here], a >= 0
            for b, there, row, b_hub in targets:
                hop = line[there] if forward else row[here]
                if hop > caps[hub + b_hub]:
                    continue
                ncost = cost + hop
                if ncost < costs.get(b, INF) - DIST_TOL:
                    costs[b] = ncost
                    if parent is not None:
                        parent[b] = a
                    heapq.heappush(heap, (ncost, b))
        return False

    def served(self, instance: Instance, stations,
               parent: Optional[dict] = None) -> bool:
        """True iff the Dijkstra from the source reaches the sink within
        tau; `parent`, when given, receives the predecessor of every place
        reached."""
        return self._search(instance, self.corridor.intersection(stations),
                            {_SOURCE: 0.0}, [(0.0, _SOURCE)], parent=parent)

    def witness(self, instance: Instance, stations) -> Optional[Route]:
        """The verdict's route from the source to the sink, its places
        joined by shortest paths, or None when it is unserved."""
        parent = {}
        if not self.served(instance, stations, parent):
            return None
        hops = [_SINK]
        while hops[-1] != _SOURCE:
            hops.append(parent[hops[-1]])
        places = [self.places.get(a, a) for a in reversed(hops)]
        network, visits = instance.network, [places[0]]
        for a, b in zip(places, places[1:]):
            visits.extend(network.shortest_path(a, b)[1:])
        return make_route(network, visits, PATH)

    def shrink(self, instance: Instance, stations, closed) -> frozenset:
        """The drop-one pass by insertion (module docstring): the costs from
        the source and to the sink over the base hubs answer each closed
        node j with one scan, and a dropped j lowers them by decrease-only
        propagation."""
        rows, o, t = self.rows, self.places[_SOURCE], self.places[_SINK]
        caps, budget = _hop_caps(instance.travel_range), self.tau + DIST_TOL
        base = set(self.corridor.intersection(stations))
        from_s, to_t = {_SOURCE: 0.0}, {_SINK: 0.0}
        self._search(instance, base, from_s, [(0.0, _SOURCE)])
        self._search(instance, base, to_t, [(0.0, _SINK)], forward=False)
        kept = []
        for j in closed:
            # the hops into j from the source and the hubs, and out of j to
            # the hubs and the sink, with j a hub
            row = rows[j]
            into = min((cost + hop for a, cost in from_s.items()
                        if a != _SINK and (hop := rows[a if a >= 0 else o][j])
                        <= caps[1 + (a >= 0)]), default=INF)
            out = min((hop + cost for b, cost in to_t.items()
                       if b != _SOURCE and (hop := row[b if b >= 0 else t])
                       <= caps[1 + (b >= 0)]), default=INF)
            if into + out <= budget:
                kept.append(j)
                continue
            base.add(j)
            from_s[j], to_t[j] = into, out
            self._search(instance, base, from_s, [(into, j)])
            self._search(instance, base, to_t, [(out, j)], forward=False)
        return frozenset(kept)


def find_traversable_path(instance: Instance, demand: Demand, stations,
                          tau_path: float) -> Optional[Route]:
    """Original-variant check at route budget `tau_path`: a round trip over a
    path is repeatable iff one can depart the origin half-charged and arrive
    at the destination at least half-charged, recharging at stations.
    Returns a witness path within `tau_path`, or None."""
    require_variant(instance.network, ORIGINAL)
    check = _PathCheck(instance.network, demand.origin, demand.destination,
                       tau_path)
    return check.witness(instance, frozenset(stations))


def _detour_nodes(network: Network, a: int, b: int, budget: float) -> frozenset:
    """Nodes j with d(a,j) + d(j,b) <= budget."""
    out, back = network.distances_from(a), network.distances_to(b)
    return frozenset(j for j in range(network.num_nodes)
                     if out[j] + back[j] <= budget + DIST_TOL)


class _CycleCheck:
    """The cyclic check of one demand at route budget tau: its corridor, and
    the shortest distances between the corridor's nodes, a square matrix in
    the order of `nodes`, read once from the cached distance rows. The
    travel range is read from the instance of each verdict; the hop and
    segment matrices over the corridor are built once per travel range."""

    __slots__ = ("tau", "corridor", "nodes", "index", "o", "t", "ends",
                 "dist", "stacks")

    def __init__(self, network: Network, origin: int, dest: int, tau: float):
        self.tau = tau
        out = network.distances_to(dest)[origin]
        back = network.distances_to(origin)[dest]
        self.corridor = (_detour_nodes(network, origin, dest, tau - back)
                         | _detour_nodes(network, dest, origin, tau - out))
        self.nodes = sorted(self.corridor)
        self.index = {j: i for i, j in enumerate(self.nodes)}
        rows = np.array([network.distances_from(a) for a in self.nodes])
        d = self.dist = rows[:, self.nodes]
        o, t = self.o, self.t = self.index[origin], self.index[dest]
        # distances into and out of the destination, then the origin
        self.ends = np.stack([d[:, t], d[t], d[:, o], d[o]])
        self.stacks = {}

    def _stack(self, travel_range: float):
        """The hops, and the segments through t, through o and through both
        (module docstring), over the corridor, each infinite above one
        charge: one (4, c, c) array per travel range."""
        stack = self.stacks.get(travel_range)
        if stack is None:
            d, o, t = self.dist, self.o, self.t
            reach = travel_range + DIST_TOL
            to_t, from_t, to_o, from_o = self.ends
            both = np.minimum(
                _capped(to_t[:, None] + d[t, o] + from_o, reach),
                _capped(to_o[:, None] + d[o, t] + from_t, reach))
            stack = self.stacks[travel_range] = np.stack([
                _capped(d, reach), _capped(to_t[:, None] + from_t, reach),
                _capped(to_o[:, None] + from_o, reach), both])
        return stack

    def _rejected(self, travel_range: float, hubs, mins) -> bool:
        """The pre-check: `mins` holds the least distance from a hub into
        the destination and out of it, then into and out of the origin."""
        limit = travel_range + 2 * DIST_TOL
        return (self.t not in hubs and mins[0] + mins[1] > limit
                or self.o not in hubs and mins[2] + mins[3] > limit)

    def _value(self, hubs, p, blocks, root: Optional[int] = None) -> float:
        """The length of the shortest cycle over the hubs, given their
        closure `p` and their blocks of the stack. With `root`, the loop
        term of a cycle with neither end a station is taken only over the
        cycles through the hub at that position (module docstring)."""
        o_open, t_open = self.o in hubs, self.t in hubs
        if o_open and t_open:
            a, b = hubs.index(self.o), hubs.index(self.t)
            return p[a, b] + p[b, a]
        if o_open or t_open:
            # the charge segment through the closed end, from hub c to e
            a = hubs.index(self.o if o_open else self.t)
            return (p[a][:, None] + blocks[1 if o_open else 2]
                    + p[:, a]).min()
        # one segment through both ends, from hub a back to hub b
        value = (p.T + blocks[3]).min()
        if root is None:
            # a segment through each end: s1 ~> c -> t -> e ~> sk -> o -> s1
            loop = _min_plus(_min_plus(p, blocks[1]), p) + blocks[2].T
        else:
            # from the root through t, then o (and through o, then t):
            # root ~> c -> t -> e ~> sk -> o -> s1 ~> root
            seg = blocks[1:3]
            loop = (p[root][:, None] + seg).min(1)
            loop = (loop[:, :, None] + p).min(1)
            loop = (loop[:, :, None] + seg[::-1]).min(1) + p[:, root]
        return min(value, loop.min())

    def served(self, instance: Instance, stations) -> bool:
        """The pre-check, then the min-plus check over the hubs (module
        docstring)."""
        hubs = [i for i, j in enumerate(self.nodes) if j in stations]
        if not hubs:
            return False
        if self._rejected(instance.travel_range, hubs,
                          self.ends.take(hubs, 1).min(1)):
            return False
        blocks = self._stack(instance.travel_range).take(hubs, 1).take(hubs, 2)
        p = _closure(blocks[0])
        return bool(self._value(hubs, p, blocks) <= self.tau + DIST_TOL)

    def shrink(self, instance: Instance, stations, closed) -> frozenset:
        """The drop-one pass by insertion (module docstring): the base hubs
        are closed once, and each closed node j is inserted into that
        closure in O(h^2); the closure with j is kept only when j is
        dropped."""
        travel_range = instance.travel_range
        stack, ends = self._stack(travel_range), self.ends
        base = [i for i, j in enumerate(self.nodes) if j in stations]
        p = _closure(stack[0].take(base, 0).take(base, 1))
        mins = ends.take(base, 1).min(1, initial=INF)
        budget = self.tau + DIST_TOL
        kept = []
        for node in closed:
            j, h = self.index[node], len(base)
            hubs = base + [j]
            blocks = stack.take(hubs, 1).take(hubs, 2)
            # the closure with j, in place of j's hops: a ~> j and j ~> b
            # through the base, then a ~> j ~> b
            q = blocks[0]
            into = (p + q[:h, h]).min(1, initial=INF)
            out = (q[h, :h, None] + p).min(0, initial=INF)
            np.minimum(p, into[:, None] + out, out=q[:h, :h])
            q[:h, h], q[h, :h] = into, out
            hub_mins = np.minimum(mins, ends[:, j])
            if (not self._rejected(travel_range, hubs, hub_mins)
                    and self._value(hubs, q, blocks, root=h) <= budget):
                kept.append(node)
            else:
                base, p, mins = hubs, q, hub_mins
        return frozenset(kept)


def _closure(p):
    """The min-plus (Floyd-Warshall) closure of the square matrix p, in
    place."""
    for k in range(len(p)):
        np.minimum(p, p[:, k, None] + p[k], out=p)
    return p


def _capped(seg, reach: float):
    """The segment lengths, infinite where they exceed one charge."""
    return np.where(seg <= reach, seg, INF)


def _min_plus(a, b):
    """The min-plus product of two square matrices."""
    return (a[:, :, None] + b[None, :, :]).min(axis=1)


def _check(instance: Instance, demand: Demand, variant: str):
    """The demand's check under the variant: (corridor, served, witness,
    shrink), where `served(instance, stations)` gives a verdict, `witness` a
    traversable admissible route or None, and `shrink(instance, stations,
    closed)` the kept nodes of the drop-one pass (`shrink_cut`). The one
    place that tells explicit routes, ORIGINAL and CYCLIC apart. Built on
    first use and kept in the network's check cache, keyed by (demand,
    variant)."""
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

        def shrink(inst, stations, closed):
            # one verdict per closed node
            base, kept = set(stations), []
            for j in closed:
                if served(inst, base | {j}):
                    kept.append(j)
                else:
                    base.add(j)
            return frozenset(kept)
    elif variant == ORIGINAL:
        tau = route_budget(instance, demand, ORIGINAL)
        path = _PathCheck(network, demand.origin, demand.destination, tau)
        # the verdict is the parent-free Dijkstra, which builds no route
        zone, served, witness, shrink = (path.corridor, path.served,
                                         path.witness, path.shrink)
    else:
        tau = route_budget(instance, demand, CYCLIC)
        cycle = _CycleCheck(network, demand.origin, demand.destination, tau)
        zone, served, shrink = cycle.corridor, cycle.served, cycle.shrink

        def witness(inst, stations):
            # the labeling search runs only for a served station set
            if not served(inst, stations):
                return None
            return search_cycle(CycleQuery(inst, demand, stations, tau)).witness
    check = network._checks[(demand, variant)] = (zone, served, witness,
                                                  shrink)
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


def shrink_cut(instance: Instance, demand: Demand, stations, closed,
               variant: str) -> frozenset:
    """The ascending drop-one pass of separation. `stations` must leave the
    demand unserved. Each node of `closed`, in the order given, is dropped
    iff the demand stays unserved when it is opened besides `stations` and
    the nodes dropped before it; the nodes kept are returned. Equal to that
    loop over `is_served`, one verdict per node, but answered inside the
    demand's check (module docstring)."""
    return _check(instance, demand, variant)[3](instance, frozenset(stations),
                                                closed)
