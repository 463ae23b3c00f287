"""Graph and instance model, instance file I/O, validation and shortest paths.

Node ids are dense 0-based integers internally; the JSON file format uses
string names which are mapped to ids at parse time. Instances are immutable
after construction and safe to share across workers.
"""

from __future__ import annotations

import heapq
import json
import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Iterable, Optional, Tuple

DIST_TOL = 1e-9

ORIGINAL = "original"
CYCLIC = "cyclic"
VARIANTS = (ORIGINAL, CYCLIC)

# Objectives of the location problem: the demand volume served by at most a
# budget of stations, or the fewest stations that serve a coverage share.
MAX_COVER = "max_cover"
MIN_STATIONS = "min_stations"


class ParseError(ValueError):
    """Raised when an instance document is malformed."""


class ValidationError(ValueError):
    """Raised when an instance violates an invariant that pruning cannot repair."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class UnknownNodeError(KeyError):
    """Raised on lookups of node ids that do not exist."""


@dataclass(frozen=True)
class Edge:
    u: int
    v: int
    length: float
    directed: bool = False


@dataclass(frozen=True)
class Network:
    """Undirected/mixed graph with positive edge lengths.

    An undirected edge is stored once and traversable both ways.
    """

    node_names: Tuple[str, ...]
    edges: Tuple[Edge, ...]

    @property
    def num_nodes(self) -> int:
        return len(self.node_names)

    def index(self, name: str) -> int:
        return self.node_names.index(name)

    def name(self, node: int) -> str:
        return self.node_names[node]

    @cached_property
    def adjacency(self):
        """adjacency[u] -> tuple of (v, length) respecting edge directions,
        sorted by v. Of parallel arcs u -> v only the shortest is kept: a
        longer one never makes a walk traversable that the shorter does not,
        and would list the walk once more as a route."""
        adj = [{} for _ in range(self.num_nodes)]

        def add(u, v, length):
            if length < adj[u].get(v, math.inf):
                adj[u][v] = length

        for e in self.edges:
            add(e.u, e.v, e.length)
            if not e.directed:
                add(e.v, e.u, e.length)
        return tuple(tuple(sorted(a.items())) for a in adj)

    def arc_length(self, u: int, v: int) -> Optional[float]:
        """Length of the shortest direct arc u -> v, or None if absent."""
        for w, length in self.adjacency[u]:
            if w == v:
                return length
        return None

    @cached_property
    def has_directed_edge(self) -> bool:
        """True iff some edge is one-way."""
        return any(e.directed for e in self.edges)

    # Caches, each filled on first use: distance rows by source, their
    # shortest-path trees, distance columns by target, and the servedness
    # checks of `feasibility` by (demand, variant).
    @cached_property
    def _rows(self):
        return {}

    @cached_property
    def _parent_cache(self):
        return {}

    @cached_property
    def _columns(self):
        return {}

    @cached_property
    def _checks(self):
        return {}

    def _check_node(self, node: int):
        if not 0 <= node < self.num_nodes:
            raise UnknownNodeError(f"unknown node id {node}")

    def distances_from(self, source: int):
        """All shortest distances from `source` along arc directions
        (Dijkstra), cached per source. The same run records a shortest-path
        tree for `shortest_path`."""
        self._check_node(source)
        cached = self._rows.get(source)
        if cached is not None:
            return cached
        adj = self.adjacency
        dist = [math.inf] * self.num_nodes
        parent = [None] * self.num_nodes
        dist[source] = 0.0
        heap = [(0.0, source)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u] + DIST_TOL:
                continue
            for v, length in adj[u]:
                nd = d + length
                if nd < dist[v] - DIST_TOL:
                    dist[v] = nd
                    parent[v] = u
                    heapq.heappush(heap, (nd, v))
        result = tuple(dist)
        self._rows[source] = result
        self._parent_cache[source] = tuple(parent)
        return result

    def distances_to(self, target: int):
        """All shortest distances to `target` along arc directions, cached per
        target; entry j is `distances_from(j)[target]`."""
        self._check_node(target)
        cached = self._columns.get(target)
        if cached is None:
            cached = tuple(self.distances_from(j)[target]
                           for j in range(self.num_nodes))
            self._columns[target] = cached
        return cached

    def shortest_path(self, source: int, target: int):
        """A shortest node sequence source -> target, or None if unreachable,
        read off the shortest-path tree of `distances_from(source)`."""
        self._check_node(target)
        if math.isinf(self.distances_from(source)[target]):
            return None
        parent = self._parent_cache[source]
        path = [target]
        while path[-1] != source:
            path.append(parent[path[-1]])
        path.reverse()
        return tuple(path)


def shortest_distance(network: Network, source: int, target: int) -> float:
    """Shortest walk length from source to target; math.inf if unreachable."""
    network._check_node(target)
    return network.distances_from(source)[target]


@dataclass(frozen=True)
class Demand:
    """An origin-destination flow with either a deviation factor or explicit routes."""

    origin: int
    destination: int
    volume: float
    alpha: Optional[float] = None
    routes: Optional[Tuple[Tuple[int, ...], ...]] = None


@dataclass(frozen=True)
class PlacementConstraints:
    budget: Optional[int] = None
    forced_open: frozenset = frozenset()
    forced_closed: frozenset = frozenset()


@dataclass(frozen=True)
class Instance:
    network: Network
    demands: Tuple[Demand, ...]
    travel_range: float
    placement: PlacementConstraints = PlacementConstraints()
    variant_default: str = ORIGINAL
    pruning_report: Tuple[str, ...] = field(default=(), compare=False)

    @property
    def num_nodes(self) -> int:
        return self.network.num_nodes


def _route_walks_network(network: Network, route: Iterable[int]) -> bool:
    route = tuple(route)
    if any(not 0 <= n < network.num_nodes for n in route):
        return False
    return all(network.arc_length(u, v) is not None for u, v in zip(route, route[1:]))


def _explicit_route_violations(network: Network, demand: Demand, route, variant: str):
    if not route:
        return ["is empty"]
    problems = []
    if variant == ORIGINAL:
        if route[0] != demand.origin or route[-1] != demand.destination:
            problems.append("must start at the origin and end at the destination")
    else:
        if route[0] != demand.origin or route[-1] != demand.origin:
            problems.append("must start and end at the origin")
        elif demand.destination not in route:
            problems.append("must visit the destination")
    if not _route_walks_network(network, route):
        problems.append("has consecutive nodes not joined by a traversable edge")
    return problems


def trip_length(network: Network, demand: Demand, variant: str) -> float:
    """Length of the demand's shortest trip, which its admissible routes may
    exceed by the factor alpha: d(o,t), plus the return leg d(t,o) under
    CYCLIC; math.inf when either leg is unreachable."""
    length = shortest_distance(network, demand.origin, demand.destination)
    if variant == CYCLIC:
        length += shortest_distance(network, demand.destination, demand.origin)
    return length


def _demand_has_routes(network: Network, demand: Demand, variant: str) -> bool:
    if demand.routes is not None:
        return len(demand.routes) > 0
    return math.isfinite(trip_length(network, demand, variant))


def budget_violations(budget: Optional[int], placement: PlacementConstraints):
    """The station budget rule (no rule when `budget` is None): a budget is
    nonnegative and leaves room for every forced-open node."""
    if budget is None:
        return []
    if not budget >= 0:
        return ["budget must be nonnegative"]
    if len(placement.forced_open) > budget:
        return ["forced_open exceeds the budget"]
    return []


def variant_violations(network: Network, variant: Optional[str]):
    """The routing variant rule (no rule when `variant` is None): the
    original variant requires an undirected network."""
    if variant == ORIGINAL and network.has_directed_edge:
        return ["original variant requires an undirected network"]
    return []


def require_variant(network: Network, variant: Optional[str]):
    """Raise ValidationError unless the network admits the variant (see
    `variant_violations`)."""
    violations = variant_violations(network, variant)
    if violations:
        raise ValidationError(violations)


def _hard_violations(instance: Instance):
    """Every violation that pruning cannot repair. No shortest path is
    computed; the bounds are written so that NaN fails them."""
    violations = []
    net = instance.network
    n = net.num_nodes
    if not 0 < instance.travel_range < math.inf:
        violations.append("travel range must be positive and finite")
    for i, e in enumerate(net.edges):
        if not (0 <= e.u < n and 0 <= e.v < n):
            violations.append(f"edge #{i}: references an unknown node")
            continue
        where = f"edge #{i} ({net.name(e.u)}-{net.name(e.v)})"
        if e.u == e.v:
            violations.append(f"{where}: self-loop")
        if not 0 < e.length < math.inf:
            violations.append(f"{where}: non-positive or non-finite length {e.length}")
    violations.extend(variant_violations(net, instance.variant_default))
    for i, q in enumerate(instance.demands):
        tag = f"demand #{i}"
        if not (0 <= q.origin < n and 0 <= q.destination < n):
            violations.append(f"{tag}: unknown origin or destination node")
            continue
        if q.origin == q.destination:
            violations.append(f"{tag}: origin equals destination")
        if not 0 <= q.volume < math.inf:
            violations.append(f"{tag}: negative or non-finite volume")
        if (q.alpha is None) == (q.routes is None):
            violations.append(f"{tag}: exactly one of alpha/routes must be given")
        elif q.alpha is not None and not 1.0 <= q.alpha < math.inf:
            violations.append(f"{tag}: alpha must be >= 1 and finite")
        elif q.routes is not None:
            for j, route in enumerate(q.routes):
                for problem in _explicit_route_violations(
                        net, q, route, instance.variant_default):
                    violations.append(f"{tag} route #{j}: {problem}")
    pc = instance.placement
    if pc.forced_open & pc.forced_closed:
        violations.append("forced_open and forced_closed overlap")
    violations.extend(budget_violations(pc.budget, pc))
    for node in pc.forced_open | pc.forced_closed:
        if not 0 <= node < n:
            violations.append(f"placement references unknown node {node}")
    return violations


def _pruned(instance: Instance) -> Instance:
    """The instance without its edges longer than the travel range, the
    explicit routes over them and the demands left without a route, each
    removal recorded in `pruning_report`. When no edge goes, the input
    network is kept, so the distances computed here stay in its cache."""
    net, travel_range = instance.network, instance.travel_range
    names = net.node_names
    report = []
    kept_edges = []
    for e in net.edges:
        if e.length > travel_range + DIST_TOL:
            report.append(f"pruned edge {names[e.u]}-{names[e.v]} "
                          f"(length {e.length} exceeds range {travel_range})")
        else:
            kept_edges.append(e)
    network = net if len(kept_edges) == len(net.edges) else \
        Network(names, tuple(kept_edges))

    kept_demands = []
    for i, q in enumerate(instance.demands):
        if q.routes is not None:
            valid_routes = []
            for route in q.routes:
                if _route_walks_network(network, route):
                    valid_routes.append(tuple(route))
                else:
                    report.append(f"pruned route {route} of demand #{i} "
                                  "(uses a pruned edge)")
            q = replace(q, routes=tuple(valid_routes))
        if _demand_has_routes(network, q, instance.variant_default):
            kept_demands.append(q)
        else:
            report.append(f"pruned demand #{i} "
                          f"({names[q.origin]}->{names[q.destination]}): "
                          "empty route set")
    return replace(instance, network=network, demands=tuple(kept_demands),
                   pruning_report=tuple(report))


def validate_instance(instance: Instance):
    """Every invariant violation as a human-readable string: the structural
    ones, or, when there are none, each removal load-time pruning would make.
    A structurally broken instance lists only its structural violations."""
    return _hard_violations(instance) or list(_pruned(instance).pruning_report)


def _parse_node_ref(value, name_to_id, context):
    """A node reference is a node name, also when it is a number."""
    if isinstance(value, bool):
        raise ParseError(f"{context}: invalid node reference {value!r}")
    key = str(value)
    if key not in name_to_id:
        raise ParseError(f"{context}: unknown node name {key!r}")
    return name_to_id[key]


def _parse_number(value, what: str) -> float:
    """A finite JSON number (an int or a float, not a bool or a string)."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            if math.isfinite(value):
                return float(value)
        except OverflowError:  # an int too large for a float
            pass
    raise ParseError(f"{what} must be a finite number, not {value!r}")


def _parse_list(value, what: str) -> list:
    """A JSON array (a string or a number is not read as one)."""
    if not isinstance(value, list):
        raise ParseError(f"{what} must be a list")
    return value


def _parse_budget(value) -> Optional[int]:
    """A station budget: a whole number (2 or 2.0), or None when absent."""
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)) or \
            (isinstance(value, float) and not value.is_integer()):
        raise ParseError(f"'placement.budget' must be a whole number, not {value!r}")
    return int(value)


def parse_instance(document: str) -> Instance:
    """Parse and validate an instance document, pruning long edges and
    demands with empty route sets (recorded in `pruning_report`)."""
    try:
        data = json.loads(document)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: "
                         f"{exc.msg}") from exc
    except RecursionError:
        raise ParseError("invalid JSON: nested too deeply") from None
    if not isinstance(data, dict):
        raise ParseError("top-level value must be an object")
    for key in ("range", "nodes", "edges", "demands"):
        if key not in data:
            raise ParseError(f"missing required key {key!r}")
    travel_range = _parse_number(data["range"], "'range'")
    for key in ("nodes", "edges", "demands"):
        _parse_list(data[key], repr(key))
    variant = data.get("variant", ORIGINAL)
    if variant not in VARIANTS:
        raise ParseError(f"'variant' must be one of {VARIANTS}")

    names = [str(x) for x in data["nodes"]]
    if len(set(names)) != len(names):
        raise ParseError("duplicate node names")
    name_to_id = {name: i for i, name in enumerate(names)}

    edges = []
    for i, item in enumerate(data["edges"]):
        ctx = f"edges[{i}]"
        if not isinstance(item, dict):
            raise ParseError(f"{ctx}: must be an object")
        try:
            u = _parse_node_ref(item["u"], name_to_id, ctx)
            v = _parse_node_ref(item["v"], name_to_id, ctx)
            length = _parse_number(item["length"], f"{ctx}: 'length'")
        except KeyError as exc:
            raise ParseError(f"{ctx}: missing field {exc.args[0]!r}")
        directed = item.get("directed", False)
        if not isinstance(directed, bool):
            raise ParseError(f"{ctx}: 'directed' must be true or false, "
                             f"not {directed!r}")
        edges.append(Edge(u, v, length, directed))

    demands = []
    for i, item in enumerate(data["demands"]):
        ctx = f"demands[{i}]"
        if not isinstance(item, dict):
            raise ParseError(f"{ctx}: must be an object")
        try:
            origin = _parse_node_ref(item["origin"], name_to_id, ctx)
            dest = _parse_node_ref(item["destination"], name_to_id, ctx)
            volume = _parse_number(item.get("volume", 1.0), f"{ctx}: 'volume'")
        except KeyError as exc:
            raise ParseError(f"{ctx}: missing field {exc.args[0]!r}")
        alpha = item.get("alpha")
        routes = item.get("routes")
        if alpha is not None:
            alpha = _parse_number(alpha, f"{ctx}: 'alpha'")
        if routes is not None:
            routes = tuple(
                tuple(_parse_node_ref(nref, name_to_id, f"{ctx}.routes[{j}]")
                      for nref in _parse_list(route, f"{ctx}.routes[{j}]"))
                for j, route in enumerate(_parse_list(routes, f"{ctx}: 'routes'")))
        demands.append(Demand(origin, dest, volume, alpha, routes))

    placement = PlacementConstraints()
    if "placement" in data and data["placement"] is not None:
        p = data["placement"]
        if not isinstance(p, dict):
            raise ParseError("'placement' must be an object")
        placement = PlacementConstraints(
            budget=_parse_budget(p.get("budget")),
            forced_open=frozenset(
                _parse_node_ref(x, name_to_id, "placement.open")
                for x in _parse_list(p.get("open", []), "'placement.open'")),
            forced_closed=frozenset(
                _parse_node_ref(x, name_to_id, "placement.closed")
                for x in _parse_list(p.get("closed", []), "'placement.closed'")))

    return build_instance(names, edges, demands, travel_range, placement, variant)


def build_instance(node_names, edges, demands, travel_range,
                   placement=PlacementConstraints(),
                   variant_default=ORIGINAL) -> Instance:
    """Assemble a validated Instance, applying the load-time pruning rules."""
    raw = Instance(Network(tuple(str(x) for x in node_names), tuple(edges)),
                   tuple(demands), travel_range, placement, variant_default)
    violations = _hard_violations(raw)
    if violations:
        raise ValidationError(violations)
    return _pruned(raw)


def serialize_instance(instance: Instance) -> str:
    """Emit the JSON document format accepted by parse_instance."""
    net = instance.network
    doc = {
        "range": instance.travel_range,
        "variant": instance.variant_default,
        "nodes": list(net.node_names),
        "edges": [
            {"u": net.name(e.u), "v": net.name(e.v), "length": e.length,
             **({"directed": True} if e.directed else {})}
            for e in net.edges
        ],
        "demands": [
            {"origin": net.name(q.origin), "destination": net.name(q.destination),
             "volume": q.volume,
             **({"alpha": q.alpha} if q.alpha is not None else
                {"routes": [[net.name(n) for n in r] for r in q.routes]})}
            for q in instance.demands
        ],
    }
    pc = instance.placement
    if pc.budget is not None or pc.forced_open or pc.forced_closed:
        doc["placement"] = {}
        if pc.budget is not None:
            doc["placement"]["budget"] = pc.budget
        if pc.forced_open:
            doc["placement"]["open"] = sorted(net.name(j) for j in pc.forced_open)
        if pc.forced_closed:
            doc["placement"]["closed"] = sorted(net.name(j) for j in pc.forced_closed)
    return json.dumps(doc, indent=2)
