"""Per-layer tracing of frlp, recorded from outside the package.

`Tracer.installed()` replaces public module-level names of frlp with timing
wrappers, at the place where their callers look them up, and restores them on
exit. Nothing inside `src/frlp` changes.

Every wrapped call is a span (name, start, end, parent). A cyclic pass makes
millions of `distances_from` calls, so spans are not stored one by one:
each span is folded into per-name totals when it closes. Its self time is its
duration minus the durations of its direct children, which is exactly what a
stored span tree would give. Counters that the workloads' layer metrics need
(labels selected, routes, covering sets, LP rows, repeated arguments) are
taken at the same boundaries, from the arguments and results.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

from frlp import feasibility, lp, network, solver

# Layer of each span name is the part before the first dot.
LAYERS = ("solver", "feasibility", "network", "lp", "routes", "covering")


def _observe_is_served(tracer, args, kwargs, result):
    instance, demand, stations, variant = args
    key = (id(instance), demand, variant, frozenset(stations))
    if key in tracer.seen_served:
        tracer.count("feasibility.is_served.repeats")
    tracer.seen_served.add(key)


def _observe_distances_from(tracer, args, kwargs, result):
    net, source = args[0], args[1]
    direction = args[2] if len(args) > 2 else kwargs.get("respect_direction", True)
    tracer.seen_sources.add((id(net), source, direction))


def _observe_search_cycle(tracer, args, kwargs, result):
    tracer.count("feasibility.search_cycle.labels", len(result.selected))


def _observe_solve_lp(tracer, args, kwargs, result):
    tracer.count("lp.solve_lp.rows", len(args[0].rows))


def _observe_enumerate_routes(tracer, args, kwargs, result):
    tracer.count("routes.count", len(result))


def _observe_cut_sets(tracer, args, kwargs, result):
    tracer.count("covering.sets", len(result.sets))


def _observe_solve(tracer, args, kwargs, result):
    tracer.count("solver.bb_nodes", result.stats.bb_nodes)
    tracer.count("solver.cuts", result.stats.cuts)


def _observe_aggregate(tracer, args, kwargs, result):
    # frlp.lp passes a demand's per-route families as a tuple.
    tracer.count("covering.per_route_sets", sum(len(f.sets) for f in args[0]))
    tracer.count("covering.aggregated_sets", len(result.sets))


# (owner, attribute, span name, observer). The owner is the module (or class)
# through which the callers look the name up.
TARGETS = (
    (solver, "solve", "solver.solve", _observe_solve),
    (solver, "separate", "solver.separate", None),
    (solver, "is_served", "feasibility.is_served", _observe_is_served),
    (solver, "solve_lp", "lp.solve_lp", _observe_solve_lp),
    (feasibility, "search_cycle", "feasibility.search_cycle",
     _observe_search_cycle),
    (feasibility, "find_traversable_path", "feasibility.find_traversable_path",
     None),
    (network.Network, "distances_from", "network.distances_from",
     _observe_distances_from),
    (lp, "prepare_route_data", "lp.prepare_route_data", None),
    (lp, "build_model", "lp.build_model", None),
    (lp, "lp_bound", "lp.lp_bound", None),
    (lp, "solve_lp", "lp.solve_lp", _observe_solve_lp),
    (lp, "enumerate_routes", "routes.enumerate_routes",
     _observe_enumerate_routes),
    (lp, "cut_sets_for_cycle", "covering.cut_sets_for_cycle",
     _observe_cut_sets),
    (lp, "aggregate_cut_sets", "covering.aggregate_cut_sets",
     _observe_aggregate),
)


class Tracer:
    """Span totals per name: [calls, total seconds, self seconds].

    `seen_sources` may be shared between the tracers of several passes, so
    that a distance list asked again of a network from an earlier pass counts
    as a hit; the caller keeps those networks alive, so their ids stay unique.
    """

    def __init__(self, seen_sources=None):
        self.totals = {}
        self.counters = {}
        self.seen_served = set()
        self.seen_sources = set() if seen_sources is None else seen_sources
        self._sources_before = len(self.seen_sources)
        self._stack = []

    def count(self, name, amount=1):
        self.counters[name] = self.counters.get(name, 0) + amount

    @property
    def new_sources(self):
        """Distinct (network, source, direction) keys first asked under this
        tracer."""
        return len(self.seen_sources) - self._sources_before

    def _wrap(self, name, fn, observe):
        stack = self._stack
        totals = self.totals.setdefault(name, [0, 0.0, 0.0])
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [0.0]  # time covered by direct children
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                totals[0] += 1
                totals[1] += duration
                totals[2] += duration - frame[0]
            if observe is not None:
                begin = clock()
                observe(self, args, kwargs, result)
                if stack:  # bookkeeping is nobody's self time: it shows as other
                    stack[-1][0] += clock() - begin
            return result

        return traced

    @contextmanager
    def installed(self):
        saved = []
        try:
            for owner, attr, name, observe in TARGETS:
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original, observe))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def calls(self, name):
        return self.totals.get(name, [0, 0.0, 0.0])[0]

    def self_s(self, name):
        return self.totals.get(name, [0, 0.0, 0.0])[2]

    def layer_self_s(self, layer):
        return sum(t[2] for name, t in self.totals.items()
                   if name.split(".", 1)[0] == layer)
