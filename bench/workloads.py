"""Instance pools, timed operations and result checks of the frlp benchmark.

A pool is a list of cases built from fixed `gen_random` / gen-family calls.
The workload seed shuffles the edge list of every serialised case and flips
the ends of undirected edges. That changes the order in which the searches
inside the servedness checks meet arcs and labels, but no distance, verdict,
route set or LP, so the solver's branch-and-bound tree, its cuts and the
goldens pinned at seed 0 hold on every seed, and the timed work stays
comparable between seeds. (A node relabelling would change how the solver
breaks ties, and with it the tree: pass times then differ by up to 1.7x
between seeds.) Fresh instances drawn from the seed are checked against the
brute-force oracle in `held_out`. Seed 0 leaves the serialised instances as
the generators produce them.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass
from typing import Callable, Optional

from frlp import generators, lp, network, oracle, routes, solver
from frlp.feasibility import is_served

CYCLIC, ORIGINAL = network.CYCLIC, network.ORIGINAL
MAX_COVER, MIN_STATIONS = solver.MAX_COVER, solver.MIN_STATIONS

# The pool parameters of gen_random: sparse graphs, one demand per node,
# and a budget of 5 stations for max-cover.
DENSITY = 0.15
BUDGET = 5
TOL = 1e-6


def _random(seed, n, variant, objective):
    budget = BUDGET if objective == MAX_COVER else None
    return lambda: generators.gen_random(seed, n, density=DENSITY, num_demands=n,
                                         variant=variant, budget=budget)


@dataclass(frozen=True)
class Case:
    label: str
    make: Callable[[], network.Instance]
    kind: str  # "solve" or "bounds"
    variant: str
    objective: str = MAX_COVER
    disagg: bool = True  # bounds cases: also compute the disaggregated LP


def _solve_case(variant, objective, n, seed):
    tag = "max" if objective == MAX_COVER else "min"
    return Case(f"{variant[:3]}-{tag}-n{n}-s{seed}", _random(seed, n, variant, objective),
                "solve", variant, objective)


WORKLOADS = {
    # is_served/search_cycle dominate; the LP is a small share.
    "cyclic-sep": [
        _solve_case(CYCLIC, MAX_COVER, 24, 0),
        _solve_case(CYCLIC, MIN_STATIONS, 24, 1),
        _solve_case(CYCLIC, MAX_COVER, 32, 0),
        _solve_case(CYCLIC, MIN_STATIONS, 32, 0),
    ],
    # Many small LP re-solves with cut rows, plus refuelling-network paths.
    "original-bb": [
        _solve_case(ORIGINAL, MAX_COVER, 60, 0),
        _solve_case(ORIGINAL, MAX_COVER, 40, 2),
        _solve_case(ORIGINAL, MIN_STATIONS, 40, 0),
        _solve_case(ORIGINAL, MIN_STATIONS, 60, 0),
    ],
    # One large cold LP per bound, and route/cut-set construction at volume.
    "bounds-lp": [
        Case("ori-bounds-n16-s0", _random(0, 16, ORIGINAL, MAX_COVER), "bounds", ORIGINAL),
        Case("ori-bounds-n20-s0", _random(0, 20, ORIGINAL, MAX_COVER), "bounds", ORIGINAL),
        Case("prop5a-20", lambda: generators.gen_prop5a(20), "bounds", ORIGINAL),
        Case("prop5b-5", lambda: generators.gen_prop5b(5)[0], "bounds", ORIGINAL,
             disagg=False),
        Case("cyc-bounds-n16-s0", _random(0, 16, CYCLIC, MAX_COVER), "bounds", CYCLIC),
    ],
}


def shuffle_edges(document: str, rng: random.Random) -> str:
    """The same instance with its edges listed in another order and the
    ends of some undirected edges swapped."""
    doc = json.loads(document)
    rng.shuffle(doc["edges"])
    for edge in doc["edges"]:
        if not edge.get("directed") and rng.random() < 0.5:
            edge["u"], edge["v"] = edge["v"], edge["u"]
    return json.dumps(doc)


def documents(cases, seed):
    """Generate and serialise the pool; seed 0 keeps generator order."""
    docs = []
    for index, case in enumerate(cases):
        text = network.serialize_instance(case.make())
        if seed != 0:
            text = shuffle_edges(text, random.Random(seed * 1009 + index))
        docs.append(text)
    return docs


def setup(cases, seed):
    """One cold copy of every instance: generate, serialise, parse."""
    return [network.parse_instance(doc) for doc in documents(cases, seed)]


# ---------------------------------------------------------------------------
# Operations. Library names are looked up through their modules at call time,
# so a traced pass sees the wrapped versions.
# ---------------------------------------------------------------------------

@dataclass
class Op:
    case: Case
    step: str  # "solve", "routes", "disagg" or "agg"
    seconds: float = 0.0
    error: Optional[str] = None
    result: object = None


def disagg_bound(instance, route_data):
    return lp.lp_bound(lp.build_model(instance, lp.DISAGG, route_data=route_data))


def agg_bound(instance, route_data):
    return lp.lp_bound(lp.build_model(instance, lp.AGG,
                                      families=[d.aggregated for d in route_data]))


def run_case(case: Case, instance, clock=time.perf_counter):
    """Run the case's operations in order, each timed on its own. An
    operation that raises is recorded as failed and the pass goes on."""
    ops = []

    def timed(step, fn, *args):
        op = Op(case, step)
        ops.append(op)
        start = clock()
        try:
            op.result = fn(*args)
        except Exception as exc:  # any failure of the library is a result
            op.error = f"{type(exc).__name__}: {exc}"
        op.seconds = clock() - start
        return op

    if case.kind == "solve":
        timed("solve", solver.solve,
              solver.SolveRequest(instance, case.variant, case.objective))
        return ops
    # As `frlp bounds` does: routes and per-route covering families, then the
    # disaggregated and aggregated relaxations.
    routes = timed("routes", lp.prepare_route_data, instance, case.variant)
    if routes.error is None:
        if case.disagg:
            timed("disagg", disagg_bound, instance, routes.result)
        timed("agg", agg_bound, instance, routes.result)
    return ops


# ---------------------------------------------------------------------------
# Checks: goldens of the pool plus invariants that hold on any instance.
# ---------------------------------------------------------------------------

def _close(a, b):
    return abs(a - b) <= TOL * max(1.0, abs(b))


def check_solution(instance, variant, objective, sol, golden=None):
    """Problems with a solve result; an empty list means it is correct."""
    problems = []
    stations = sol.stations
    served = tuple(is_served(instance, q, stations, variant) for q in instance.demands)
    if tuple(sol.served) != served:
        problems.append("served flags disagree with is_served")
    if not sol.optimal:
        problems.append("not proven optimal without limits")
    if objective == MAX_COVER:
        volume = solver.reevaluate(instance, stations, variant)
        if not _close(sol.objective, volume):
            problems.append(f"objective {sol.objective} != served volume {volume}")
        budget = instance.placement.budget
        if budget is not None and len(stations) > budget:
            problems.append(f"{len(stations)} stations over budget {budget}")
        if sol.bound < sol.objective - TOL:
            problems.append(f"bound {sol.bound} below objective {sol.objective}")
    else:
        if not all(served):
            problems.append("full coverage leaves a demand unserved")
        if not _close(sol.objective, len(stations)):
            problems.append("objective is not the station count")
        if sol.bound > sol.objective + TOL:
            problems.append(f"bound {sol.bound} above objective {sol.objective}")
    if golden is not None and not _close(sol.objective, golden):
        problems.append(f"objective {sol.objective} != golden {golden}")
    return problems


def check_bounds(disagg, agg, optimum, golden=None):
    """Problems with the relaxation values of one instance. `disagg` is None
    when it failed or was not computed; `optimum` is None when unknown."""
    problems = []
    golden = golden or {}
    for name, value in (("disagg", disagg), ("agg", agg)):
        if value is not None and golden.get(name) is not None \
                and not _close(value, golden[name]):
            problems.append(f"{name} bound {value} != golden {golden[name]}")
    if disagg is not None and agg is not None and disagg < agg - TOL:
        problems.append(f"disagg {disagg} below agg {agg}")
    if agg is not None and optimum is not None and agg < optimum - TOL:
        problems.append(f"agg {agg} below max-cover optimum {optimum}")
    return problems


def check_case(case, instance, ops, goldens):
    """Problems with the results of one case's successful operations."""
    golden = goldens.get(case.label, {})
    if case.kind == "solve":
        op = ops[0]
        if op.error is not None:
            return []
        return check_solution(instance, case.variant, case.objective, op.result,
                              golden.get("objective"))
    values = {op.step: op.result for op in ops if op.error is None}
    return check_bounds(values.get("disagg"), values.get("agg"),
                        golden.get("max_cover"), golden)


def _oracle_sized(seed, n, variant, objective, max_routes=150):
    """The first instance drawn from the seed whose demands have at most
    `max_routes` admissible routes in all, so that the brute-force oracle
    stays within seconds (route counts grow steeply with the seed's draw)."""
    for attempt in range(100):
        inst = _random(seed * 100 + attempt, n, variant, objective)()
        try:
            total = sum(len(routes.enumerate_routes(inst, q, variant, cap=max_routes))
                        for q in inst.demands)
        except routes.EnumerationOverflowError:
            continue
        if total <= max_routes:
            return inst
    raise RuntimeError(f"no oracle-sized instance for seed {seed}")


def held_out(workload, seed, n=10):
    """Fresh small instances drawn from the seed, checked against the
    brute-force oracle. Returns a list of problems."""
    variant = CYCLIC if workload == "cyclic-sep" else ORIGINAL
    objectives = (MAX_COVER,) if workload == "bounds-lp" else (MAX_COVER, MIN_STATIONS)
    problems = []
    # The disaggregated LP grows with the route count faster than the oracle.
    max_routes = 60 if workload == "bounds-lp" else 150
    for objective in objectives:
        inst = _oracle_sized(seed, n, variant, objective, max_routes)
        best = oracle.brute_force_solve(inst, variant, objective).objective
        where = f"held-out {variant} {objective} n={n} seed {seed}"
        if workload == "bounds-lp":
            data = lp.prepare_route_data(inst, variant)
            found = check_bounds(disagg_bound(inst, data), agg_bound(inst, data), best)
        elif best == float("inf"):
            try:
                solver.solve(solver.SolveRequest(inst, variant, objective))
                found = ["solved although the oracle finds no full cover"]
            except solver.UnservableError:
                found = []
        else:
            sol = solver.solve(solver.SolveRequest(inst, variant, objective))
            found = check_solution(inst, variant, objective, sol, best)
        problems += [f"{where}: {p}" for p in found]
    return problems
