"""Pin the goldens of the benchmark pool (seed 0) into bench/goldens.json.

    python3 bench/pin_goldens.py

Solve cases: the objective of `solve`. Bounds cases: the disaggregated and
aggregated LP bounds from the bundled simplex, and the max-cover optimum
from `solve`. Every LP bound is cross-checked against HiGHS (scipy), and
every case with at most 20 nodes against `brute_force_solve`. The pinning
runs under the benchmark's address-space limit; a bound the bundled simplex
cannot hold in memory is pinned from HiGHS alone and marked so.
"""

from __future__ import annotations

import json
import resource
import sys
from pathlib import Path

import run

TOL = 1e-6


def highs_value(model):
    """Optimum of the model's LP relaxation from scipy's HiGHS, sparse."""
    from scipy.optimize import linprog
    from scipy.sparse import csr_matrix

    program = model.lp
    sign = -1.0 if program.sense == "max" else 1.0
    ub_rows, ub_rhs, eq_rows, eq_rhs = [], [], [], []
    for coeffs, relation, rhs in program.rows:
        if relation == "=":
            eq_rows.append(coeffs)
            eq_rhs.append(rhs)
        elif relation == "<=":
            ub_rows.append(coeffs)
            ub_rhs.append(rhs)
        else:
            ub_rows.append([(j, -a) for j, a in coeffs])
            ub_rhs.append(-rhs)

    def matrix(rows):
        if not rows:
            return None
        data = [a for row in rows for _, a in row]
        cols = [j for row in rows for j, _ in row]
        ptr = [0]
        for row in rows:
            ptr.append(ptr[-1] + len(row))
        return csr_matrix((data, cols, ptr), shape=(len(rows), program.num_vars))

    result = linprog([sign * c for c in program.objective],
                     A_ub=matrix(ub_rows), b_ub=ub_rhs or None,
                     A_eq=matrix(eq_rows), b_eq=eq_rhs or None,
                     bounds=program.bounds, method="highs")
    if result.status != 0:
        raise RuntimeError(f"HiGHS: {result.message}")
    return sign * result.fun


def pin_case(case, instance, problems, notes):
    from frlp import lp, oracle, solver
    import workloads

    small = instance.num_nodes <= oracle.ORACLE_NODE_CAP
    if case.kind == "solve":
        sol = solver.solve(solver.SolveRequest(instance, case.variant, case.objective))
        problems += workloads.check_solution(instance, case.variant, case.objective, sol)
        if small:
            best = oracle.brute_force_solve(instance, case.variant, case.objective)
            if abs(best.objective - sol.objective) > TOL:
                problems.append(f"{case.label}: solve {sol.objective} != oracle "
                                f"{best.objective}")
        return {"objective": sol.objective}

    golden = {}
    data = lp.prepare_route_data(instance, case.variant)
    models = {"agg": lp.build_model(instance, lp.AGG,
                                    families=[d.aggregated for d in data])}
    if case.disagg:
        models["disagg"] = lp.build_model(instance, lp.DISAGG, route_data=data)
    for name, model in models.items():
        reference = highs_value(model)
        try:
            value = lp.lp_bound(model)
        except MemoryError as exc:
            notes.append(f"{case.label} {name}: bundled simplex raised MemoryError "
                         f"({exc}); value pinned from HiGHS")
            value = reference
        if abs(value - reference) > TOL * max(1.0, abs(reference)):
            problems.append(f"{case.label} {name}: simplex {value} != HiGHS {reference}")
        golden[name] = value
    sol = solver.solve(solver.SolveRequest(instance, case.variant, solver.MAX_COVER))
    golden["max_cover"] = sol.objective
    if small:
        best = oracle.brute_force_solve(instance, case.variant, solver.MAX_COVER)
        if abs(best.objective - sol.objective) > TOL:
            problems.append(f"{case.label}: max-cover solve {sol.objective} != "
                            f"oracle {best.objective}")
        notes.append(f"{case.label}: max-cover optimum confirmed by brute_force_solve")
    problems += [f"{case.label}: {p}" for p in workloads.check_bounds(
        golden.get("disagg"), golden["agg"], golden["max_cover"])]
    return golden


def main():
    resource.setrlimit(resource.RLIMIT_AS, (run.ADDRESS_SPACE_LIMIT,
                                            run.ADDRESS_SPACE_LIMIT))
    run._import_library()
    import workloads

    cases, problems, notes = {}, [], []
    for name in run.WORKLOAD_NAMES:
        pool = workloads.WORKLOADS[name]
        for case, instance in zip(pool, workloads.setup(pool, 0)):
            cases[case.label] = pin_case(case, instance, problems, notes)
            print(case.label, cases[case.label], flush=True)
    for text in problems:
        print("PROBLEM:", text)
    if problems:
        return 1
    out = Path(__file__).resolve().parent / "goldens.json"
    out.write_text(json.dumps({"notes": notes, "cases": cases}, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
