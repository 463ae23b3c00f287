"""Command-line entry point.

Subcommands: solve, bounds, enumerate, cutsets, check, generate, validate,
sweep, oracle. Commands raise; `run` alone turns an error into one
`error: ...` line and an exit code: 0 success, 1 usage/validation error (an
unreadable or unwritable file included), 2 solve failure. Set
FRLP_LOG=debug|info|warning for logging verbosity.
"""

from __future__ import annotations

import argparse
import csv
import logging
import os
import sys
from dataclasses import replace
from typing import Optional

from . import generators
from .covering import AggregationOverflowError
from .feasibility import CycleQuery, find_witness, search_cycle
from .lp import (AGG, DISAGG, NumericalError, TIGHT_NODE_CAP, build_model,
                 lp_bound, prepare_route_data)
from .network import (CYCLIC, MAX_COVER, MIN_STATIONS, ORIGINAL, Instance,
                      ParseError, ValidationError, build_instance,
                      parse_instance, require_variant, serialize_instance,
                      trip_length)
from .oracle import OracleSizeError, brute_force_solve
from .routes import EnumerationOverflowError, enumerate_routes, route_budget
from .solver import SolveRequest, UnservableError, reevaluate, solve

log = logging.getLogger("frlp")

USAGE_ERROR = 1
SOLVE_ERROR = 2

# --objective's choices and the objectives they name
OBJECTIVES = {"maxcover": MAX_COVER, "minstations": MIN_STATIONS}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(USAGE_ERROR)


def _setup_logging():
    level = os.environ.get("FRLP_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def _load(path: str, variant: Optional[str] = None) -> Instance:
    """The instance in the file, whose network must also admit `variant`."""
    try:
        with open(path) as handle:
            instance = parse_instance(handle.read())
        require_variant(instance.network, variant)
    except (ParseError, ValidationError) as exc:
        raise ValueError(f"{path}: {exc}")
    for line in instance.pruning_report:
        log.info("pruning: %s", line)
    return instance


def _override_alpha(instance: Instance, alpha) -> Instance:
    """The instance with every deviation demand's alpha replaced, validated
    again as a loaded instance is."""
    if alpha is None:
        return instance
    demands = [replace(q, alpha=float(alpha)) if q.alpha is not None else q
               for q in instance.demands]
    try:
        return build_instance(instance.network.node_names, instance.network.edges,
                              demands, instance.travel_range, instance.placement,
                              instance.variant_default)
    except ValidationError as exc:
        raise ValueError(f"alpha {alpha:g}: {exc}")


def _instance_and_variant(args):
    """The instance of `args.instance` with `--alpha-override` applied, and
    the variant to run it under: `--variant`, else the instance's default."""
    instance = _override_alpha(_load(args.instance, args.variant),
                               args.alpha_override)
    return instance, args.variant or instance.variant_default


def _nonnegative(convert):
    """argparse type of a number `convert` reads that is >= 0 (not nan)."""
    def parse(text):
        value = convert(text)  # argparse reports a ValueError as invalid
        if not value >= 0:
            raise argparse.ArgumentTypeError(f"must be nonnegative: {text}")
        return value

    parse.__name__ = convert.__name__
    return parse


def _add_instance_arg(p):
    p.add_argument("instance", help="instance file (JSON)")


def _names(instance, nodes):
    return "{" + ", ".join(sorted(instance.network.name(j) for j in nodes)) + "}"


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_validate(args) -> int:
    with open(args.instance) as handle:
        text = handle.read()
    try:
        instance = parse_instance(text)
    except (ParseError, ValidationError) as exc:
        violations = getattr(exc, "violations", [str(exc)])
        for v in violations:
            print(v)
        return USAGE_ERROR
    for line in instance.pruning_report:
        print(f"pruned: {line}")
    print(f"ok: {instance.num_nodes} nodes, {len(instance.network.edges)} edges, "
          f"{len(instance.demands)} demands")
    return 0


def cmd_enumerate(args) -> int:
    instance, variant = _instance_and_variant(args)
    for qi, demand in enumerate(instance.demands):
        o = instance.network.name(demand.origin)
        t = instance.network.name(demand.destination)
        print(f"demand {qi}: {o} -> {t}")
        base = trip_length(instance.network, demand, variant)
        for route in enumerate_routes(instance, demand, variant):
            visits = ",".join(instance.network.name(v) for v in route.visits)
            deviation = 100.0 * (route.length / base - 1.0) if base else 0.0
            print(f"  ({visits})  length={route.length:g}  "
                  f"deviation={deviation:.1f}%")
    return 0


def cmd_cutsets(args) -> int:
    instance, variant = _instance_and_variant(args)
    for qi, data in enumerate(prepare_route_data(instance, variant)):
        o = instance.network.name(data.demand.origin)
        t = instance.network.name(data.demand.destination)
        print(f"demand {qi}: {o} -> {t}")
        for route, family in zip(data.routes, data.families):
            visits = ",".join(instance.network.name(v) for v in route.visits)
            sets = " ".join(_names(instance, s) for s in family.sorted_sets())
            print(f"  route ({visits}): {sets}")
        agg = data.aggregated
        sets = " ".join(_names(instance, s) for s in agg.sorted_sets())
        print(f"  aggregated (minimal): {sets}")
    return 0


def cmd_check(args) -> int:
    instance, variant = _instance_and_variant(args)
    if not 0 <= args.demand < len(instance.demands):
        raise ValueError(f"demand index {args.demand} out of range")
    demand = instance.demands[args.demand]
    if args.trace and (variant != CYCLIC or demand.routes is not None):
        args.parser.error("argument --trace: no labeling search runs for a "
                          "demand under the original variant or with "
                          "explicit routes")
    try:
        stations = frozenset(instance.network.index(s.strip())
                             for s in args.stations.split(",") if s.strip())
    except ValueError:
        raise ValueError("unknown station name")
    if args.trace:
        # The replay runs the full search without dominance, which finds
        # the same verdict.
        result = search_cycle(CycleQuery(
            instance, demand, stations,
            route_budget(instance, demand, CYCLIC), dominance=False))
        witness = result.witness
        print(f"served: {witness is not None}")
        for i, label in enumerate(result.selected, 1):
            print(f"  step {i}: node {instance.network.name(label.node)} "
                  f"label {label.tuple5()}")
        if witness is not None:
            print(f"  sink: {result.selected[-1].tuple5()}")
    else:
        witness = find_witness(instance, demand, stations, variant)
        print(f"served: {witness is not None}")
    if witness is not None:
        visits = ",".join(instance.network.name(v) for v in witness.visits)
        print(f"witness: ({visits})  length={witness.length:g}")
    return 0


def cmd_generate(args) -> int:
    name = args.name
    d = {} if args.d is None else {"d": args.d}  # unset: the generator default
    if name in ("fig2", "fig7", "fig8"):
        instance = generators.gen_example(name, **d)
    elif name == "prop5a":
        instance = generators.gen_prop5a(args.n, **d)
    elif name == "prop5b":
        instance = generators.gen_prop5b_instance(args.n, delta=args.delta, **d)
    else:
        instance = generators.gen_random(args.seed, args.nodes,
                                         density=args.density,
                                         num_demands=args.demands, **d)
    text = serialize_instance(instance)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text + "\n")
    else:
        print(text)
    return 0


def cmd_bounds(args) -> int:
    instance, variant = _instance_and_variant(args)
    route_data = prepare_route_data(instance, variant)
    families = [d.aggregated for d in route_data]
    disagg = lp_bound(build_model(instance, DISAGG, route_data=route_data,
                                  budget=args.budget))
    agg = lp_bound(build_model(instance, AGG, families=families,
                               budget=args.budget))
    print(f"disagg-LP bound: {disagg:g}")
    print(f"agg-LP bound:    {agg:g}")
    if agg > 0:
        print(f"disagg/agg ratio: {disagg / agg:g}")
    if instance.num_nodes <= TIGHT_NODE_CAP:
        # The tightest concave bound over an integral placement polytope is
        # attained at an integer vertex, i.e. at the exact optimum.
        tight = brute_force_solve(instance, variant, MAX_COVER,
                                  budget=args.budget).objective
        print(f"tight bound:     {tight:g}")
        if tight > 0:
            print(f"agg/tight ratio:  {agg / tight:g}")
    return 0


def _run_solve(instance, variant, args, node_limit=None):
    request = SolveRequest(instance, variant, OBJECTIVES[args.objective],
                           budget=args.budget, coverage=args.coverage,
                           time_limit=args.time_limit, node_limit=node_limit)
    return solve(request)


def cmd_solve(args) -> int:
    instance, variant = _instance_and_variant(args)
    solution = _run_solve(instance, variant, args, args.node_limit)
    print(f"objective: {solution.objective:g}  "
          f"bound: {solution.bound:g}  optimal: {solution.optimal}")
    print(f"stations: {_names(instance, solution.stations)}")
    served = sum(1 for s in solution.served if s)
    print(f"served demands: {served}/{len(instance.demands)}")
    stats = solution.stats
    print(f"time: {stats.total_time:.3f}s  separation: "
          f"{stats.separation_time:.3f}s  nodes: {stats.bb_nodes}  "
          f"cuts: {stats.cuts}")
    print(f"lp solves: {stats.lp_solves} (cold {stats.lp_cold_starts})  "
          f"iterations: {stats.lp_iterations}")
    print(f"served checks: {stats.served_calls} "
          f"(memo hits {stats.served_memo_hits}, "
          f"in shrink {stats.shrink_checks})")
    if args.stats_out:
        _write_stats_csv(args.stats_out, [
            (os.path.basename(args.instance), variant,
             args.alpha_override if args.alpha_override is not None else "",
             stats.total_time, stats.separation_time, stats.bb_nodes,
             stats.cuts)])
    return 0


def cmd_oracle(args) -> int:
    instance, variant = _instance_and_variant(args)
    result = brute_force_solve(instance, variant, OBJECTIVES[args.objective],
                               budget=args.budget, coverage=args.coverage)
    print(f"objective: {result.objective:g}")
    for stations in result.optimal_sets[:8]:
        print(f"optimal: {_names(instance, stations)}")
    return 0


def _write_stats_csv(path, rows):
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["instance", "routing", "alpha", "time_s",
                         "separation_time_s", "bb_nodes", "cuts"])
        for row in rows:
            writer.writerow(row)


def cmd_sweep(args) -> int:
    instance = _load(args.instance, ORIGINAL)
    alphas = [float(a) for a in args.alphas.split(",")]
    label = os.path.basename(args.instance)
    rows = []
    print(f"{'alpha':>6} {'routing':>9} {'objective':>10} "
          f"{'served(cyclic)':>14} {'time_s':>8}")
    for alpha in alphas:
        inst_a = _override_alpha(instance, alpha)
        for variant in (ORIGINAL, CYCLIC):
            solution = _run_solve(inst_a, variant, args)
            served_cyclic = reevaluate(inst_a, solution.stations, CYCLIC)
            stats = solution.stats
            print(f"{alpha:>6g} {variant:>9} {solution.objective:>10g} "
                  f"{served_cyclic:>14g} {stats.total_time:>8.3f}")
            rows.append((label, variant, alpha, stats.total_time,
                         stats.separation_time, stats.bb_nodes, stats.cuts))
    if args.csv_out:
        _write_stats_csv(args.csv_out, rows)
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="frlp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        _add_instance_arg(p)
        p.add_argument("--variant", choices=[ORIGINAL, CYCLIC])
        p.add_argument("--alpha-override", type=float)

    def solve_flags(p):
        p.add_argument("--objective", choices=list(OBJECTIVES),
                       default="maxcover")
        p.add_argument("--budget", type=int)
        p.add_argument("--coverage", type=float, default=1.0)

    p = sub.add_parser("validate", help="check an instance file")
    _add_instance_arg(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("enumerate", help="list admissible routes")
    common(p)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("cutsets", help="dump covering families")
    common(p)
    p.set_defaults(func=cmd_cutsets)

    p = sub.add_parser("check", help="servedness of a fixed station set, "
                                     "with a witness route")
    common(p)
    p.add_argument("--stations", required=True,
                   help="comma-separated node names")
    p.add_argument("--demand", type=int, default=0)
    p.add_argument("--trace", action="store_true",
                   help="print the labeling step log of a cyclic deviation "
                        "demand (disables dominance; labels that cannot "
                        "close within the route budget are not listed)")
    p.set_defaults(func=cmd_check, parser=p)

    p = sub.add_parser("generate", help="write a constructed instance")
    p.add_argument("--name", required=True,
                   choices=["fig2", "fig7", "fig8", "prop5a", "prop5b",
                            "random"])
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--delta", type=float)
    p.add_argument("--d", type=float)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--nodes", type=int, default=8)
    p.add_argument("--density", type=float, default=0.4)
    p.add_argument("--demands", type=int, default=3)
    p.add_argument("--out")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("bounds", help="relaxation bounds and ratios")
    common(p)
    p.add_argument("--budget", type=int)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("solve", help="branch-and-cut solve")
    common(p)
    solve_flags(p)
    p.add_argument("--time-limit", type=_nonnegative(float),
                   help="seconds per solve")
    p.add_argument("--node-limit", type=_nonnegative(int),
                   help="branch-and-bound nodes to solve at most")
    p.add_argument("--stats-out", help="CSV stats output path")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("oracle", help="brute-force reference solve")
    common(p)
    solve_flags(p)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("sweep", help="alpha sweep over both variants")
    _add_instance_arg(p)
    p.add_argument("--alphas", default="1.0,1.2,1.5")
    solve_flags(p)
    p.add_argument("--time-limit", type=_nonnegative(float),
                   help="seconds per solve")
    p.add_argument("--csv-out", help="CSV stats output path")
    p.set_defaults(func=cmd_sweep)
    return parser


def run(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code or 0
    try:
        status = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, where it is handled
        return status
    except BrokenPipeError:
        # The reader stopped reading (`frlp solve ... | head -1`): end
        # quietly, and send what is left in stdout's buffer to devnull so
        # that the flush at exit does not fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
    except SystemExit as exc:  # args.parser.error, after the usage line
        return exc.code
    except (UnservableError, NumericalError, OracleSizeError,
            EnumerationOverflowError, AggregationOverflowError) as exc:
        status, message = SOLVE_ERROR, exc
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        status, message = SOLVE_ERROR, f"out of memory{detail}"
    except (OSError, ValueError) as exc:  # a file, or a value the library rejects
        status, message = USAGE_ERROR, exc
    print(f"error: {message}", file=sys.stderr)
    return status


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
