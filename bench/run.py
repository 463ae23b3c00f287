"""End-to-end and per-layer benchmark of frlp.

    python3 bench/run.py --workload cyclic-sep --seed 0 --seconds 40 --trace 0
    python3 bench/run.py --all [--out bench/baseline.json]

Workloads (closed loop: one client, each operation starts when the previous
one has finished):

  cyclic-sep   cyclic `solve` on four gen_random instances (n 24 and 32, both
               objectives); servedness checks and separation dominate.
  original-bb  original `solve` on four gen_random instances (n 40 and 60);
               many small LP re-solves with cut rows plus refuelling paths.
  bounds-lp    `frlp bounds` minus its oracle line: routes, covering families,
               disaggregated and aggregated LP bounds on five instances. The
               cyclic instance's disaggregated LP exceeds the memory limit.

The workload runs in a child process under an address-space limit with BLAS
pinned to one thread. Each pass sets the pool up afresh (generate, serialise,
shuffle edges by the seed, parse), so every operation meets a cold instance, then
times each library call on its own and checks every result against the
goldens in bench/goldens.json and against invariants that hold on any seed.
After the passes, small fresh instances drawn from the seed are checked
against the brute-force oracle.

With --trace 0 the run reports the end-to-end metrics. With --trace 1 it
alternates untraced and traced passes and reports the per-layer metrics: the
traced passes wrap public frlp names (see bench/tracing.py), and the overhead
is traced wall_s minus untraced wall_s. The last line of standard output is
one JSON object: correct, attempted, failed, metrics. A wrong result makes
the command exit with 1; an operation that raises only counts as failed.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import re
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

ADDRESS_SPACE_LIMIT = 2 << 30  # bytes, set on the child only
BLAS_ENV = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                   "MKL_NUM_THREADS")}
CHILD_TIMEOUT = 170  # seconds
# Pool set-ups before each pass; the pass uses the last. Spreading them over
# the run lets setup_s see the same machine as wall_s.
SETUP_SAMPLES = 5
MIN_PASSES = 3  # untraced passes in an untraced run
# The keys of workloads.WORKLOADS; the parent process does not import frlp.
WORKLOAD_NAMES = ("cyclic-sep", "original-bb", "bounds-lp")

UNITS = {"wall_s": "s", "slowest_op_s": "s", "setup_s": "s",
         "peak_rss_mb": "MB", "ok_frac": "frac"}
# slowest_op_s is printed but left out of the result line, which carries the
# metrics BENCHMARK.json gates: it rests on one operation per pass, and its
# spread between runs on a shared machine reaches the largest bound allowed.
UNGATED = ("slowest_op_s",)
METRIC_LINE = re.compile(r"^([A-Za-z][\w.]*) +(-?[0-9.]+(?:e-?[0-9]+)?) +(\S+)")


# ---------------------------------------------------------------------------
# Child: one workload in one process.
# ---------------------------------------------------------------------------

def _import_library():
    """Import frlp from this checkout's sources, never from elsewhere."""
    if not (SRC / "frlp" / "__init__.py").is_file():
        raise SystemExit(f"frlp sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import frlp
    if Path(frlp.__file__).resolve().parent != SRC / "frlp":
        raise SystemExit(f"frlp imported from {frlp.__file__}, not {SRC}")


# Spans whose call counts and self-time shares are reported, and counters
# taken from arguments and results (see tracing.TARGETS).
COUNTED_SPANS = ("solver.separate", "feasibility.is_served", "feasibility.search_cycle",
                 "feasibility.find_traversable_path", "network.distances_from",
                 "lp.solve_lp", "routes.enumerate_routes")
SHARED_SPANS = COUNTED_SPANS + ("solver.solve", "lp.build_model",
                                "covering.cut_sets_for_cycle",
                                "covering.aggregate_cut_sets")
COUNTERS = ("solver.bb_nodes", "solver.cuts", "feasibility.search_cycle.labels",
            "routes.count", "covering.sets")


def _layer_metrics(tracer, wall):
    """Per-layer metrics of one traced pass: {name: (value, unit)}. Shares
    are self time as a percentage of the pass's traced wall time."""
    from tracing import LAYERS

    def ratio(num, den):
        return num / den if den else 0.0

    counter = tracer.counters.get
    metrics = {name: (counter(name, 0), "count") for name in COUNTERS}
    metrics.update({f"{name}.calls": (tracer.calls(name), "count")
                    for name in COUNTED_SPANS})
    metrics.update({f"{name}.share": (100.0 * tracer.self_s(name) / wall, "%")
                    for name in SHARED_SPANS})
    metrics.update({
        "feasibility.is_served.repeat_frac": (ratio(
            counter("feasibility.is_served.repeats", 0),
            tracer.calls("feasibility.is_served")), "frac"),
        "network.distances_from.miss_frac": (ratio(
            tracer.new_sources, tracer.calls("network.distances_from")), "frac"),
        "lp.solve_lp.rows_mean": (ratio(
            counter("lp.solve_lp.rows", 0), tracer.calls("lp.solve_lp")), "rows"),
        "covering.kept_frac": (ratio(
            counter("covering.aggregated_sets", 0),
            counter("covering.per_route_sets", 0)), "frac"),
    })
    attributed = 0.0
    for layer in LAYERS:
        seconds = tracer.layer_self_s(layer)
        attributed += seconds
        metrics[f"layer.{layer}.share"] = (100.0 * seconds / wall, "%")
    metrics["layer.other.share"] = (100.0 * (wall - attributed) / wall, "%")
    return metrics


def _span_table(tracer, wall):
    lines = [f"  {'span':40s} {'calls':>9s} {'total_s':>9s} {'self_s':>9s} {'self%':>6s}"]
    for name, (calls, total, own) in sorted(tracer.totals.items(),
                                            key=lambda kv: -kv[1][2]):
        if calls:
            lines.append(f"  {name:40s} {calls:9d} {total:9.3f} {own:9.3f} "
                         f"{100.0 * own / wall:6.1f}")
    return lines


@dataclass
class Pass:
    traced: bool
    ops: list
    instances: list  # traced passes: kept alive, the tracer keys networks by id
    tracer: object = None
    layers: dict = None  # per-layer metrics, taken when a traced pass ends

    @property
    def wall(self):
        return sum(op.seconds for op in self.ops)


def _end_to_end(passes, setup_times, failed, attempted):
    """End-to-end metrics with a note on their samples. Times are per-operation
    medians over the untraced passes: wall_s is their sum, slowest_op_s the
    largest, so a burst of load on the machine during one operation of one
    pass moves neither."""
    by_op = {}
    for p in passes:
        if not p.traced:
            for op in p.ops:
                by_op.setdefault((op.case.label, op.step), []).append(op.seconds)
    medians = [statistics.median(times) for times in by_op.values()]
    count = sum(1 for p in passes if not p.traced)
    return {
        "wall_s": (sum(medians), f"sum of {len(medians)} per-operation medians "
                                 f"over {count} passes"),
        "slowest_op_s": (max(medians), f"largest per-operation median over {count} passes"),
        "setup_s": (statistics.median(setup_times),
                    f"median of {len(setup_times)} set-ups of the pool"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "getrusage of the child"),
        "ok_frac": (1.0 - failed / attempted,
                    f"{attempted - failed}/{attempted} operations"),
    }


def run_child(workload, seed, seconds, trace):
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_LIMIT, ADDRESS_SPACE_LIMIT))
    _import_library()
    import workloads
    from tracing import Tracer

    cases = workloads.WORKLOADS[workload]
    goldens = json.loads((HERE / "goldens.json").read_text())["cases"]
    missing = [case.label for case in cases if case.label not in goldens]
    if missing:
        raise SystemExit(f"no goldens for {missing}")

    clock = time.perf_counter
    setup_times = []

    def timed_setup():
        gc.collect()  # every set-up and pass starts from the same heap state
        start = clock()
        instances = workloads.setup(cases, seed)
        setup_times.append(clock() - start)
        return instances

    passes, problems, cost, seen_sources = [], [], {}, set()
    start = clock()
    while True:
        traced = bool(trace) and len(passes) % 2 == 1
        pass_start = clock()
        for _ in range(SETUP_SAMPLES):
            instances = timed_setup()
        tracer = Tracer(seen_sources) if traced else None
        with tracer.installed() if traced else contextlib.nullcontext():
            ops = [op for case, inst in zip(cases, instances)
                   for op in workloads.run_case(case, inst)]
        for case, inst in zip(cases, instances):
            case_ops = [op for op in ops if op.case is case]
            found = workloads.check_case(case, inst, case_ops, goldens)
            problems += [f"{case.label}: {p}" for p in found]
            for op in case_ops if found else ():  # a wrong result is a failure
                op.error = op.error or "wrong result"
        for op in ops:  # checked: keep peak RSS independent of the pass count
            op.result = None
        passes.append(Pass(traced, ops, instances if traced else None, tracer))
        if traced:
            passes[-1].layers = _layer_metrics(tracer, passes[-1].wall)
        cost[traced] = clock() - pass_start
        # Stop before a pass that would end after `seconds`.
        untraced = sum(1 for p in passes if not p.traced)
        enough = len(passes) >= 2 if trace else untraced >= MIN_PASSES
        upcoming = cost.get(bool(trace) and len(passes) % 2 == 1, cost[traced])
        if enough and clock() - start + upcoming > seconds:
            break
    passes_s = clock() - start
    problems += workloads.held_out(workload, seed)
    held_out_s = clock() - start - passes_s

    all_ops = [op for p in passes for op in p.ops]
    failed = [op for op in all_ops if op.error is not None]
    untraced_walls = [p.wall for p in passes if not p.traced]
    print(f"# workload {workload}  seed {seed}  trace {trace}  passes {len(passes)} "
          f"({len(passes) - len(untraced_walls)} traced)  operations {len(all_ops)}")
    print(f"# passes {passes_s:.1f} s, held-out oracle check {held_out_s:.1f} s; "
          "untraced pass walls " + " ".join(f"{w:.3f}" for w in untraced_walls))
    print(f"# address-space limit {ADDRESS_SPACE_LIMIT >> 20} MiB (child only), "
          f"BLAS threads {os.environ.get('OPENBLAS_NUM_THREADS', 'unset')}")
    print(f"# failed_frac {len(failed)}/{len(all_ops)}")
    for text in sorted({f"{op.case.label} {op.step}: {op.error}" for op in failed}):
        print(f"#   failed: {text}")
    for text in problems:
        print(f"#   WRONG: {text}")

    if not trace:
        metrics = _end_to_end(passes, setup_times, len(failed), len(all_ops))
        for name, (value, note) in metrics.items():
            print(f"{name:14s} {value:12.6f} {UNITS[name]:5s} {note}")
        out = {name: {"value": value, "unit": UNITS[name]}
               for name, (value, _) in metrics.items() if name not in UNGATED}
    else:
        traced_passes = [p for p in passes if p.traced]
        per_pass = [p.layers for p in traced_passes]
        # median_low keeps counts whole; they repeat exactly between passes.
        out = {name: {"value": statistics.median_low([m[name][0] for m in per_pass]),
                      "unit": unit}
               for name, (_, unit) in per_pass[0].items()}
        traced_wall = statistics.median([p.wall for p in traced_passes])
        out["trace.wall_s"] = {"value": traced_wall, "unit": "s"}
        out["trace.overhead_s"] = {"value": traced_wall - statistics.median(untraced_walls),
                                   "unit": "s"}
        last = traced_passes[-1]
        print(f"# spans of the last traced pass (wall {last.wall:.3f} s):")
        for line in _span_table(last.tracer, last.wall):
            print("#" + line)
        for name, item in out.items():
            print(f"{name:42s} {item['value']:14.6f} {item['unit']}")

    result = {"correct": not problems, "attempted": len(all_ops),
              "failed": len(failed), "metrics": out}
    print(json.dumps(result))
    return 0 if not problems else 1


# ---------------------------------------------------------------------------
# Parent: spawn the child, relay its output and exit status.
# ---------------------------------------------------------------------------

def spawn(workload, seed, seconds, trace, capture=False):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child",
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    env = dict(os.environ, **BLAS_ENV)
    return subprocess.run(cmd, env=env, cwd=ROOT, timeout=CHILD_TIMEOUT,
                          stdout=subprocess.PIPE if capture else None, text=True)


def run_all(seed, seconds, out_path):
    """Every workload untraced and traced; one table of all metrics."""
    report = {"seed": seed, "seconds": seconds,
              "address_space_limit_bytes": ADDRESS_SPACE_LIMIT,
              "blas_threads": 1, "workloads": {}}
    status = 0
    for workload in WORKLOAD_NAMES:
        for trace in (0, 1):
            proc = spawn(workload, seed, seconds, trace, capture=True)
            sys.stdout.write(proc.stdout)
            if proc.returncode != 0 or not proc.stdout.strip():
                status = 1
            lines = proc.stdout.strip().splitlines()
            if lines:
                result = json.loads(lines[-1])
                result["metrics"] = {  # every printed metric, ungated ones too
                    m[1]: {"value": float(m[2]), "unit": m[3]}
                    for m in map(METRIC_LINE.match, lines) if m}
                report["workloads"].setdefault(workload, {})[
                    "traced" if trace else "untraced"] = result
    print("\nend-to-end metrics (seed %d):" % seed)
    print(f"  {'workload':12s} " + " ".join(f"{m:>16s}" for m in UNITS) + "  failed_frac")
    for workload, runs in report["workloads"].items():
        run = runs.get("untraced")
        if run is None:
            continue
        cells = [f"{run['metrics'][m]['value']:11.4f} {UNITS[m]:4s}" for m in UNITS]
        print(f"  {workload:12s} " + " ".join(cells) +
              f"  {run['failed']}/{run['attempted']}")
    if out_path:
        Path(out_path).write_text(json.dumps(report, indent=2) + "\n")
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload untraced and traced")
    parser.add_argument("--out", help="with --all: write the results as JSON here")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.all:
        return run_all(args.seed, args.seconds, args.out)
    if args.workload is None:
        parser.error("--workload or --all is required")
    if args.child:
        return run_child(args.workload, args.seed, args.seconds, args.trace)
    try:
        return spawn(args.workload, args.seed, args.seconds, args.trace).returncode
    except subprocess.TimeoutExpired:
        print(f"workload {args.workload} did not finish in {CHILD_TIMEOUT} s",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
