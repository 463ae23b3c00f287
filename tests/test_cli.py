import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from frlp import (CYCLIC, AggregationOverflowError, Demand, Edge,
                  EnumerationOverflowError, OracleSizeError, build_instance,
                  cli, gen_example, gen_random, generators, lp,
                  serialize_instance)
from frlp.cli import run

CSV_COLUMNS = ["instance", "routing", "alpha", "time_s",
               "separation_time_s", "bb_nodes", "cuts"]


@pytest.fixture
def fig7_path(tmp_path):
    path = tmp_path / "fig7.json"
    path.write_text(serialize_instance(gen_example("fig7", 12.0)))
    return str(path)


def test_generate_then_validate(tmp_path, capsys):
    out = tmp_path / "inst.json"
    assert run(["generate", "--name", "fig7", "--out", str(out)]) == 0
    assert run(["validate", str(out)]) == 0
    assert "ok:" in capsys.readouterr().out


def test_validate_malformed_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert run(["validate", str(bad)]) == 1
    assert "invalid JSON" in capsys.readouterr().out


def test_validate_reports_violations(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "range": 10, "nodes": ["1", "2"],
        "edges": [{"u": "1", "v": "2", "length": -3}],
        "demands": []}))
    assert run(["validate", str(bad)]) == 1
    assert "non-positive" in capsys.readouterr().out


@pytest.mark.parametrize("budget", ["x", 2.7])
def test_validate_rejects_bad_budget(tmp_path, capsys, budget):
    doc = json.loads(serialize_instance(gen_example("fig7", 12.0)))
    doc["placement"] = {"budget": budget}
    path = tmp_path / "budget.json"
    path.write_text(json.dumps(doc))
    assert run(["validate", str(path)]) == 1
    assert "budget" in capsys.readouterr().out
    assert run(["solve", str(path)]) == 1
    assert "budget" in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [
    ("routes", [5]), ("routes", 5), ("open", "12"), ("open", 5)],
    ids=["routes-of-numbers", "routes-number", "open-string", "open-number"])
def test_validate_rejects_a_value_that_is_not_a_list(tmp_path, capsys, field,
                                                     value):
    doc = json.loads(serialize_instance(gen_example("fig7", 12.0)))
    if field == "routes":
        del doc["demands"][0]["alpha"]
        doc["demands"][0]["routes"] = value
    else:
        doc["placement"] = {field: value}
    path = tmp_path / "lists.json"
    path.write_text(json.dumps(doc))
    assert run(["validate", str(path)]) == 1
    assert "must be a list" in capsys.readouterr().out
    assert run(["solve", str(path)]) == 1
    assert "must be a list" in capsys.readouterr().err


def test_validate_rejects_nan_edge_length(tmp_path, capsys):
    doc = json.loads(serialize_instance(gen_example("fig7", 12.0)))
    doc["edges"][0]["length"] = float("nan")
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(doc))
    assert run(["validate", str(path)]) == 1
    assert "'length' must be a finite number" in capsys.readouterr().out


def test_validate_rejects_a_directed_flag_that_is_not_a_boolean(tmp_path,
                                                               capsys):
    doc = json.loads(serialize_instance(gen_example("fig7", 12.0)))
    doc["edges"][0]["directed"] = "false"
    path = tmp_path / "directed.json"
    path.write_text(json.dumps(doc))
    assert run(["validate", str(path)]) == 1
    assert "'directed' must be true or false" in capsys.readouterr().out


@pytest.mark.parametrize("command", [
    ["solve", "--variant", "original"],
    ["check", "--stations", "3", "--variant", "original"],
    ["enumerate", "--variant", "original"],
    ["cutsets", "--variant", "original"],
    ["bounds", "--variant", "original"],
    ["oracle", "--variant", "original"],
    ["sweep"],  # its original pass
], ids=lambda command: command[0])
def test_original_variant_on_a_one_way_network_is_a_usage_error(
        tmp_path, capsys, command):
    doc = json.loads(serialize_instance(gen_example("fig7", 12.0)))
    assert doc["variant"] == "cyclic"
    doc["edges"] = [{"u": u, "v": v, "length": length, "directed": True}
                    for u, v, length in (("1", "2", 4.0), ("1", "3", 3.0),
                                         ("3", "2", 3.0), ("2", "4", 4.0),
                                         ("4", "1", 4.0))]
    path = tmp_path / "one-way.json"
    path.write_text(json.dumps(doc))
    assert run(["solve", str(path)]) == 0  # the cyclic default is admitted
    capsys.readouterr()
    assert run([command[0], str(path)] + command[1:]) == 1
    assert capsys.readouterr().err == \
        f"error: {path}: original variant requires an undirected network\n"


@pytest.mark.parametrize("command, owner, name, error", [
    ("enumerate", cli, "enumerate_routes", EnumerationOverflowError),
    ("bounds", lp, "aggregate_cut_sets", AggregationOverflowError),
    ("oracle", cli, "brute_force_solve", OracleSizeError),
], ids=["enumerate", "bounds", "oracle"])
def test_overflow_is_a_solve_failure(fig7_path, capsys, monkeypatch, command,
                                     owner, name, error):
    def overflowing(*args, **kwargs):
        raise error("more than 10 routes")

    monkeypatch.setattr(owner, name, overflowing)
    assert run([command, fig7_path]) == 2
    assert capsys.readouterr().err == "error: more than 10 routes\n"


def test_alpha_override_below_one_is_a_usage_error(fig7_path, capsys):
    assert run(["solve", fig7_path, "--alpha-override", "0.5"]) == 1
    assert "alpha must be >= 1" in capsys.readouterr().err
    assert run(["enumerate", fig7_path, "--alpha-override", "0.5"]) == 1
    assert "alpha must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("alpha", ["nan", "inf"])
def test_alpha_override_that_is_not_finite_is_a_usage_error(fig7_path, capsys,
                                                           alpha):
    assert run(["solve", fig7_path, "--alpha-override", alpha]) == 1
    assert "alpha must be >= 1 and finite" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["solve", "oracle", "bounds"])
def test_negative_budget_is_a_usage_error(fig7_path, capsys, command):
    assert run([command, fig7_path, "--budget", "-1"]) == 1
    assert "budget must be nonnegative" in capsys.readouterr().err


def test_budget_below_forced_open_is_a_usage_error(tmp_path, capsys):
    doc = json.loads(serialize_instance(gen_example("fig7", 12.0)))
    doc["placement"] = {"open": ["3"]}
    path = tmp_path / "forced.json"
    path.write_text(json.dumps(doc))
    assert run(["solve", str(path), "--budget", "0"]) == 1
    assert "forced_open exceeds the budget" in capsys.readouterr().err
    assert run(["solve", str(path), "--budget", "1"]) == 0
    assert "stations: {3}" in capsys.readouterr().out


def test_solve_coverage_out_of_range_is_a_usage_error(fig7_path, capsys):
    assert run(["solve", fig7_path, "--objective", "minstations",
                "--coverage", "1.5"]) == 1
    assert "coverage must lie in (0, 1]" in capsys.readouterr().err


def test_oracle_coverage_out_of_range_is_a_usage_error(fig7_path, capsys):
    assert run(["oracle", fig7_path, "--objective", "minstations",
                "--coverage", "1.5"]) == 1
    assert "coverage must lie in (0, 1]" in capsys.readouterr().err


def test_enumerate_matches_tables(fig7_path, capsys):
    assert run(["enumerate", fig7_path, "--variant", "original"]) == 0
    out = capsys.readouterr().out
    assert "(1,2)" in out and "(1,3,2)" in out and "50.0%" in out
    assert run(["enumerate", fig7_path, "--variant", "cyclic"]) == 0
    out = capsys.readouterr().out
    for cycle in ("(1,2,1)", "(1,3,2,3,1)", "(1,2,3,1)", "(1,2,4,1)"):
        assert cycle in out


def test_cutsets_output(fig7_path, capsys):
    assert run(["cutsets", fig7_path, "--variant", "original"]) == 0
    out = capsys.readouterr().out
    assert "aggregated (minimal):" in out


def test_check_with_trace(fig7_path, capsys):
    assert run(["check", fig7_path, "--stations", "4",
                "--variant", "cyclic", "--trace"]) == 0
    out = capsys.readouterr().out
    assert "served: True" in out
    assert "witness: (1,2,4,1)" in out
    assert "sink:" in out


def test_check_searches_a_cyclic_demand_once(fig7_path, tmp_path, capsys,
                                             monkeypatch):
    from frlp import feasibility
    calls = []
    search_cycle = feasibility.search_cycle

    def counting_search_cycle(query):
        calls.append(query)
        return search_cycle(query)

    monkeypatch.setattr(feasibility, "search_cycle", counting_search_cycle)
    monkeypatch.setattr(cli, "search_cycle", counting_search_cycle)
    assert run(["check", fig7_path, "--stations", "4",
                "--variant", "cyclic"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "served: True", "witness: (1,2,4,1)  length=12"]
    assert len(calls) == 1
    # An unserved demand whose open station passes the pre-check (it lies
    # in the corridor, within reach of both ends) runs no search either.
    path = tmp_path / "random.json"
    path.write_text(serialize_instance(
        gen_random(7, 5, density=0.3, num_demands=1, variant=CYCLIC)))
    calls.clear()
    assert run(["check", str(path), "--stations", "1"]) == 0
    assert capsys.readouterr().out.splitlines() == ["served: False"]
    assert calls == []


def test_check_trace_without_a_labeling_search_is_a_usage_error(
        fig7_path, tmp_path, capsys):
    fig2_path = tmp_path / "fig2.json"
    fig2_path.write_text(serialize_instance(gen_example("fig2", 10.0)))
    # The original variant, and a demand with explicit routes, run no
    # labeling search: there is no step log to print.
    for argv in (["check", fig7_path, "--stations", "4",
                  "--variant", "original", "--trace"],
                 ["check", str(fig2_path), "--stations", "2,4",
                  "--variant", "cyclic", "--trace"]):
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: frlp check")
        assert "error: argument --trace" in captured.err


def test_check_unserved(fig7_path, capsys):
    assert run(["check", fig7_path, "--stations", "4",
                "--variant", "original"]) == 0
    out = capsys.readouterr().out
    assert "served: False" in out
    assert "witness:" not in out


def test_check_prints_the_original_witness(fig7_path, tmp_path, capsys):
    assert run(["check", fig7_path, "--stations", "3",
                "--variant", "original"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "served: True", "witness: (1,3,2)  length=6"]
    # fig2's demand lists its routes: the witness is one of them
    fig2_path = tmp_path / "fig2.json"
    fig2_path.write_text(serialize_instance(gen_example("fig2", 10.0)))
    assert run(["check", str(fig2_path), "--stations", "2,4",
                "--variant", "original"]) == 0
    assert "witness: (1,2,4,5)  length=15\n" in capsys.readouterr().out


def test_solve_and_stats_csv(fig7_path, tmp_path, capsys):
    stats = tmp_path / "stats.csv"
    assert run(["solve", fig7_path, "--objective", "minstations",
                "--variant", "cyclic", "--stats-out", str(stats)]) == 0
    assert "objective: 1" in capsys.readouterr().out
    with open(stats) as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == CSV_COLUMNS


def test_solve_stopped_at_once_answers(fig7_path, capsys):
    assert run(["solve", fig7_path, "--variant", "cyclic",
                "--time-limit", "0"]) == 0
    out = capsys.readouterr().out
    assert "optimal: False" in out
    assert "stations: {}" in out


def test_solve_node_limit(fig7_path, capsys):
    assert run(["solve", fig7_path, "--variant", "cyclic",
                "--node-limit", "0"]) == 0
    out = capsys.readouterr().out
    assert "optimal: False" in out
    # the one servedness check is the fallback placement's
    assert "lp solves: 0 (cold 0)  iterations: 0\nserved checks: 1 (memo hits 0, in shrink 0)\n" in out
    assert run(["solve", fig7_path, "--variant", "cyclic",
                "--node-limit", "5"]) == 0
    out = capsys.readouterr().out
    assert "optimal: True" in out
    # shrink verdicts bypass the memo: 4 of the 8 are answered in the shrink
    assert "lp solves: 2 (cold 1)  iterations: 2\nserved checks: 8 (memo hits 2, in shrink 4)\n" in out
    for bad in ("-1", "1.5"):
        assert run(["solve", fig7_path, "--node-limit", bad]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("usage: frlp solve")
        assert "error: argument --node-limit" in captured.err
        assert "Traceback" not in captured.err


def test_solve_failure_exit_code(tmp_path):
    doc = json.dumps({
        "range": 4, "nodes": ["1", "2"],
        "edges": [{"u": "1", "v": "2", "length": 3}],
        "demands": [{"origin": "1", "destination": "2", "volume": 1, "alpha": 1.0}],
        "placement": {"closed": ["1", "2"]}})
    path = tmp_path / "unservable.json"
    path.write_text(doc)
    # with both nodes forced closed, the half-charge budget of 2 cannot
    # cover the 3-unit hop: unservable
    assert run(["solve", str(path), "--objective", "minstations",
                "--variant", "original"]) == 2


def test_out_of_memory_is_a_solve_failure(fig7_path, capsys, monkeypatch):
    def exhausted(model):
        raise MemoryError("dense standard form")

    monkeypatch.setattr(cli, "lp_bound", exhausted)
    assert run(["bounds", fig7_path]) == 2
    err = capsys.readouterr().err
    assert "error: out of memory: dense standard form" in err
    assert "Traceback" not in err


def test_out_of_memory_without_detail_prints_no_empty_detail(fig7_path, capsys,
                                                            monkeypatch):
    def exhausted(model):
        raise MemoryError()

    monkeypatch.setattr(cli, "lp_bound", exhausted)
    assert run(["bounds", fig7_path]) == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == "error: out of memory"
    assert "Traceback" not in err


def child_env(**settings):
    """The environment of a child `python -m frlp.cli` that imports this
    frlp, with `settings` added."""
    import frlp
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(frlp.__file__).resolve().parents[1])] +
        [p for p in [os.environ.get("PYTHONPATH")] if p]), **settings)


@pytest.mark.parametrize("unbuffered", [True, False],
                         ids=["unbuffered", "buffered"])
def test_closed_pipe_ends_quietly(fig7_path, unbuffered):
    # `frlp solve ... | head -1` with a reader that has already gone
    env = child_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        child = subprocess.run(
            [sys.executable, "-m", "frlp.cli", "solve", fig7_path,
             "--variant", "cyclic", "--time-limit", "0",
             "--objective", "minstations"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write_end)
    assert child.stderr == b""
    assert child.returncode == 0


def test_debug_log_reports_solve_progress(fig7_path):
    # FRLP_LOG=debug: one frlp.solver line per branch-and-bound node
    child = subprocess.run(
        [sys.executable, "-m", "frlp.cli", "solve", fig7_path,
         "--variant", "cyclic"],
        capture_output=True, text=True, env=child_env(FRLP_LOG="debug"),
        timeout=120)
    assert child.returncode == 0
    assert "nodes: 1 " in child.stdout
    assert re.findall(r"^DEBUG frlp\.solver: .*$", child.stderr, re.M) == [
        "DEBUG frlp.solver: node 1: bound 1, incumbent 1, pool 1, "
        "shrink checks 4"]


def test_usage_error_exit_code(capsys):
    assert run(["solve"]) == 1  # missing instance argument
    assert run(["nonsense"]) == 1
    capsys.readouterr()


def test_oracle_subcommand(fig7_path, capsys):
    assert run(["oracle", fig7_path, "--objective", "minstations",
                "--variant", "cyclic"]) == 0
    assert "objective: 1" in capsys.readouterr().out
    # the oracle enumerates every placement: it takes no time limit
    assert run(["oracle", fig7_path, "--time-limit", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("usage: frlp")
    assert "unrecognized arguments: --time-limit 0" in captured.err


def test_bounds_subcommand(fig7_path, capsys):
    assert run(["bounds", fig7_path, "--variant", "cyclic"]) == 0
    out = capsys.readouterr().out
    assert "disagg-LP bound:" in out and "agg-LP bound:" in out
    assert "tight bound:" in out


def test_sweep_passes_its_time_limit_to_every_solve(fig7_path, monkeypatch,
                                                    capsys):
    limits = []
    real_solve = cli.solve

    def recording_solve(request):
        limits.append(request.time_limit)
        return real_solve(request)

    monkeypatch.setattr(cli, "solve", recording_solve)
    assert run(["sweep", fig7_path, "--alphas", "1.0",
                "--time-limit", "0"]) == 0
    assert limits == [0.0, 0.0]  # the original and the cyclic solve
    capsys.readouterr()


def test_sweep_csv_columns(fig7_path, tmp_path, capsys):
    out_csv = tmp_path / "sweep.csv"
    assert run(["sweep", fig7_path, "--alphas", "1.0,1.5",
                "--objective", "minstations", "--csv-out", str(out_csv)]) == 0
    with open(out_csv) as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == CSV_COLUMNS
    assert len(rows) == 1 + 2 * 2  # two alphas x two variants
    table = capsys.readouterr().out
    assert "original" in table and "cyclic" in table


@pytest.mark.parametrize("argv", [
    ["generate", "--name", "fig7", "--out"],
    ["solve", "FIG7", "--stats-out"],
    ["sweep", "FIG7", "--alphas", "1.0", "--csv-out"],
], ids=lambda argv: argv[0])
def test_output_into_a_missing_directory_is_a_usage_error(fig7_path, tmp_path,
                                                         capsys, argv):
    missing = str(tmp_path / "missing" / "out")
    argv = [fig7_path if a == "FIG7" else a for a in argv] + [missing]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert missing in err and "Traceback" not in err


@pytest.mark.parametrize("command, route_line", [
    ("enumerate", "  (0,"), ("cutsets", "  route (0,")],
    ids=["enumerate", "cutsets"])
def test_a_route_longer_than_the_recursion_limit(tmp_path, capsys, command,
                                                 route_line):
    n = 1200  # more nodes on the one route than Python's recursion limit
    instance = build_instance([str(i) for i in range(n)],
                              [Edge(i, i + 1, 1.0) for i in range(n - 1)],
                              [Demand(0, n - 1, 1.0, alpha=1.0)], 5.0)
    path = tmp_path / "path.json"
    path.write_text(serialize_instance(instance))
    assert run([command, str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert sum(line.startswith(route_line) for line in lines) == 1


@pytest.mark.parametrize("command", ["validate", "solve"])
def test_json_nested_too_deeply_is_a_usage_error(tmp_path, capsys, command):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    assert run([command, str(path)]) == 1
    captured = capsys.readouterr()
    assert "invalid JSON: nested too deeply" in captured.out + captured.err


def test_generate_prop5b_builds_only_the_instance(tmp_path, monkeypatch):
    def unused(*args, **kwargs):
        raise AssertionError("the covering family is not written")

    monkeypatch.setattr(generators, "prop5b_analytic_family", unused)
    assert run(["generate", "--name", "prop5b", "--n", "3",
                "--out", str(tmp_path / "prop5b.json")]) == 0


@pytest.mark.parametrize("name", ["fig7", "prop5a", "prop5b", "random"])
def test_generate_zero_range_is_a_usage_error(capsys, name):
    assert run(["generate", "--name", name, "--d", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: travel range must be positive")


@pytest.mark.parametrize("flag, value", [("--demands", "-1"), ("--density", "nan")])
def test_generate_random_bad_argument_is_a_usage_error(capsys, flag, value):
    assert run(["generate", "--name", "random", flag, value]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("command", ["solve", "sweep"])
@pytest.mark.parametrize("limit", ["nan", "-1"])
def test_time_limit_that_is_not_a_nonnegative_number_is_a_usage_error(
        fig7_path, capsys, command, limit):
    assert run([command, fig7_path, "--time-limit", limit]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"usage: frlp {command}")
    assert "error: argument --time-limit" in err


@pytest.mark.parametrize("command", ["solve", "sweep"])
def test_unservable_solve_is_one_error_line(tmp_path, capsys, command):
    path = tmp_path / "unservable.json"
    path.write_text(json.dumps({
        "range": 4, "nodes": ["1", "2"],
        "edges": [{"u": "1", "v": "2", "length": 3}],
        "demands": [{"origin": "1", "destination": "2", "alpha": 1.0}],
        "placement": {"closed": ["1", "2"]}}))
    assert run([command, str(path), "--objective", "minstations"]) == 2
    assert capsys.readouterr().err == "error: unservable demands: 1->2\n"
