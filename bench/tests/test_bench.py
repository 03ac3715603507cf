"""Self-tests of the benchmark: span arithmetic, failure counting and a smoke
run of every workload at a tiny size.

    PYTHONPATH=src python -m pytest -q bench/tests
"""

import itertools
import json
import os

import pytest

from saddleprec import cli, solvers

from bench import measure, run, tracing, workloads

TINY = {
    "ladder-exact": {"Ms": (8, 16)},
    "contrast-sweep": {"M": 16, "removal": 4},
    "inexact-ha": {"M": 16},
    "diagonal-ha": {"M": 16},
}


def _tick_clock():
    counter = itertools.count()
    return lambda: float(next(counter))


def test_self_time_subtracts_the_union_of_children():
    spans = [
        tracing.Span("root", "x", 0.0, 10.0),
        tracing.Span("a", "x", 1.0, 4.0, parent=0),
        tracing.Span("b", "x", 3.0, 6.0, parent=0),    # overlaps a
        tracing.Span("a.1", "x", 2.0, 3.0, parent=1),
        tracing.Span("c", "x", 9.0, 12.0, parent=0),   # runs past root
    ]
    assert tracing.self_times(spans) == [4.0, 2.0, 3.0, 1.0, 3.0]


def test_recorder_links_parents_and_keeps_errors():
    rec = tracing.Recorder(clock=_tick_clock())

    def fail():
        raise solvers.MaxIterationsError("budget")

    inner = rec.wrap(lambda: 7, "inner", "apply")
    outer = rec.wrap(lambda: inner() + inner(), "outer", "solve")
    assert outer() == 14
    with pytest.raises(solvers.MaxIterationsError):
        rec.wrap(fail, "bad", "solve")()
    names = [(s.name, s.parent) for s in rec.spans]
    assert names == [("outer", None), ("inner", 0), ("inner", 0),
                     ("bad", None)]
    assert rec.spans[3].attrs["error"] == "MaxIterationsError: budget"
    # outer: ticks 0..5, children 1..2 and 3..4
    assert tracing.self_times(rec.spans)[0] == 3.0


def test_installed_restores_every_name():
    before = [tracing._get(o, a) for o, a, *_ in tracing._targets(True)]
    with tracing.installed(tracing.Recorder(), full=True):
        during = [tracing._get(o, a) for o, a, *_ in tracing._targets(True)]
    after = [tracing._get(o, a) for o, a, *_ in tracing._targets(True)]
    assert after == before
    assert all(d is not b for d, b in zip(during, before))


def _raise_max_iterations(*args, **kwargs):
    raise solvers.MaxIterationsError("forced")


def test_library_solver_failure_is_counted(monkeypatch, tmp_path):
    monkeypatch.setattr(solvers, "pl_solve", _raise_max_iterations)
    result = measure.run_pass("diagonal-ha", 0, False, str(tmp_path),
                              TINY["diagonal-ha"])
    e2e = measure.end_to_end(result)
    assert (e2e["solves"], e2e["solves_failed"]) == (3, 3)
    assert e2e["iterations"] == 0
    assert result.state.wrong == []
    assert all(s.record()["error"] == "MaxIterationsError"
               for s in result.state.solves)


def test_cli_solver_failure_is_counted_with_its_instance(monkeypatch,
                                                         tmp_path):
    monkeypatch.setitem(cli._METHODS, "pcgk", _raise_max_iterations)
    result = measure.run_pass("contrast-sweep", 0, False, str(tmp_path),
                              TINY["contrast-sweep"])
    e2e = measure.end_to_end(result)
    # sorted axes put pcgk first; the CLI stops at its first solver error
    assert (e2e["solves"], e2e["solves_failed"]) == (1, 1)
    assert result.state.wrong == []
    assert "method=pcgk" in result.state.solves[0].error


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_every_workload(name, tmp_path):
    sizes = TINY[name]
    plain = measure.run_pass(name, 3, False, str(tmp_path), sizes)
    traced = measure.run_pass(name, 3, True, str(tmp_path), sizes)
    assert plain.state.wrong == [] and traced.state.wrong == []
    records = [s.record() for s in plain.state.solves]
    assert records == [s.record() for s in traced.state.solves]
    assert plain.state.outputs == traced.state.outputs

    e2e = measure.end_to_end(plain)
    assert e2e["solves"] == len(records) > 0
    assert 0 < e2e["setup_s"] + e2e["solve_s"] <= e2e["total_s"] + 1e-9
    assert "pl_s" in e2e

    layer = measure.per_layer(traced)
    assert layer["assembly.problem_builds"] >= 1
    assert layer["precond.ha_setups"] >= 1
    assert layer["precond.hs_apply_calls"] >= 1
    assert layer["solvers.self_s"] > 0
    assert (layer["cli.self_s"] > 0) == (name == "contrast-sweep")
    assert (layer["precond.inner_a_matvecs"] > 0) == (name == "inexact-ha")
    assert measure.solver_accounting_gap(traced) < 1e-9


def test_benchmark_json_lists_what_the_command_reports(tmp_path):
    path = os.path.join(run.ROOT, "BENCHMARK.json")
    with open(path, encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert tuple(m["name"] for m in spec["end_to_end"]) == run.GATED
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert metric["unit"] == run._unit(metric["name"])
    traced = measure.run_pass("diagonal-ha", 0, True, str(tmp_path),
                              TINY["diagonal-ha"])
    reported = set(measure.per_layer(traced)) | {"trace.overhead_s"}
    assert reported == {m["name"] for m in spec["per_layer"]}


def test_count_differences_and_reference_outputs(tmp_path):
    base = [{"method": "pl", "iterations": 10}]
    assert run._count_diff(base, base) == []
    diff = run._count_diff(base, [{"method": "pl", "iterations": 11},
                                  {"method": "pu", "iterations": 5}])
    assert len(diff) == 2 and "iterations': 11" in diff[0]

    result = measure.run_pass("diagonal-ha", 0, False, str(tmp_path),
                              TINY["diagonal-ha"])
    assert run._check([result, result], {"outputs": {}}) == []
    wrong = run._check([result], {"outputs": {"solve_csv_sha256": "x"}})
    assert wrong == ["solve_csv_sha256 None != reference x"]
