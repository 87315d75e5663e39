"""Tests of the benchmark harness itself (recorder, layers, workloads)."""

import dataclasses
import json
from pathlib import Path

import pytest

import layers
from spans import Recorder, Target, install
from workloads import WORKLOADS


def _clock(times):
    it = iter(times)
    return lambda: next(it)


def test_self_time_on_synthetic_nested_spans():
    rec = Recorder(clock=_clock([0.0, 1.0, 1.5, 2.0, 3.0, 4.0, 5.0, 10.0, 11.0, 12.0]))
    a, b, c = rec.name_id("a"), rec.name_id("b"), rec.name_id("c")
    outer = rec.open(a)      # a: 0 .. 10
    first = rec.open(b)      # b: 1 .. 3, with c: 1.5 .. 2 inside
    inner = rec.open(c)
    rec.close(inner)
    rec.close(first)
    again = rec.open(b)      # b: 4 .. 5
    rec.close(again)
    rec.close(outer)
    last = rec.open(a)       # a: 11 .. 12, a second root
    rec.close(last)
    assert rec.self_times() == [10.0 - 2.0 - 1.0, 2.0 - 0.5, 0.5, 1.0, 1.0]
    summary = rec.summary()
    assert summary["a"] == {"calls": 2, "self_s": 8.0, "total_s": 11.0}
    assert summary["b"] == {"calls": 2, "self_s": 2.5, "total_s": 3.0}
    assert summary["c"] == {"calls": 1, "self_s": 0.5, "total_s": 0.5}
    assert rec.root_time() == 11.0
    assert sum(s["self_s"] for s in summary.values()) == rec.root_time()


def test_recursive_span_counts_total_once():
    rec = Recorder(clock=_clock([0.0, 1.0, 2.0, 3.0]))
    f = rec.name_id("f")
    outer = rec.open(f)
    inner = rec.open(f)
    rec.close(inner)
    rec.close(outer)
    assert rec.summary()["f"] == {"calls": 2, "self_s": 3.0, "total_s": 3.0}


def test_install_wraps_every_holder_and_undo_restores():
    from bezmortar import benchmarks, coupling, fem

    original = fem.evaluate_cell
    original_call = coupling.CompositionalMap.__call__
    rec = Recorder()
    absent, undo = install(rec, layers.TARGETS, layers.PACKAGE)
    try:
        assert absent == []
        assert fem.evaluate_cell is benchmarks.evaluate_cell
        assert fem.evaluate_cell is not original
        assert coupling.CompositionalMap.__call__ is not original_call
    finally:
        undo()
    assert fem.evaluate_cell is original and benchmarks.evaluate_cell is original
    assert coupling.CompositionalMap.__call__ is original_call


def test_absent_symbol_is_reported_not_fatal():
    targets = layers.TARGETS + [
        Target("fem.removed_helper", "bezmortar.fem", "removed_helper"),
        Target("model.Gone.method", "bezmortar.model", "Gone.method"),
        Target("nomodule.f", "bezmortar.no_such_module", "f"),
    ]
    gone = [t for t in layers.TARGETS if t.name == "fem.assemble_neo_hookean"]
    targets = [t if t not in gone else dataclasses.replace(t, qualname="vanished")
               for t in targets]
    rec = Recorder()
    absent, undo = install(rec, targets, layers.PACKAGE)
    undo()
    assert set(absent) == {"fem.removed_helper", "model.Gone.method", "nomodule.f",
                           "fem.assemble_neo_hookean"}
    out = layers.layer_metrics(rec, absent, wall_s=1.0)
    assert set(out["metrics"]) == set(layers.PER_LAYER)
    assert set(out["absent"]) == {"fem.assemble_neo_hookean.calls",
                                  "fem.assemble_neo_hookean.self_s",
                                  "fem.assemble_neo_hookean.useful_ratio"}
    assert all(out["metrics"][m] == 0 for m in out["absent"])


def test_unattributed_time_is_what_the_named_layers_miss():
    # an orchestrator that no metric names (0 .. 10) around a named layer
    # (2 .. 5): its own 7 s are unattributed, as is the harness's 1 s outside
    rec = Recorder(clock=_clock([0.0, 2.0, 5.0, 10.0]))
    outer = rec.open(rec.name_id("benchmarks.run_convergence"))
    inner = rec.open(rec.name_id("benchmarks.solve_case"))
    rec.close(inner)
    rec.close(outer)
    out = layers.layer_metrics(rec, [], wall_s=11.0)
    assert out["metrics"]["benchmarks.solve_case.total_s"] == 3.0
    assert out["metrics"]["trace.unattributed_s"] == 8.0


def test_every_wrapped_function_is_named_by_a_metric():
    assert sorted(t.name for t in layers.TARGETS) == sorted(layers.named_spans())


def test_useful_calls_counts_only_guard_assemblies_as_waste():
    # (after a solve, state, raised): an iterate, a guard that the next
    # iteration repeats, a guard that raised, a halved guard step that is
    # repeated, the converged check and the next increment's first assembly
    records = [(False, "x0", False), (True, "x1", False), (False, "x1", False),
               (True, "t", True), (False, "x2", False), (False, "x2", False),
               (False, "x2", False)]
    assert layers.useful_calls(records) == 4


def test_scaling_exponent_uses_last_two_levels():
    assert layers.scaling_exponent([(10, 1.0), (100, 2.0), (400, 8.0)]) == pytest.approx(1.0)
    assert layers.scaling_exponent([(10, 1.0)]) == 0.0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_reaches_only_benchmark_case_seed(name):
    wl = WORKLOADS[name]
    a, b = wl.inputs(1), wl.inputs(2)
    assert a.keys() == b.keys()
    for key in a:
        if dataclasses.is_dataclass(a[key]):
            assert a[key].seed == 1 and b[key].seed == 2
            assert dataclasses.replace(a[key], seed=2) == b[key]
        else:
            assert a[key] == b[key]


def test_traced_and_untraced_runs_give_identical_errors():
    wl = WORKLOADS["poisson-converge"]
    # three levels run every wrapped path of the four-level workload
    inputs = dict(wl.inputs(1234), levels=3)
    plain = [r["l2_error"] for r in wl.run(inputs, "")["report"].rows]
    rec = Recorder()
    absent, undo = install(rec, layers.TARGETS, layers.PACKAGE)
    try:
        traced = [r["l2_error"] for r in wl.run(inputs, "")["report"].rows]
    finally:
        undo()
    assert absent == []
    assert traced == plain
    out = layers.layer_metrics(rec, absent, wall_s=rec.root_time())
    assert out["metrics"]["benchmarks.solve_case.calls"] == 3
    assert [c for c, _ in out["levels"]] == sorted(c for c, _ in out["levels"])


def test_host_speed_cancels_but_library_speed_shows():
    import run

    def rep(wall, cal):
        return {"errors": [], "traced": 0, "wall_s": wall, "cal_s": cal, "dofs": 100,
                "rss_mb": 50.0, "proc_s": wall + 1.0}

    ref = run.REFERENCE_CAL_S
    base = {"setups": [0.5, 0.5, 0.5], "reps": [rep(2.0, ref), rep(2.0, ref)]}
    slow_host = {"setups": [0.9] * 3, "reps": [rep(3.6, 1.8 * ref), rep(3.6, 1.8 * ref)]}
    slow_lib = {"setups": [0.5] * 3, "reps": [rep(2.4, ref), rep(2.4, ref)]}
    e2e = [run.summarise(r, 0)["end_to_end"] for r in (base, slow_host, slow_lib)]
    assert e2e[1]["wall_s"] == pytest.approx(e2e[0]["wall_s"])
    assert e2e[1]["setup_s"] == pytest.approx(e2e[0]["setup_s"])
    assert e2e[2]["wall_s"] == pytest.approx(1.2 * e2e[0]["wall_s"])
    assert e2e[2]["dofs_per_s"] == pytest.approx(e2e[0]["dofs_per_s"] / 1.2)


def test_benchmark_json_names_match_the_harness():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    import run

    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS) == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == layers.PER_LAYER
    assert all(m["unit"] == layers.unit(m["name"]) for m in spec["per_layer"])
