"""Tests of the benchmark itself: ``python -m pytest benchmarks/perf``."""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

import child
import compare
import defs
import run
import tracer
from tracer import SPANS, TARGETS, Tracer

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]


class FakeClock:
    """A clock that moves only when a test says so."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def test_self_time_on_nested_call_tree():
    clock = FakeClock()
    tr = Tracer(clock=clock)

    def leaf():
        clock.advance(1.0)

    def middle():
        clock.advance(2.0)
        leaf()
        leaf()

    leaf = tr.wrap("leaf", leaf)
    middle = tr.wrap("middle", middle)

    def root():
        clock.advance(0.5)
        middle()
        leaf()
        clock.advance(0.25)

    tr.wrap("root", root)()
    spans = tr.as_dict()
    assert spans["leaf"] == {"calls": 3, "total_s": 3.0, "self_s": 3.0}
    assert spans["middle"] == {"calls": 1, "total_s": 4.0, "self_s": 2.0}
    assert spans["root"] == {"calls": 1, "total_s": 5.75, "self_s": 0.75}
    # self times partition the root's wall time exactly
    assert sum(s["self_s"] for s in spans.values()) == 5.75


def test_recorded_span_counts_as_child_time():
    clock = FakeClock()
    tr = Tracer(clock=clock)

    def outer():
        clock.advance(3.0)
        tr.record("import", 2.0)

    tr.wrap("outer", outer)()
    spans = tr.as_dict()
    assert spans["import"]["self_s"] == 2.0
    assert spans["outer"]["self_s"] == 1.0


def test_span_closes_when_the_call_raises():
    clock = FakeClock()
    tr = Tracer(clock=clock)

    def boom():
        clock.advance(1.0)
        raise ValueError("x")

    with pytest.raises(ValueError):
        tr.wrap("boom", boom)()
    assert tr.as_dict()["boom"]["calls"] == 1
    assert tr._open == []


@pytest.fixture
def fake_module(monkeypatch):
    mod = types.ModuleType("perf_fake_target")

    class Engine:
        def step(self, x):
            return x + 1

    class Kernel:
        def build(self, scale):
            return scale * 2

    mod.Engine = Engine
    mod.REGISTRY = {"a": Kernel(), "b": Kernel()}
    mod.run = lambda x: x * 3
    monkeypatch.setitem(sys.modules, mod.__name__, mod)
    monkeypatch.setattr(tracer, "TARGETS", {
        "engine.step": (mod.__name__, "Engine.step", "w"),
        "kernel.build": (mod.__name__, "REGISTRY.*.build", "w"),
        "run": (mod.__name__, "run", "w"),
        "renamed": (mod.__name__, "Engine.renamed_step", "w"),
        "gone": ("perf_no_such_module", "run", "w"),
    })
    return mod


def test_install_wraps_targets_and_reports_absent_ones(fake_module):
    tr = Tracer()
    absent = tr.install(tracer.TARGETS)
    assert absent == ["renamed", "gone"]
    assert fake_module.Engine().step(1) == 2
    assert fake_module.REGISTRY["a"].build(2) == 4
    assert fake_module.REGISTRY["b"].build(3) == 6
    assert fake_module.run(2) == 6
    spans = tr.as_dict()
    assert spans["engine.step"]["calls"] == 1
    assert spans["kernel.build"]["calls"] == 2
    assert spans["run"]["calls"] == 1
    assert "renamed" not in spans and "gone" not in spans


def test_host_speed_is_reference_over_mean_sample():
    host = child.HostSpeed()
    ref = host.REFERENCE_S
    host.samples = [ref, 3 * ref]
    assert host.stop() == pytest.approx(0.5)


def test_host_speed_samples_while_the_process_works():
    host = child.HostSpeed()
    host.start()
    end = time.perf_counter() + 10 * host.PERIOD_S
    while time.perf_counter() < end:
        pass
    speed = host.stop()
    assert len(host.samples) >= 5
    assert 0.05 < speed < 20.0
    # stopped: no further samples
    n = len(host.samples)
    time.sleep(3 * host.PERIOD_S)
    assert len(host.samples) == n


def test_every_target_names_a_workload():
    for name, (_, _, home) in TARGETS.items():
        assert home in defs.WORKLOAD_NAMES, name


@pytest.mark.parametrize("values", [
    [3.0, 1.0, 2.0],
    [1.0, 2.0, 3.0, 4.0],
    [5.0, 1.0, 9.0, 2.0, 7.0, 3.0, 8.0, 4.0, 6.0, 10.0],
])
def test_summarize_matches_statistics_quantiles(values):
    s = defs.summarize(values)
    q1, med, q3 = statistics.quantiles(values, n=4)
    assert (s["q1"], s["median"], s["q3"], s["n"]) == \
        (q1, med, q3, len(values))
    assert s["median"] == statistics.median(values)


def test_summarize_single_value_and_empty():
    assert defs.summarize([2.5]) == {"median": 2.5, "q1": 2.5, "q3": 2.5,
                                     "n": 1}
    with pytest.raises(ValueError):
        defs.summarize([])


def test_paper_err_pct_on_synthetic_rows():
    assert defs.paper_err_pct([(4.0, 4.0), (7.0, 7.0)]) == 0.0
    # a 2x overshoot and a 2x undershoot are the same error: 100%
    assert defs.paper_err_pct([(2.0, 1.0), (1.0, 2.0)]) == \
        pytest.approx(100.0)
    # geometric mean of 1x and 4x error: exp((0 + ln 4) / 2) = 2 -> 100%
    assert defs.paper_err_pct([(1.0, 1.0), (4.0, 1.0)]) == \
        pytest.approx(100.0)
    for bad in ([(float("nan"), 1.0)], [(0.0, 1.0)], [(1.0, -2.0)], []):
        with pytest.raises(ValueError):
            defs.paper_err_pct(bad)


@pytest.mark.parametrize("base, head, better, expected", [
    # head faster in all 10 pairs, gap above the base IQR
    ([10.0 + 0.1 * i for i in range(10)],
     [9.0 + 0.1 * i for i in range(10)], "lower", "improved"),
    # same distribution: within the bound
    ([10.0, 10.1, 9.9, 10.0, 10.05, 9.95, 10.0, 10.1, 9.9, 10.0],
     [10.05, 10.0, 9.95, 10.1, 9.9, 10.0, 10.05, 9.95, 10.0, 10.1],
     "lower", "no worse"),
    # steady but 20% slower
    ([10.0] * 10, [12.0] * 10, "lower", "worse"),
    # spread wider than the bound
    ([10.0, 13.0, 8.0, 12.0, 9.0, 14.0, 7.0, 11.0, 10.0, 12.0],
     [11.0, 9.0, 13.0, 8.0, 12.0, 10.0, 14.0, 9.0, 11.0, 10.0],
     "lower", "unresolved"),
    # higher is better: a 20% throughput drop is worse
    ([100.0] * 10, [80.0] * 10, "higher", "worse"),
    ([100.0] * 10, [120.0] * 10, "higher", "improved"),
])
def test_compare_verdict_rule(base, head, better, expected):
    assert compare.verdict(base, head, better, 0.10)[0] == expected


def test_compare_verdict_counts_wins_without_ties():
    base = [1.0, 1.0, 2.0, 2.0]
    head = [0.5, 1.0, 3.0, 1.0]
    assert compare.verdict(base, head, "lower", 0.1)[1] == 2


def test_compare_verdict_zero_base_any_increase_is_worse():
    assert compare.verdict([0.0] * 3, [0.0] * 3, "lower", 0.0)[0] == \
        "no worse"
    assert compare.verdict([0.0] * 3, [0.1] * 3, "lower", 0.0)[0] == \
        "worse"


def test_benchmark_json_agrees_with_definitions():
    doc = json.loads((REPO / "BENCHMARK.json").read_text())
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert doc["paths"] == ["benchmarks/perf"]
    assert [w["name"] for w in doc["workloads"]] == \
        list(defs.WORKLOAD_NAMES)
    assert [w["why"] for w in doc["workloads"]] == \
        [w.why for w in defs.WORKLOADS]
    assert doc["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better,
         "bound": m.bound} for m in defs.END_TO_END]
    assert doc["per_layer"] == [
        {"name": n, "unit": u, "better": b}
        for n, u, b in defs.layer_metrics(SPANS)]


def test_missing_source_tree_exits_nonzero_without_output(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--src", str(tmp_path)],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def _per_layer_table_with(absent_span: str) -> str:
    """Render one workload whose traced record lacks ``absent_span``."""
    spans = {s: {"calls": 1, "total_s": 0.1, "self_s": 0.1}
             for s in SPANS if s != absent_span}
    record = {
        "wall_s": 2.0, "wall_internal_s": 2.0, "spans": spans,
        "absent": [absent_span], "cache_hits": 0, "cache_gets": 0,
        "sim_cells": 1, "sim_instructions": 10, "sim_cycles": 100,
        "sim_s": 1.0, "setup_s": 0.5, "speed": 1.0, "rss_mb": 50.0, "attempted": 1, "failures": [],
        "cells_digest": "d", "paper_pairs": [(1.0, 2.0)],
        "jit": {"batched_instructions": 5, "deopts": 0,
                "compile_rejects": 0},
        "counters": {f"{g}.{n}": 0 for g, n in child._COMPONENT_COUNTERS},
    }
    wr = run.WorkloadRun(defs.workload("sweep-dense"))
    wr.untraced.append(dict(record, absent=[]))
    wr.traced.append(record)
    wr.finish(primed={})
    assert wr.failed == 0 and wr.absent == [absent_span]
    return run.render_per_layer({"sweep-dense": wr})


def test_absent_target_is_reported_not_fatal():
    table = _per_layer_table_with("vbox.plan")
    line = next(l for l in table.splitlines() if "vbox.plan " in l)
    assert "absent" in line


def test_smoke_run_emits_every_metric_and_fires_every_span(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--out",
         str(tmp_path)],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0
    doc = json.loads((tmp_path / "results.json").read_text())
    layer_names = {n for n, _, _ in defs.layer_metrics(SPANS)}
    for w in defs.WORKLOADS:
        result = doc["workloads"][w.name]
        for m in defs.END_TO_END:
            assert f"{w.name}/{m.name}" in line["metrics"]
            assert result["end_to_end"][m.name]["median"] > 0, m.name
        expected_extra = {"failed_frac"} | (
            set() if w.warm else {"sim_kinstr_per_s"})
        assert expected_extra <= set(result["end_to_end"])
        assert set(result["per_layer"]) == layer_names
        assert result["absent"] == []
    for span, (_, _, home) in TARGETS.items():
        calls = doc["workloads"][home]["per_layer"][f"{span}.calls"]
        assert calls >= 1, f"{span} never fired on {home}"
