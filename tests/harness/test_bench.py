"""The ``repro bench`` throughput harness and its CI regression gate."""

import io
import json
from pathlib import Path

import pytest

from repro.harness import bench
from repro.workloads.registry import TARANTULA_SUITE

REPO = Path(__file__).resolve().parents[2]


def test_run_benchmarks_document_shape():
    doc = bench.run_benchmarks(quick=True, kernels=["streams.copy"])
    assert doc["schema"] == bench.SCHEMA
    assert doc["quick"] is True
    assert doc["scale"] == bench.QUICK_SCALE
    w = doc["workloads"]["streams.copy"]
    assert w["instructions"] > 0
    assert w["simulated_cycles"] > 0
    assert w["cold_wall_s"] > 0 and w["warm_wall_s"] > 0
    assert w["warm_instr_per_s"] > 0
    assert doc["totals"]["instructions"] == w["instructions"]


def _doc(warm_total, schema=bench.SCHEMA, scale=bench.QUICK_SCALE):
    return {"schema": schema, "quick": True, "scale": scale,
            "totals": {"warm_wall_s": warm_total}}


def _baseline(tmp_path, doc):
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps(doc))
    return path


def test_regression_gate_passes_within_tolerance(tmp_path):
    base = _baseline(tmp_path, _doc(10.0))
    assert bench.check_regression(_doc(11.0), base, stream=io.StringIO())


def test_regression_gate_fails_past_tolerance(tmp_path):
    base = _baseline(tmp_path, _doc(10.0))
    stream = io.StringIO()
    assert not bench.check_regression(_doc(12.5), base, stream=stream)
    assert "REGRESSION" in stream.getvalue()


def test_regression_gate_rejects_mismatched_baseline(tmp_path):
    # a baseline recorded at a different scale (or schema) is a
    # configuration error, never a silent pass
    base = _baseline(tmp_path, _doc(10.0, scale=0.25))
    assert not bench.check_regression(_doc(0.01), base, stream=io.StringIO())
    base = _baseline(tmp_path, _doc(10.0, schema="other-v0"))
    assert not bench.check_regression(_doc(0.01), base, stream=io.StringIO())


def test_regression_gate_tolerance_parameter(tmp_path):
    base = _baseline(tmp_path, _doc(10.0))
    assert bench.check_regression(_doc(14.0), base, tolerance=1.5,
                                  stream=io.StringIO())
    assert not bench.check_regression(_doc(14.0), base, tolerance=1.2,
                                      stream=io.StringIO())


def test_committed_baseline_is_fresh():
    """BENCH_sim_throughput.json stays in sync with the default suite.

    The baseline records the ``tarantula`` suite — the paper's own 19
    benchmarks, NOT the whole registry — so the regression gate keeps
    comparing like against like as new suites register.
    """
    path = REPO / bench.DEFAULT_OUTPUT
    assert path.exists(), "run `python -m repro bench --quick` and commit"
    doc = json.loads(path.read_text())
    assert doc["schema"] == bench.SCHEMA
    assert doc["scale"] == bench.QUICK_SCALE
    assert set(doc["workloads"]) == set(TARANTULA_SUITE)


def test_entries_record_their_suite():
    doc = bench.run_benchmarks(quick=True, kernels=["rivec.axpy"])
    assert doc["workloads"]["rivec.axpy"]["suite"] == "rivec"


def test_unknown_suite_rejected_with_suggestion():
    with pytest.raises(KeyError, match="did you mean: rivec"):
        bench.run_benchmarks(quick=True, suite="rivecc")


def test_main_writes_output_and_gates(tmp_path, monkeypatch, capsys):
    # fixed timings: two real ~0.03 s runs are too noisy to gate at 1.2x
    monkeypatch.setattr(bench, "_run_once",
                        lambda name, scale: (0.5, _FakeOutcome()))
    out = tmp_path / "bench.json"
    rc = bench.main(quick=True, output=str(out), kernels=["streams.copy"])
    assert rc == 0
    doc = json.loads(out.read_text())
    # self-comparison always passes the gate
    rc = bench.main(quick=True, output=None, check_against=str(out),
                    kernels=["streams.copy"])
    assert rc == 0
    # an impossible baseline fails it
    doc["totals"]["warm_wall_s"] = 1e-9
    out.write_text(json.dumps(doc))
    rc = bench.main(quick=True, output=None, check_against=str(out),
                    kernels=["streams.copy"])
    assert rc == 1


def test_interrupt_keeps_partial_document(monkeypatch):
    real = bench._run_once

    def interrupting(name, scale):
        if name == "streams.add":
            raise KeyboardInterrupt
        return real(name, scale)

    monkeypatch.setattr(bench, "_run_once", interrupting)
    progress = io.StringIO()
    doc = bench.run_benchmarks(
        quick=True, progress=progress,
        kernels=["streams.copy", "streams.add", "streams.triad"])
    assert doc["interrupted"] is True
    assert "streams.copy" in doc["workloads"]
    assert doc["incomplete"] == {
        "streams.add": "interrupted (Ctrl-C)",
        "streams.triad": "interrupted (Ctrl-C)"}
    assert "interrupted" in progress.getvalue()


def test_interrupted_run_never_passes_the_gate(tmp_path, monkeypatch):
    # first take an honest quick baseline
    out = tmp_path / "baseline.json"
    assert bench.main(quick=True, output=str(out),
                      kernels=["streams.copy"]) == 0

    def interrupting(name, scale):
        raise KeyboardInterrupt

    monkeypatch.setattr(bench, "_run_once", interrupting)
    partial = tmp_path / "partial.json"
    rc = bench.main(quick=True, output=str(partial),
                    check_against=str(out), kernels=["streams.copy"])
    # the gate rejects the incomplete run (1) before the interrupt
    # status (130) is consulted; either way the exit is non-zero
    assert rc in (1, 130)
    doc = json.loads(partial.read_text())
    assert doc["interrupted"] is True
    assert doc["workloads"] == {}


def test_interrupt_exit_status_is_130(tmp_path, monkeypatch):
    def interrupting(name, scale):
        raise KeyboardInterrupt

    monkeypatch.setattr(bench, "_run_once", interrupting)
    out = tmp_path / "partial.json"
    rc = bench.main(quick=True, output=str(out),
                    kernels=["streams.copy"])
    assert rc == 130
    assert json.loads(out.read_text())["interrupted"] is True


class _FakeOutcome:
    """Minimal stand-in for a RunOutcome (constant cycles)."""

    def __init__(self, cycles=42.0):
        self.cycles = cycles
        self.failed = False
        self.detail = type("D", (), {})()
        self.detail.counts = type("C", (), {})()
        self.detail.counts.scalar_instructions = 5
        self.detail.counts.vector_instructions = 7


def test_jit_sidecar_fields_present_when_enabled(monkeypatch):
    from repro import jit

    monkeypatch.setattr(jit, "_FORCED", True)
    monkeypatch.setattr(bench, "_run_once",
                        lambda name, scale: (0.5, _FakeOutcome()))
    doc = bench.run_benchmarks(quick=True, kernels=["streams.copy"])
    assert doc["jit"] == {"enabled": True}
    w = doc["workloads"]["streams.copy"]
    assert w["jit_off_warm_s"] == 0.5
    assert w["jit_speedup"] == 1.0
    assert doc["totals"]["jit_off_warm_s"] == 0.5
    assert doc["totals"]["jit_speedup"] == 1.0


def test_jit_sidecar_absent_when_disabled(monkeypatch):
    from repro import jit

    monkeypatch.setattr(jit, "_FORCED", False)
    monkeypatch.setattr(bench, "_run_once",
                        lambda name, scale: (0.5, _FakeOutcome()))
    doc = bench.run_benchmarks(quick=True, kernels=["streams.copy"])
    assert doc["jit"] == {"enabled": False}
    assert "jit_off_warm_s" not in doc["workloads"]["streams.copy"]
    assert "jit_off_warm_s" not in doc["totals"]
    assert "jit_speedup" not in doc["totals"]


def test_jit_sidecar_divergence_fails_the_benchmark(monkeypatch):
    # the sidecar doubles as a differential gate: a JIT-off rerun that
    # lands on different cycles is a soundness bug, not a measurement
    from repro import jit

    monkeypatch.setattr(jit, "_FORCED", True)
    monkeypatch.setattr(
        bench, "_run_once",
        lambda name, scale:
            (0.5, _FakeOutcome(42.0 if jit.enabled() else 41.0)))
    with pytest.raises(RuntimeError, match="diverged with the JIT off"):
        bench.run_benchmarks(quick=True, kernels=["streams.copy"])
