"""Simulator-throughput benchmark harness (``python -m repro bench``).

Measures how fast the *simulator itself* runs — wall-clock and simulated
instructions per host second for every workload of one suite (default:
``tarantula``, the paper's 19 benchmarks; ``--suite`` picks another) —
and writes the results to ``BENCH_sim_throughput.json``.  The committed
copy of
that file is the performance baseline: CI reruns the quick benchmark
and fails when the total slows down by more than
:data:`REGRESSION_TOLERANCE` (see docs/PERF.md).

Two timings per workload:

* **cold** — build the workload instance (program assembly + numpy
  reference data) and simulate it, on a process with empty memo caches;
* **warm** — simulate again with the instance memo, splat/stride/plan
  caches and interpreter warm: the steady-state cost a sweep pays per
  additional cell.

When the trace JIT is enabled (the default), each workload also gets a
**jit_off** sidecar: a third, warm measurement with the JIT forced off
in-process.  The rerun must land on bit-identical cycles (a divergence
fails the benchmark), and the recorded ``jit_speedup`` ratio is the
machine-independent speedup evidence — both runs share one process on
one machine, so host noise cancels out of the ratio.

Runs go through :func:`repro.harness.engine.execute` — the same path
the report uses — with ``check=True``, so a benchmark run is also a
correctness run.

Ctrl-C keeps the measurements already taken, records the remaining
workloads under ``incomplete`` and exits 130.  A document with
incomplete entries never passes ``--check-against`` — a partial total
is not comparable.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

#: benchmark problem scale: small enough for CI, big enough that the
#: timing hot path (not workload build) dominates
QUICK_SCALE = 0.05
FULL_SCALE = 0.25

#: CI gate: fail when total warm wall-clock regresses past this factor
REGRESSION_TOLERANCE = 1.20

DEFAULT_OUTPUT = "BENCH_sim_throughput.json"
SCHEMA = "repro-bench-v1"


def _clear_memos() -> None:
    """Reset every per-process cache a cold measurement must not see."""
    from repro import jit
    from repro.harness import engine
    from repro.isa import semantics
    from repro.vbox import crbox

    engine._INSTANCE_MEMO.clear()
    semantics._SPLAT_CACHE.clear()
    semantics._STRIDED_CACHE = (None, None)
    jit.clear_caches()
    crbox.clear_pack_memo()


def _run_once(kernel: str, scale: float) -> tuple[float, object]:
    """One timed simulation of ``kernel``; returns (seconds, outcome)."""
    from repro.harness.engine import ExperimentSpec, execute

    spec = ExperimentSpec(kernel=kernel, config="T", scale=scale)
    t0 = time.perf_counter()
    outcome = execute(spec)
    elapsed = time.perf_counter() - t0
    if getattr(outcome, "failed", False):
        raise RuntimeError(
            f"bench: {kernel} failed: {outcome.message}")  # type: ignore
    return elapsed, outcome


def _instructions(outcome) -> int:
    counts = outcome.detail.counts
    return counts.scalar_instructions + counts.vector_instructions


def _jit_off_sidecar(name: str, scale: float, cycles: float) -> float | None:
    """Warm ``jit_off`` measurement of one workload, or None when the
    process already runs with the JIT off (nothing to compare).

    Doubles as a differential gate: the JIT-off rerun must land on the
    exact same cycle count, or the whole benchmark run fails.
    """
    from repro import jit

    if not jit.enabled():
        return None
    with jit.disabled():
        off_s, off_outcome = _run_once(name, scale)
    if off_outcome.cycles != cycles:
        raise RuntimeError(
            f"bench: {name} diverged with the JIT off "
            f"({off_outcome.cycles} != {cycles} cycles)")
    return off_s


def _bench_cell(name: str, scale: float) -> dict:
    """Cold+warm measurement of one workload: its result-document entry.

    Memos are cleared first so the cold run is a true cold build.
    """
    _clear_memos()
    cold_s, outcome = _run_once(name, scale)
    warm_s, warm_outcome = _run_once(name, scale)
    if warm_outcome.cycles != outcome.cycles:
        raise RuntimeError(
            f"bench: {name} warm rerun diverged "
            f"({warm_outcome.cycles} != {outcome.cycles} cycles)")
    instructions = _instructions(outcome)
    entry = {
        "suite": _suite_of(name),
        "instructions": instructions,
        "simulated_cycles": outcome.cycles,
        "cold_wall_s": round(cold_s, 4),
        "warm_wall_s": round(warm_s, 4),
        "cold_instr_per_s": round(instructions / cold_s, 1),
        "warm_instr_per_s": round(instructions / warm_s, 1),
    }
    jit_off_s = _jit_off_sidecar(name, scale, outcome.cycles)
    if jit_off_s is not None:
        # same-process, same-machine differential: the ratio is the
        # speedup evidence that survives noisy CI runners
        entry["jit_off_warm_s"] = round(jit_off_s, 4)
        entry["jit_speedup"] = round(jit_off_s / warm_s, 2)
    return entry


def _suite_of(name: str) -> str:
    """First registered suite containing ``name`` (for result tagging)."""
    from repro.workloads.suite import SUITES

    for suite in SUITES.values():
        if name in suite:
            return suite.name
    return ""


def run_benchmarks(quick: bool = False,
                   kernels: list[str] | None = None,
                   progress=None, suite: str | None = None) -> dict:
    """Benchmark one suite of workloads; returns the result document.

    The default is the ``tarantula`` suite — the paper's own 19
    benchmarks, sorted, exactly what the committed baseline recorded —
    NOT the whole registry, so the ``--check-against`` gate keeps
    comparing like against like as new suites register.  An explicit
    ``kernels`` list wins over ``suite``.
    """
    import repro.workloads.registry  # noqa: F401 — populate the suites
    from repro.workloads.suite import get_suite

    scale = QUICK_SCALE if quick else FULL_SCALE
    if kernels:
        names = list(kernels)
    else:
        names = list(get_suite(suite if suite else "tarantula"))
    workloads: dict[str, dict] = {}
    incomplete: dict[str, str] = {}
    interrupted = False
    pos = 0
    try:
        for pos, name in enumerate(names):
            entry = workloads[name] = _bench_cell(name, scale)
            if progress is not None:
                print(f"bench: {name:<14s} {entry['instructions']:>8d} "
                      f"instr  cold {entry['cold_wall_s']:6.2f}s  "
                      f"warm {entry['warm_wall_s']:6.2f}s  "
                      f"({entry['warm_instr_per_s']:>9.0f} instr/s warm)",
                      file=progress)
    except KeyboardInterrupt:
        # Ctrl-C: keep the measurements already taken, record the rest
        # as incomplete and let main() exit 130 — never lose a partial
        # run to an interrupt
        interrupted = True
        incomplete = {name: "interrupted (Ctrl-C)" for name in names[pos:]
                      if name not in workloads}
        if progress is not None:
            print("bench: interrupted — remaining workload(s) recorded "
                  "as incomplete", file=progress)
    from repro import jit

    totals = {
        "cold_wall_s": round(sum(w["cold_wall_s"] for w in workloads.values()), 4),
        "warm_wall_s": round(sum(w["warm_wall_s"] for w in workloads.values()), 4),
        "instructions": sum(w["instructions"] for w in workloads.values()),
    }
    sidecars = [w["jit_off_warm_s"] for w in workloads.values()
                if "jit_off_warm_s" in w]
    if sidecars and len(sidecars) == len(workloads):
        totals["jit_off_warm_s"] = round(sum(sidecars), 4)
        if totals["warm_wall_s"]:
            totals["jit_speedup"] = round(
                totals["jit_off_warm_s"] / totals["warm_wall_s"], 2)
    doc = {
        "schema": SCHEMA,
        "quick": quick,
        "scale": scale,
        "python": sys.version.split()[0],
        "jit": {"enabled": jit.enabled()},
        "workloads": workloads,
        "totals": totals,
    }
    if incomplete:
        doc["incomplete"] = incomplete
    if interrupted:
        doc["interrupted"] = True
    return doc


def check_regression(current: dict, baseline_path: Path,
                     tolerance: float = REGRESSION_TOLERANCE,
                     stream=None) -> bool:
    """Compare against a committed baseline; True when within tolerance.

    The gate is the *total warm* wall-clock — per-workload numbers are
    too noisy on shared CI runners, but a real regression moves the
    sum.  A baseline recorded at a different scale or schema is a
    configuration error, not a pass.
    """
    stream = stream if stream is not None else sys.stderr
    if current.get("incomplete"):
        print("bench: cannot gate an incomplete run ("
              + ", ".join(sorted(current["incomplete"])) + ")", file=stream)
        return False
    baseline = json.loads(baseline_path.read_text())
    if baseline.get("schema") != current["schema"] \
            or baseline.get("scale") != current["scale"]:
        print(f"bench: baseline {baseline_path} has schema/scale "
              f"{baseline.get('schema')}/{baseline.get('scale')}, "
              f"current run is {current['schema']}/{current['scale']}",
              file=stream)
        return False
    base_total = baseline["totals"]["warm_wall_s"]
    cur_total = current["totals"]["warm_wall_s"]
    ratio = cur_total / base_total if base_total else float("inf")
    verdict = "OK" if ratio <= tolerance else "REGRESSION"
    print(f"bench: warm total {cur_total:.2f}s vs baseline "
          f"{base_total:.2f}s ({ratio:.2f}x, tolerance {tolerance:.2f}x) "
          f"-> {verdict}", file=stream)
    return ratio <= tolerance


def main(quick: bool = False, output: str | None = DEFAULT_OUTPUT,
         check_against: str | None = None,
         kernels: list[str] | None = None,
         suite: str | None = None) -> int:
    """Entry point shared by the CLI and benchmarks/ wrapper script."""
    doc = run_benchmarks(quick=quick, kernels=kernels, progress=sys.stderr,
                         suite=suite)
    if output:
        Path(output).write_text(json.dumps(doc, indent=2, sort_keys=True)
                                + "\n")
        print(f"bench: wrote {output}", file=sys.stderr)
    if check_against is not None:
        if not check_regression(doc, Path(check_against)):
            return 1
    if doc.get("interrupted"):
        return 130                      # conventional SIGINT exit status
    return 0
