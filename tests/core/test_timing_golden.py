"""Timing golden: absolute cycles and counters of every workload, pinned.

The interpreter and the trace JIT share one scheduling routine
(``TarantulaProcessor._schedule``), so diffing JIT-on against JIT-off
can no longer catch a scheduling bug: both sides would move together.
``tests/data/timing_golden_v1.json`` pins the absolute outcome instead —
cycles, Figure-6 operation counts, every component counter and the
memory-pin bytes — for every registry workload at its small scale, plus
the kernels whose benchmark-scale (0.05) programs batch (linpacktpp,
dgemm, lu) next to ones that mostly deopt (ccradix), all on config T.
``tests/data/timing_golden_nopump_v1.json`` pins the same record for
every registry workload at its small scale on config T-nopump, whose
stride-1 accesses take the reordered path (Fig. 9's denominator).

With the JIT on every recorded field must match.  With it off the
address-plan cache telemetry is exempt: compiled traces seed the plan
cache (``runtime._seed_plans``), deliberately turning misses into hits.

After an intended timing change, regenerate both files with::

    PYTHONPATH=src python tests/core/test_timing_golden.py
"""

import dataclasses
import json
from pathlib import Path

import pytest

from repro import jit
from repro.jit.runtime import STATS
from repro.workloads.registry import REGISTRY, get

DATA = Path(__file__).resolve().parents[1] / "data"
#: config -> (golden file, its schema tag)
GOLDENS = {
    "T": (DATA / "timing_golden_v1.json", "timing-golden-v1"),
    "T-nopump": (DATA / "timing_golden_nopump_v1.json",
                 "timing-golden-nopump-v1"),
}

BENCH_SCALE = 0.05
BENCH_SCALE_KERNELS = ["linpacktpp", "dgemm", "lu", "fft", "ccradix",
                       "streams.triad"]
#: bench-scale cells that must take the batched path, or the JIT-on
#: comparison proves nothing (a silent universal deopt would still pass)
BATCHED_KERNELS = ("linpacktpp", "dgemm", "lu")

_CACHE_TELEMETRY = ("plan_cache_hits", "plan_cache_misses",
                    "plan_cache_invalidations")


def _cells(config):
    cells = [(config, f"{k}@small", k, None) for k in sorted(REGISTRY)]
    if config == "T":
        cells += [(config, f"{k}@{BENCH_SCALE}", k, BENCH_SCALE)
                  for k in BENCH_SCALE_KERNELS]
    return cells


CELLS = [cell for config in GOLDENS for cell in _cells(config)]


def _cell_id(cell):
    config, name, _, _ = cell
    # config T's ids predate the second golden and stay bare
    return name if config == "T" else f"{config}:{name}"


each_cell = pytest.mark.parametrize("config,name,kernel,scale", CELLS,
                                    ids=[_cell_id(c) for c in CELLS])


def _measure(kernel, scale, config):
    """One cell's outcome on ``config``, as the JSON-shaped record the
    golden holds."""
    from repro.harness.runner import run_tarantula

    # compiled traces carry harvested plans across runs, which would
    # make the plan-cache telemetry depend on the cells run before
    jit.clear_caches()
    workload = get(kernel)
    if scale is None:
        out = run_tarantula(workload, config, instance=workload.build_small())
    else:
        out = run_tarantula(workload, config, scale=scale)
    d = out.detail
    record = {"cycles": d.cycles,
              "counts": dataclasses.asdict(d.counts),
              "component_stats": d.component_stats,
              "mem_raw_bytes": d.mem_raw_bytes,
              "mem_useful_bytes": d.mem_useful_bytes}
    # round-trip so tuples compare as the lists the file holds
    return json.loads(json.dumps(record))


def _without_telemetry(record):
    stats = {comp: {k: v for k, v in counters.items()
                    if k not in _CACHE_TELEMETRY}
             for comp, counters in record["component_stats"].items()}
    return {**record, "component_stats": stats}


@pytest.fixture(scope="module")
def golden():
    return {config: json.loads(path.read_text())["cells"]
            for config, (path, _) in GOLDENS.items()}


def test_golden_covers_every_cell(golden):
    for config in GOLDENS:
        assert sorted(golden[config]) == sorted(
            name for _, name, _, _ in _cells(config))


@each_cell
def test_jit_on_matches_golden(monkeypatch, golden, config, name, kernel,
                               scale):
    monkeypatch.setattr(jit, "_FORCED", True)
    before = STATS.batched_instructions
    assert _measure(kernel, scale, config) == golden[config][name]
    if scale is not None and kernel in BATCHED_KERNELS:
        assert STATS.batched_instructions > before


@each_cell
def test_jit_off_matches_golden(golden, config, name, kernel, scale):
    with jit.disabled():
        got = _measure(kernel, scale, config)
    assert _without_telemetry(got) == _without_telemetry(golden[config][name])


def _regenerate():
    jit.set_enabled(True)
    for config, (path, schema) in GOLDENS.items():
        cells = {name: _measure(kernel, scale, config)
                 for _, name, kernel, scale in _cells(config)}
        data = {"schema": schema, "config": config, "cells": cells}
        path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path} ({len(cells)} cells)")


if __name__ == "__main__":
    _regenerate()
