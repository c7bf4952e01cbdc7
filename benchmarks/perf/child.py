"""One iteration of a benchmark workload, in a fresh process.

``run.py`` spawns this script once per measured iteration, with the
source tree under test on ``PYTHONPATH`` and the iteration's work
directory as the current directory (``repro report`` keeps its result
cache in ``./.repro-cache``).  It runs the workload, checks its
outputs, and writes one JSON record to ``--out``: timings, span
aggregates, simulated counts and the check results.

``--verify`` is the after-run check of a report workload: it renders
the report again from the populated cache (its output must equal the
measured run's) and collects the (measured, paper) pairs behind
``paper_err_pct`` with the public ``tables``/``figures`` functions.

Untraced iterations wrap only the :class:`Probe`'s three boundaries,
which fire at most once per cell, cache lookup or build; ``--trace 1``
also installs a :class:`tracer.Tracer` over every target.  Every
iteration samples the host's speed (:class:`HostSpeed`).
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402

import defs  # noqa: E402
from tracer import IMPORT_SPAN, TARGETS, Tracer  # noqa: E402

#: component_stats counters summed over the timing cells
_COMPONENT_COUNTERS = (
    ("l2", "line_hits"), ("l2", "line_misses"), ("l2", "maf_stalls"),
    ("addr_gens", "plan_cache_hits"), ("addr_gens", "plan_cache_misses"),
    ("crbox", "tournaments"), ("vtlb", "misses"),
    ("zbox", "rambus.row_hits"), ("zbox", "rambus.row_activates"),
    ("zbox", "rambus.bytes"),
)


def _reference_loop() -> None:
    """A fixed piece of interpreter work: the host-speed yardstick."""
    table = {}
    for i in range(3000):
        table[i & 255] = i


class HostSpeed:
    """How fast the host ran this process, sampled while it worked.

    A shared host can slow a process to half speed for seconds at a
    time, whatever the process does; the README shows this on the
    reference host.  A timer signal interrupts the process every
    :attr:`PERIOD_S` and times :func:`_reference_loop`, which costs about
    0.6% of the run.  :meth:`stop` returns the speed: :attr:`REFERENCE_S`
    over the loop's mean duration, 1.0 on the reference host at full
    speed and 0.5 at half speed.  A host time multiplied by it is in
    reference-host seconds, which compare across runs whatever the
    host's speed meanwhile.
    """

    PERIOD_S = 0.025
    #: mean duration of one sample on the reference host at full speed
    REFERENCE_S = 0.155e-3

    def __init__(self) -> None:
        self.samples: list = []

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)

    def stop(self) -> float:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        return self.REFERENCE_S * len(self.samples) / sum(self.samples)

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        _reference_loop()
        self.samples.append(time.perf_counter() - start)


class Probe:
    """What the engine did in this process, seen at three boundaries:
    every ``engine.execute`` outcome and its host time, every
    result-cache lookup, and the host time of every instance build."""

    def __init__(self) -> None:
        self.outcomes: list = []
        self.raised: list = []
        self.cache_gets = 0
        self.cache_hits = 0
        self.execute_s = 0.0
        self.build_s = 0.0

    def install(self, engine, registry) -> None:
        execute = engine.execute
        get = engine.ResultCache.get
        for workload in registry.values():
            workload.build = self._timed_build(workload.build)

        def probed_execute(spec, _instance=None):
            start = time.perf_counter()
            try:
                outcome = execute(spec, _instance)
            except Exception as err:
                self.raised.append(f"{spec.kernel}/{spec.config}: "
                                   f"{type(err).__name__}: {err}")
                raise
            finally:
                self.execute_s += time.perf_counter() - start
            self.outcomes.append((spec, outcome))
            return outcome

        def probed_get(cache, key):
            outcome = get(cache, key)
            self.cache_gets += 1
            self.cache_hits += outcome is not None
            return outcome

        engine.execute = probed_execute
        engine.ResultCache.get = probed_get

    def _timed_build(self, build):
        def timed(scale=1.0):
            start = time.perf_counter()
            try:
                return build(scale)
            finally:
                self.build_s += time.perf_counter() - start
        return timed

    def summary(self) -> dict:
        """Simulated counts summed over the cells this process ran."""
        instructions = cycles = 0
        counters = {f"{group}.{name}": 0
                    for group, name in _COMPONENT_COUNTERS}
        cells = []
        for spec, outcome in self.outcomes:
            detail = outcome.detail
            counts = getattr(detail, "counts", detail)
            instructions += getattr(counts, "scalar_instructions", 0) \
                + getattr(counts, "vector_instructions", 0)
            cycles += outcome.cycles
            stats = getattr(detail, "component_stats", None) or {}
            for group, name in _COMPONENT_COUNTERS:
                counters[f"{group}.{name}"] += \
                    stats.get(group, {}).get(name, 0)
            cells.append((spec.kernel, spec.config, spec.scale, spec.mode,
                          spec.drain_dirty, outcome.cycles))
        return {"sim_cells": len(self.outcomes),
                "sim_instructions": instructions, "sim_cycles": cycles,
                "counters": counters, "cells_digest": _digest(cells)}


def _digest(cells) -> str:
    """Order-independent digest of per-cell (kernel, config, cycles)."""
    return hashlib.sha256(repr(sorted(cells)).encode()).hexdigest()


# -- paper fidelity -----------------------------------------------------------


def pairs_from_rows(t2=None, t4=None, f6=None, f7=None, f8=None) -> list:
    """(measured, paper) pairs from the public table/figure rows."""
    from repro.harness import paper_data as paper

    pairs = []
    for row in (t2 or {}).values():
        if row.paper_vect_pct is not None:
            pairs.append((row.measured_vect_pct, row.paper_vect_pct))
    for name, row in (t4 or {}).items():
        ref = paper.TABLE4.get(name, {})
        if ref.get("streams"):
            pairs.append((row.streams_mbytes_per_s, ref["streams"]))
        if ref.get("raw"):
            pairs.append((row.raw_mbytes_per_s, ref["raw"]))
    for name, row in (f6 or {}).items():
        if name in paper.FIGURE6_OPC:
            pairs.append((row.opc, paper.FIGURE6_OPC[name]))
    for name, row in (f7 or {}).items():
        if name in paper.FIGURE7_SPEEDUP_T:
            pairs.append((row.speedup_tarantula,
                          paper.FIGURE7_SPEEDUP_T[name]))
    for name, row in (f8 or {}).items():
        ref = paper.FIGURE8.get(name, {})
        if "T4" in ref:
            pairs.append((row.speedup_t4, ref["T4"]))
        if "T10" in ref:
            pairs.append((row.speedup_t10, ref["T10"]))
    return pairs


def pairs_from_cells(outcomes) -> list:
    """(measured, paper) pairs a sweep's own cells determine: Figure 6
    OPC from each T cell, Figure 8's T4 speedup from each T/T4 pair."""
    from repro.harness import paper_data as paper

    by_cell = {(spec.kernel, spec.config): out for spec, out in outcomes}
    pairs = []
    for (kernel, config), out in sorted(by_cell.items()):
        if config != "T":
            continue
        if kernel in paper.FIGURE6_OPC:
            pairs.append((out.opc, paper.FIGURE6_OPC[kernel]))
        t4 = by_cell.get((kernel, "T4"))
        if t4 is not None and "T4" in paper.FIGURE8.get(kernel, {}):
            pairs.append((out.seconds / t4.seconds,
                          paper.FIGURE8[kernel]["T4"]))
    return pairs


# -- workloads ------------------------------------------------------------------


def run_report(smoke: bool) -> dict:
    """The report, stdout captured; returns its exit code and digest."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        if smoke:
            code = _smoke_report()
        else:
            from repro import cli

            code = cli.main(["report", "--quick", "--jobs", "1"])
    return {"exit_code": code,
            "stdout_sha256": hashlib.sha256(buf.getvalue().encode())
            .hexdigest()}


def _smoke_report() -> int:
    """The two-kernel smoke report: Table 2 census and Figure 7 grid."""
    from repro.harness import report

    rows = report_rows(smoke=True)
    print(report.render_table2(rows["t2"]))
    print(report.render_figure7(rows["f7"]))
    return 0


def report_rows(smoke: bool) -> dict:
    """The report's table and figure rows through the public
    ``tables``/``figures`` functions, with the result cache."""
    from repro.harness import figures, tables
    from repro.harness.engine import ResultCache
    from repro.workloads.suite import Suite

    cache = ResultCache()
    if smoke:
        kernels = defs.SMOKE_REPORT_KERNELS
        return {"t2": tables.table2(scale=defs.SMOKE_SCALE, cache=cache,
                                    suite=Suite("perf-smoke", kernels)),
                "f7": figures.figure7(kernels=kernels, quick=True,
                                      cache=cache)}
    return {"t2": tables.table2(quick=True, cache=cache),
            "t4": tables.table4(quick=True, cache=cache),
            "f6": figures.figure6(quick=True, cache=cache),
            "f7": figures.figure7(quick=True, cache=cache),
            "f8": figures.figure8(quick=True, cache=cache)}


def sweep_cells(w: defs.Workload, smoke: bool, scale_for) -> list:
    """The sweep's (kernel, config, scale) cells, in definition order."""
    if smoke:
        return list(w.smoke_cells)
    overrides = dict(w.scale_overrides)
    return [(k, c, overrides.get(k, scale_for(k, w.quick)))
            for k in w.kernels for c in w.configs]


def run_sweep(w: defs.Workload, seed: int, iteration: int,
              smoke: bool) -> dict:
    """Every cell once, check=True, no result cache, in an order drawn
    from (seed, iteration) so iterations also check order-independence."""
    from repro.harness import engine, figures

    cells = sweep_cells(w, smoke, figures.scale_for)
    random.Random(f"{seed}:{iteration}").shuffle(cells)
    failures = []
    outcomes = []
    for kernel, config, scale in cells:
        spec = engine.ExperimentSpec(kernel, config, scale, check=True)
        outcome = engine.execute_captured(spec)
        outcomes.append((spec, outcome))
        if outcome.failed:
            failures.append(f"{kernel}/{config}: {outcome.error_type}: "
                            f"{outcome.message}")
        elif not outcome.verified:
            failures.append(f"{kernel}/{config}: output not verified")
    good = [(s, o) for s, o in outcomes if not o.failed]
    return {"attempted": len(cells), "failures": failures,
            "paper_pairs": pairs_from_cells(good)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=defs.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--iteration", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--verify", action="store_true")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    w = defs.workload(args.workload)

    host = HostSpeed()
    host.start()
    t0 = time.perf_counter()
    import repro.cli  # noqa: F401  (the whole CLI and harness stack)
    import_s = time.perf_counter() - t0

    from repro import jit
    from repro.harness import engine
    from repro.workloads.registry import REGISTRY

    probe = Probe()
    probe.install(engine, REGISTRY)
    tracer = Tracer()
    tracer.record(IMPORT_SPAN, import_s)
    absent = tracer.install(TARGETS) if args.trace else []

    record: dict = {"workload": w.name}
    if w.kind == "report":
        record.update(run_report(args.smoke))
        if args.verify:
            record["paper_pairs"] = pairs_from_rows(
                **report_rows(args.smoke))
        record["attempted"] = probe.cache_gets
        failures = list(probe.raised)
        if record["exit_code"] != 0:
            failures.append(f"report exited {record['exit_code']}")
        record["failures"] = failures
    else:
        record.update(run_sweep(w, args.seed, args.iteration, args.smoke))
    wall = time.perf_counter() - _START
    speed = host.stop()

    record.update(probe.summary())
    record.update({
        "wall_internal_s": wall,
        "speed": speed,
        "speed_samples": len(host.samples),
        "setup_s": import_s + probe.build_s,
        "sim_s": probe.execute_s,
        "cache_gets": probe.cache_gets,
        "cache_hits": probe.cache_hits,
        "jit": jit.STATS.as_dict(),
        "spans": tracer.as_dict(),
        "absent": absent,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    })
    with open(args.out, "w") as handle:
        json.dump(record, handle)
    return 0

if __name__ == "__main__":
    raise SystemExit(main())
