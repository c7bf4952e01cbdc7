"""Definitions shared by the benchmark's runner, child and comparator.

Everything here is plain data plus small pure functions: no module of
this file imports ``repro``, because the runner drives whichever source
tree ``--src`` names and only the child processes import it.
``test_perf.py`` checks that ``BENCHMARK.json`` at the repository root
agrees with the metric tables below.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: what a run does, and why it is here."""

    name: str
    why: str
    #: "report" runs ``repro report --quick --jobs 1``; "sweep" runs
    #: ``engine.execute`` over ``kernels`` x ``configs``
    kind: str
    #: report workloads: run against a pre-populated result cache
    warm: bool = False
    kernels: tuple = ()
    configs: tuple = ()
    #: sweep scales: ``figures.scale_for(kernel, quick)`` ...
    quick: bool = True
    #: ... unless the kernel has an explicit scale here
    scale_overrides: tuple = ()
    #: ``--smoke``: two (kernel, config, scale) cells
    smoke_cells: tuple = ()


SWEEP_CONFIGS = ("T", "T4", "T-nopump")

WORKLOADS = (
    Workload(
        "report-cold",
        "repro report --quick --jobs 1 in an empty result cache: every "
        "simulator layer plus the cache write path",
        kind="report"),
    Workload(
        "report-warm",
        "the same report against a populated cache: spec digests, "
        "instance builds and cache reads, with the simulator idle",
        kind="report", warm=True),
    Workload(
        "sweep-dense",
        "engine.execute over dense kernels the JIT batches: the timing "
        "half (L2 slices, address plans, scoreboard) dominates",
        kind="sweep",
        kernels=("dgemm", "dtrmm", "linpack100", "linpacktpp", "lu",
                 "streams.copy", "streams.triad", "swim", "rivec.axpy",
                 "rivec.jacobi2d"),
        configs=SWEEP_CONFIGS, quick=True,
        smoke_cells=(("dgemm", "T", 0.05),
                     ("streams.triad", "T-nopump", 0.05))),
    Workload(
        "sweep-irregular",
        "engine.execute over masked, indexed and carried kernels the JIT "
        "rejects: per-instruction step, functional step and CR box",
        kind="sweep",
        kernels=("sparsemxv", "moldyn", "ccradix", "rndcopy",
                 "rndmemscale", "art", "fft", "rivec.spmv.csr",
                 "rivec.spmv.ell", "rivec.pathfinder",
                 "rivec.streamcluster"),
        configs=SWEEP_CONFIGS, quick=False,
        # ccradix at its quick scale keeps it under ~30% of the wall time
        scale_overrides=(("ccradix", 0.5),),
        # sparsemxv is the smallest cell that evicts dirty lines
        smoke_cells=(("sparsemxv", "T", 0.3), ("art", "T4", 0.05))),
)

WORKLOAD_NAMES = tuple(w.name for w in WORKLOADS)


def workload(name: str) -> Workload:
    for w in WORKLOADS:
        if w.name == name:
            return w
    raise KeyError(f"unknown workload {name!r}; known: "
                   f"{', '.join(WORKLOAD_NAMES)}")


#: problem scale of the ``--smoke`` report's Table 2 census
SMOKE_SCALE = 0.05
#: kernels of the ``--smoke`` report (Table 2 census + Figure 7 grid)
SMOKE_REPORT_KERNELS = ("swim", "rivec.jacobi2d")


@dataclass(frozen=True)
class Metric:
    """One end-to-end metric; README.md defines each."""

    name: str
    unit: str
    better: str  # "lower" or "higher"
    #: share of the base median by which the metric may get worse; for
    #: a base median of 0 any increase is worse
    bound: float


#: end-to-end metrics listed in BENCHMARK.json: defined on every
#: workload and never 0.  README.md gives the measured spreads behind
#: each bound; paper_err_pct repeats bit for bit, so its bound is +0 in
#: effect
END_TO_END = (
    Metric("wall_s", "s", "lower", 0.10),
    Metric("setup_s", "s", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.20),
    Metric("paper_err_pct", "%", "lower", 1e-6),
)

#: end-to-end metrics the runner prints and the comparator judges, but
#: BENCHMARK.json cannot list: sim_kinstr_per_s is undefined on
#: report-warm and failed_frac is 0 when nothing fails
EXTRA = (
    Metric("sim_kinstr_per_s", "kinstr/s", "higher", 0.10),
    Metric("failed_frac", "fraction", "lower", 0.0),
)

ALL_END_TO_END = END_TO_END + EXTRA


# -- per-layer metrics -------------------------------------------------------

#: derived per-layer counters: (name, unit, better)
LAYER_COUNTERS = (
    ("engine.cache_hit_ratio", "ratio", "higher"),
    ("sim.cells", "count", "lower"),
    ("sim.instructions", "count", "lower"),
    ("sim.cycles", "cycles", "lower"),
    ("jit.batched_share", "ratio", "higher"),
    ("jit.deopts", "count", "lower"),
    ("jit.compile_rejects", "count", "lower"),
    ("vbox.plan_cache_hit_ratio", "ratio", "higher"),
    ("vbox.crbox_tournaments", "count", "lower"),
    ("vbox.tlb_misses", "count", "lower"),
    ("mem.l2_line_hit_ratio", "ratio", "higher"),
    ("mem.maf_stalls", "count", "lower"),
    ("mem.rambus_row_hit_ratio", "ratio", "higher"),
    ("mem.rambus_bytes", "bytes", "lower"),
    ("trace.unattributed_s", "s", "lower"),
    ("trace.overhead_pct", "%", "lower"),
)


def layer_metrics(spans) -> list:
    """Every per-layer metric as ``(name, unit, better)``: calls and self
    time of each span, then the derived counters."""
    out = []
    for span in spans:
        out.append((f"{span}.calls", "count", "lower"))
        out.append((f"{span}.self_s", "s", "lower"))
    return out + list(LAYER_COUNTERS)


# -- statistics ---------------------------------------------------------------


def summarize(values) -> dict:
    """Median, first and third quartile and sample count.

    Quartiles are ``statistics.quantiles(values, n=4)`` (the exclusive
    method); a single sample is its own median and quartiles.
    """
    values = [float(v) for v in values]
    if not values:
        raise ValueError("summarize() needs at least one value")
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def paper_err_pct(pairs) -> float:
    """Geometric-mean relative error against the paper, in percent.

    ``pairs`` are ``(measured, paper)`` values;
    ``100 * (exp(mean |ln(measured / paper)|) - 1)``.  A pair with a
    non-positive or non-finite side counts as a failed comparison and
    raises, because the metric would silently skip the cell otherwise.
    """
    logs = []
    for measured, paper in pairs:
        if not (measured > 0 and paper > 0 and math.isfinite(measured)
                and math.isfinite(paper)):
            raise ValueError(f"cannot compare measured={measured!r} "
                             f"with paper={paper!r}")
        logs.append(abs(math.log(measured / paper)))
    if not logs:
        raise ValueError("paper_err_pct() needs at least one pair")
    return 100.0 * (math.exp(sum(logs) / len(logs)) - 1.0)
