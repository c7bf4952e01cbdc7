"""Harness: run workloads across machines, regenerate tables & figures."""

from repro.harness.figures import (
    DEFAULT_SCALES,
    figure6,
    figure7,
    figure8,
    figure9,
    tiling_ablation,
)
from repro.harness.engine import (
    ExperimentSpec,
    ResultCache,
    cache_key,
    execute,
    execute_many,
)
from repro.harness.pool import (
    Pool,
    ProcessPool,
    SerialPool,
)
from repro.harness.runner import RunOutcome, run, run_scalar, run_tarantula, \
    speedup
from repro.harness.tables import power_summary, table1, table2, table3, table4
from repro.harness.sweeps import (
    render_sweep,
    sweep_cr_cost,
    sweep_l2_size,
    sweep_maf_entries,
)
from repro.harness.trace import critical_summary, render_gantt, trace_program

__all__ = [
    "DEFAULT_SCALES",
    "ExperimentSpec",
    "Pool",
    "ProcessPool",
    "ResultCache",
    "RunOutcome",
    "SerialPool",
    "cache_key",
    "execute",
    "execute_many",
    "figure6",
    "figure7",
    "figure8",
    "figure9",
    "power_summary",
    "run",
    "run_scalar",
    "run_tarantula",
    "speedup",
    "table1",
    "table2",
    "table3",
    "table4",
    "tiling_ablation",
    "critical_summary",
    "render_gantt",
    "render_sweep",
    "sweep_cr_cost",
    "sweep_l2_size",
    "sweep_maf_entries",
    "trace_program",
]
