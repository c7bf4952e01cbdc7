"""Harness runner: one workload on one machine configuration.

Thin, workload-object-level wrappers over the unified experiment
engine (:mod:`repro.harness.engine`), kept for callers that already
hold a :class:`~repro.workloads.base.Workload` or a built
:class:`~repro.workloads.base.WorkloadInstance`.  Each call builds one
:class:`~repro.harness.engine.ExperimentSpec` and runs it through
``engine.execute``, so the machine is resolved in one place
(``ExperimentSpec.resolve_config``).  Grid consumers (tables, figures,
sweeps, ``repro report``) build spec lists and submit them to
``engine.execute_many`` instead.

Tarantula configurations run the hand-vectorized program through the
full timing simulator (co-simulated functionally, output verified
against the numpy reference).  EV8/EV8+ run the workload's scalar loop
descriptor through the analytic model (DESIGN.md substitution 1).
Results come back in one shape either way, so the figure generators can
mix them freely.
"""

from __future__ import annotations

from typing import Optional

from repro.core.config import CONFIGURATIONS
from repro.harness.engine import ExperimentSpec, RunOutcome, execute
from repro.workloads.base import Workload, WorkloadInstance
from repro.workloads.registry import get

__all__ = ["RunOutcome", "run", "run_scalar", "run_tarantula", "speedup"]


def _execute(workload: Workload, config: str, scale: float,
             instance: Optional[WorkloadInstance], **flags) -> RunOutcome:
    """One :class:`ExperimentSpec` through :func:`execute`, on the
    caller's instance or a fresh build (never the engine's memo)."""
    inst = instance if instance is not None else workload.build(scale)
    return execute(ExperimentSpec(workload.name, config, scale, **flags),
                   _instance=inst)


def run_tarantula(workload: Workload, config: str = "T",
                  scale: float = 1.0, check: bool = True,
                  instance: Optional[WorkloadInstance] = None,
                  drain_dirty: bool = False) -> RunOutcome:
    """Run the vector program on a Tarantula timing simulator.

    ``drain_dirty`` flushes dirty L2 lines through the Zbox at the end
    and counts the drain in bytes and cycles (Table 4's steady-state
    accounting).
    """
    return _execute(workload, config, scale, instance, check=check,
                    drain_dirty=drain_dirty)


def run_scalar(workload: Workload, config: str = "EV8",
               scale: float = 1.0,
               instance: Optional[WorkloadInstance] = None) -> RunOutcome:
    """Run the scalar loop descriptor on the EV8/EV8+ analytic model."""
    return _execute(workload, config, scale, instance)


def run(workload_name: str, config: str = "T", scale: float = 1.0,
        **kw) -> RunOutcome:
    """Convenience: run a registered workload by name on any machine.

    Keyword arguments are forwarded to :func:`run_tarantula` /
    :func:`run_scalar` according to where the machine routes; passing
    one the resolved model does not accept (e.g. ``check=`` for a
    scalar machine) is an error, not a silent no-op.
    """
    workload = get(workload_name)
    if CONFIGURATIONS[config]().has_vbox:
        allowed = {"check", "instance", "drain_dirty"}
        target = run_tarantula
    else:
        allowed = {"instance"}
        target = run_scalar
    unknown = sorted(set(kw) - allowed)
    if unknown:
        raise TypeError(
            f"run({workload_name!r}, config={config!r}): "
            f"{target.__name__}() does not accept {', '.join(unknown)} "
            f"(accepts: {', '.join(sorted(allowed))})")
    return target(workload, config, scale, **kw)


def speedup(kernel: str, baseline: RunOutcome, contender: RunOutcome) -> float:
    """Wall-clock speedup of ``contender`` over ``baseline``."""
    if contender.seconds == 0:
        return float("inf")
    return baseline.seconds / contender.seconds
