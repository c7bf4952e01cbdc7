"""Deterministic fault injection and precise-trap recovery.

The paper's section 2 makes precise traps a headline feature of the
Tarantula ISA: a faulting vector instruction reports its PC, older
instructions complete, and execution is restartable.  This package
proves that contract end to end against the simulator:

* :mod:`repro.faults.plan` — a seedable :class:`FaultPlan` that picks
  injection sites deterministically from a program;
* :mod:`repro.faults.injector` — a :class:`FaultInjector` that arms
  faults at real model seams (page-table holes, poisoned lines, MAF
  replay storms, mid-kernel kill-and-replay) and drives the
  trap → checkpoint → service → resume recovery cycle;
* :mod:`repro.faults.oracle` — a differential oracle asserting that the
  recovered run reaches bit-identical architectural state to the
  fault-free run;
* :mod:`repro.faults.chaos_pool` — orchestration-level chaos: a seeded
  :class:`ChaosPool`/:class:`ChaosCache` pair that kills workers
  mid-cell, wedges them in hangs and tears result-cache writes, with
  :func:`run_pool_chaos_oracle` proving the rendered report stays
  byte-identical to a fault-free run (``repro chaos --layer pool``).

See docs/FAULTS.md for the fault model.
"""

from __future__ import annotations

from repro.faults.chaos_pool import (
    POOL_EVENTS,
    ChaosCache,
    ChaosCell,
    ChaosPool,
    PoolChaosPlan,
    PoolChaosResult,
    run_pool_chaos_oracle,
)
from repro.faults.injector import FaultInjector, InjectionLog, InjectionRecord
from repro.faults.plan import (
    SITE_KILL,
    SITE_MAF,
    SITE_POISON,
    SITE_TLB,
    SITE_TYPES,
    FaultEvent,
    FaultPlan,
)
from repro.faults.oracle import OracleResult, run_recovery_oracle, state_digest

__all__ = [
    "POOL_EVENTS",
    "SITE_KILL",
    "SITE_MAF",
    "SITE_POISON",
    "SITE_TLB",
    "SITE_TYPES",
    "ChaosCache",
    "ChaosCell",
    "ChaosPool",
    "FaultEvent",
    "FaultPlan",
    "FaultInjector",
    "InjectionLog",
    "InjectionRecord",
    "OracleResult",
    "PoolChaosPlan",
    "PoolChaosResult",
    "run_recovery_oracle",
    "run_pool_chaos_oracle",
    "state_digest",
]
