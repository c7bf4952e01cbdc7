"""Unified experiment engine: one execution path for the whole harness.

Every cell of the paper's evaluation grid — a (kernel, machine, scale)
triple plus a handful of run flags — is one frozen, picklable
:class:`ExperimentSpec`.  One canonical :func:`execute` turns a spec
into a :class:`RunOutcome`, routing to the Tarantula timing simulator,
the EV8 analytic model, or the functional simulator as the resolved
machine demands.  :func:`execute_many` fans a grid out across worker
processes (deterministic result order, serial fallback), and the
content-addressed :class:`ResultCache` makes regeneration incremental:
a spec's key digests the program bytes, the resolved configuration
fields and the simulator source itself, so any change that could alter
a result busts exactly the affected cells.

The figure/table/sweep generators and ``python -m repro report`` all
build spec grids and submit them here; no other module owns a
setup/step/result loop.  docs/HARNESS.md documents the model.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import pickle
import time
import traceback
import warnings
import weakref
from collections import OrderedDict
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Optional, Sequence

from repro.harness.pool import Pool, PoolPolicy, ProcessPool, SerialPool, \
    run_grid

from repro.core.config import CONFIGURATIONS, MachineConfig
from repro.errors import ArchitecturalTrap, ConfigError
from repro.workloads.base import Workload, WorkloadInstance, run_functional
from repro.workloads.registry import get

#: bump to invalidate every cached result regardless of code digests
CACHE_SCHEMA = "repro-cache-v1"

#: default cache location, relative to the working directory
CACHE_DIR = Path(".repro-cache")

_CONFIG_FIELDS = {f.name for f in dataclasses.fields(MachineConfig)}


@dataclass
class EngineStats:
    """Module-level counters for the engine's failure machinery.

    Reset with :meth:`reset` (tests) — per-run traffic lives on the
    :class:`ResultCache` instance, but pool fallbacks and cell failures
    have no natural per-call home, so they accumulate here.
    """

    pool_fallbacks: int = 0
    cell_failures: int = 0
    retries: int = 0
    quarantined: int = 0
    #: attempts abandoned for exceeding the per-cell/grid time budget
    timeouts: int = 0
    #: completed cells kept (not re-simulated) across a mid-grid pool break
    preserved_on_break: int = 0
    #: cells abandoned by a KeyboardInterrupt (Ctrl-C exits 130)
    interrupted: int = 0

    def reset(self) -> None:
        for field in dataclasses.fields(self):
            setattr(self, field.name, 0)


#: the engine's shared stats bag (per-process; pool workers get their own)
STATS = EngineStats()


#: per-process LRU memo of built workload instances, keyed by
#: (kernel, scale); most-recently-used entries live at the end
_INSTANCE_MEMO: "OrderedDict[tuple[str, float], WorkloadInstance]" = \
    OrderedDict()
_INSTANCE_MEMO_MAX = 64


def _build_instance(spec: "ExperimentSpec") -> WorkloadInstance:
    """Build — or reuse — the workload instance a spec needs.

    A sweep revisits each (kernel, scale) pair once per machine config,
    and building is expensive: program assembly plus the numpy reference
    computation.  Instances are safe to share because they are immutable
    after ``build``: the simulators never mutate instructions, ``setup``
    copies the captured arrays into a fresh memory image per run, and
    ``check`` compares without modifying its captured expectations (see
    tests/harness/test_engine.py::test_instance_reuse_is_deterministic).

    Eviction is LRU, one entry at a time — a suite sweep that touches
    more than ``_INSTANCE_MEMO_MAX`` (kernel, scale) pairs drops only
    the coldest instance instead of thrashing a full rebuild of the
    working set at the capacity cliff.
    """
    key = (spec.kernel, spec.scale)
    inst = _INSTANCE_MEMO.get(key)
    if inst is not None:
        _INSTANCE_MEMO.move_to_end(key)
        return inst
    while len(_INSTANCE_MEMO) >= _INSTANCE_MEMO_MAX:
        _INSTANCE_MEMO.popitem(last=False)
    inst = get(spec.kernel).build(spec.scale)
    _INSTANCE_MEMO[key] = inst
    return inst


@dataclass
class RunOutcome:
    """Uniform result record across vector, scalar and functional runs."""

    config_name: str
    kernel: str
    cycles: float
    core_ghz: float
    opc: float = 0.0
    fpc: float = 0.0
    mpc: float = 0.0
    other_pc: float = 0.0
    streams_mbytes_per_s: float = 0.0
    raw_mbytes_per_s: float = 0.0
    verified: bool = False
    detail: object = None

    #: discriminator shared with CellFailure (not a dataclass field)
    failed = False

    @property
    def seconds(self) -> float:
        return self.cycles / (self.core_ghz * 1e9)


#: metric names a CellFailure answers with NaN so partial tables render
_NAN_METRICS = frozenset({
    "cycles", "core_ghz", "opc", "fpc", "mpc", "other_pc",
    "streams_mbytes_per_s", "raw_mbytes_per_s", "seconds",
})


@dataclass
class CellFailure:
    """One grid cell that raised instead of completing.

    Carries everything a post-mortem needs — the spec, the formatted
    traceback, and the trap PC when the failure was an
    :class:`ArchitecturalTrap` — while quacking enough like a
    :class:`RunOutcome` (NaN metrics, ``verified=False``) that the
    table/figure renderers can mark the cell and move on instead of
    dying.  ``attempts`` is ``retries + 1`` once every retry also failed
    (quarantined).
    """

    spec: "ExperimentSpec"
    error_type: str
    message: str
    traceback_text: str
    trap_pc: Optional[int] = None
    attempts: int = 1

    failed = True
    verified = False
    detail = None

    @property
    def kernel(self) -> str:
        return self.spec.kernel

    @property
    def config_name(self) -> str:
        return self.spec.config

    def __getattr__(self, name: str):
        if name in _NAN_METRICS:
            return math.nan
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}")


@dataclass(frozen=True)
class ExperimentSpec:
    """One cell of the evaluation grid, hashable and picklable.

    ``overrides`` replaces :class:`MachineConfig` fields on the named
    base configuration — the only sanctioned way to vary a machine
    parameter (sweeps use it for ``maf_entries``, ``l2_bytes``,
    ``crbox_cycles_per_round``; nothing mutates a processor after
    construction).  ``apply_l2_hint`` controls whether the workload's
    ``l2_bytes_hint`` (DESIGN.md substitution 6) is honored; an explicit
    ``l2_bytes`` override always wins over the hint.
    """

    kernel: str
    config: str = "T"
    scale: float = 1.0
    overrides: tuple = ()
    check: bool = True
    drain_dirty: bool = False
    warm: bool = True
    apply_l2_hint: bool = True
    #: "auto" routes on ``has_vbox`` (timing vs EV8 model);
    #: "functional" runs the functional simulator only (Table 2)
    mode: str = "auto"
    #: ``(site, seed)`` arms a deliberate, unrecovered fault at a seeded
    #: site (see repro.faults) — the cell is *expected* to fail, which
    #: is how tests and chaos drills produce real CellFailures through
    #: the pool path without monkeypatching workers.  Empty = no fault.
    fault: tuple = ()

    def __post_init__(self) -> None:
        if self.config not in CONFIGURATIONS:
            known = ", ".join(sorted(CONFIGURATIONS))
            raise ConfigError(
                f"unknown configuration {self.config!r}; known: {known}")
        if self.mode not in ("auto", "functional"):
            raise ConfigError(f"unknown spec mode {self.mode!r}")
        if self.fault:
            from repro.faults.plan import SITE_TYPES

            fault = tuple(self.fault)
            if len(fault) != 2 or fault[0] not in SITE_TYPES \
                    or not isinstance(fault[1], int):
                raise ConfigError(
                    f"fault must be (site, seed) with site in {SITE_TYPES}, "
                    f"got {self.fault!r}")
            object.__setattr__(self, "fault", fault)
        canon = tuple(sorted((str(k), v) for k, v in self.overrides))
        for name, _ in canon:
            if name not in _CONFIG_FIELDS:
                raise ConfigError(
                    f"override {name!r} is not a MachineConfig field")
        object.__setattr__(self, "overrides", canon)

    def workload(self) -> Workload:
        return get(self.kernel)

    def resolve_config(self,
                       instance: Optional[WorkloadInstance] = None
                       ) -> MachineConfig:
        """The machine this spec runs on, hint and overrides applied.

        Order: base configuration, then the instance's ``l2_bytes_hint``
        (when ``apply_l2_hint``), then explicit overrides — so an
        ``l2_bytes`` override beats the hint.  The hint models the
        paper's footprint/16MB-L2 ratio on the *vector* machine
        (DESIGN.md substitution 6); scalar EV8/EV8+ baselines keep
        their own configured L2.
        """
        cfg = CONFIGURATIONS[self.config]()
        if self.apply_l2_hint and cfg.has_vbox and instance is not None \
                and instance.l2_bytes_hint is not None:
            cfg = replace(cfg, l2_bytes=instance.l2_bytes_hint)
        if self.overrides:
            cfg = replace(cfg, **dict(self.overrides))
        return cfg


# -- canonical execution ---------------------------------------------------


def _run_vector_instance(cfg: MachineConfig, instance: WorkloadInstance,
                         check: bool = True, drain_dirty: bool = False,
                         warm: bool = True) -> RunOutcome:
    """The one timing-simulator loop: setup, warm, step, account, verify.

    ``drain_dirty`` flushes dirty L2 lines through the Zbox at the end
    and counts the drain in both bytes *and* cycles — the steady-state
    accounting the bandwidth microkernels (Table 4) need.  Application
    kernels leave it off: their outputs legitimately stay cached.
    """
    from repro.core.processor import TarantulaProcessor

    proc = TarantulaProcessor(cfg)
    instance.setup(proc.functional.memory)
    if warm:
        for base, nbytes in instance.warm_ranges:
            proc.warm_l2(base, nbytes)
    proc.execute_program(instance.program)
    result = proc.result(instance.name, workload_bytes=instance.workload_bytes)
    if drain_dirty:
        drain_at = result.cycles
        for eviction in proc.l2.tags.flush():
            if eviction.dirty:
                proc.zbox.writeback_line(eviction.addr, drain_at)
        result.cycles = max(result.cycles, proc.zbox.rambus.last_finish())
        result.mem_raw_bytes = proc.zbox.raw_bytes()
        result.mem_useful_bytes = proc.zbox.useful_bytes()
    if check:
        instance.check(proc.functional.memory)
    return RunOutcome(
        config_name=cfg.name, kernel=instance.name, cycles=result.cycles,
        core_ghz=cfg.core_ghz, opc=result.opc, fpc=result.fpc,
        mpc=result.mpc, other_pc=result.other_pc,
        streams_mbytes_per_s=result.streams_mbytes_per_s,
        raw_mbytes_per_s=result.raw_mbytes_per_s,
        verified=check, detail=result)


def _run_scalar_instance(cfg: MachineConfig,
                         instance: WorkloadInstance) -> RunOutcome:
    """Run the scalar loop descriptor on the EV8/EV8+ analytic model."""
    from repro.scalar.ev8 import EV8Model

    result = EV8Model(cfg).run(instance.scalar_loop)
    return RunOutcome(
        config_name=cfg.name, kernel=instance.name, cycles=result.cycles,
        core_ghz=cfg.core_ghz, opc=result.ops_per_cycle,
        fpc=result.flops_per_cycle, detail=result)


def _run_functional_instance(cfg: MachineConfig,
                             instance: WorkloadInstance) -> RunOutcome:
    """Functional-simulator run: operation counts, output verified."""
    counts = run_functional(instance)
    return RunOutcome(
        config_name=cfg.name, kernel=instance.name, cycles=0.0,
        core_ghz=cfg.core_ghz, verified=True, detail=counts)


def run_instance(instance: WorkloadInstance, config="T", *,
                 check: bool = True, drain_dirty: bool = False,
                 warm: bool = True) -> RunOutcome:
    """Run an ad-hoc :class:`WorkloadInstance` (one not in the registry,
    e.g. the FMAC-extension kernels) through the canonical loop.
    Registry kernels should build an :class:`ExperimentSpec` instead so
    they can fan out and cache."""
    cfg = CONFIGURATIONS[config]() if isinstance(config, str) else config
    if cfg.has_vbox:
        return _run_vector_instance(cfg, instance, check=check,
                                    drain_dirty=drain_dirty, warm=warm)
    return _run_scalar_instance(cfg, instance)


def _run_faulted_instance(cfg: MachineConfig, instance: WorkloadInstance,
                          spec: "ExperimentSpec") -> RunOutcome:
    """Run with a deliberate, *unrecovered* fault armed (spec.fault).

    The planned trap escapes to the caller — :func:`execute_captured`
    turns it into a :class:`CellFailure` with the trap PC attached.  A
    fault site that never fires (e.g. the program has no eligible
    instruction) completes normally and returns a real outcome.
    """
    from repro.core.processor import TarantulaProcessor
    from repro.faults.injector import FaultInjector
    from repro.faults.plan import FaultPlan

    site, seed = spec.fault
    proc = TarantulaProcessor(cfg)
    instance.setup(proc.functional.memory)
    plan = FaultPlan(seed, sites=(site,), probe_prefetch=False)
    FaultInjector(proc, instance.program, plan).run(recover=False)
    result = proc.result(instance.name, workload_bytes=instance.workload_bytes)
    return RunOutcome(
        config_name=cfg.name, kernel=instance.name, cycles=result.cycles,
        core_ghz=cfg.core_ghz, opc=result.opc, fpc=result.fpc,
        mpc=result.mpc, other_pc=result.other_pc,
        streams_mbytes_per_s=result.streams_mbytes_per_s,
        raw_mbytes_per_s=result.raw_mbytes_per_s,
        verified=False, detail=result)


def execute(spec: ExperimentSpec,
            _instance: Optional[WorkloadInstance] = None) -> RunOutcome:
    """Run one spec to completion.  The engine's only entry into the
    simulators; everything (runner, sweeps, tables, figures, report)
    funnels through here."""
    instance = _instance if _instance is not None else _build_instance(spec)
    cfg = spec.resolve_config(instance)
    if spec.fault:
        if spec.mode == "functional" or not cfg.has_vbox:
            raise ConfigError(
                "fault injection requires the vector timing model")
        return _run_faulted_instance(cfg, instance, spec)
    if spec.mode == "functional":
        return _run_functional_instance(cfg, instance)
    if cfg.has_vbox:
        return _run_vector_instance(cfg, instance, check=spec.check,
                                    drain_dirty=spec.drain_dirty,
                                    warm=spec.warm)
    return _run_scalar_instance(cfg, instance)


def execute_captured(spec: ExperimentSpec,
                     _instance: Optional[WorkloadInstance] = None):
    """:func:`execute`, but exceptions become :class:`CellFailure`.

    This is what grid execution maps over: one bad cell must not abort
    the other 47 cells of a figure sweep.
    """
    try:
        return execute(spec, _instance)
    except Exception as err:  # noqa: BLE001 - the cell boundary
        STATS.cell_failures += 1
        trap_pc = err.pc if isinstance(err, ArchitecturalTrap) else None
        return CellFailure(
            spec=spec, error_type=type(err).__name__, message=str(err),
            traceback_text=traceback.format_exc(), trap_pc=trap_pc)


# -- content-addressed result cache ----------------------------------------


#: per-process memo of :func:`_digest_program`, keyed by the
#: :class:`~repro.isa.program.Program` object itself
_PROGRAM_DIGESTS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _digest_program(program) -> str:
    """Content digest of an assembled program (operands, masks, order).

    Computed once per program object for the life of the process:
    programs are immutable after build (the instance memo and the JIT's
    trace cache rely on that too), and a report grid shares each built
    program across every machine config.  The memo is keyed by object
    identity, so a rebuilt program is hashed afresh — the digest stays
    content-addressed — and it dies with the program.
    """
    digest = _PROGRAM_DIGESTS.get(program)
    if digest is None:
        h = hashlib.sha256()
        h.update(program.name.encode())
        for instr in program:
            h.update(repr((instr.op, instr.vd, instr.va, instr.vb, instr.rd,
                           instr.ra, instr.rb, instr.imm, instr.disp,
                           instr.masked)).encode())
        digest = _PROGRAM_DIGESTS[program] = h.hexdigest()
    return digest


def _digest_scalar_loop(loop) -> str:
    """Content digest of an EV8 loop descriptor (streams included)."""
    blob = json.dumps(dataclasses.asdict(loop), sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()


_code_version_cache: Optional[str] = None


def code_version() -> str:
    """Digest of the whole ``repro`` package source — the cache salt.

    Any edit to the simulators, the workloads or the harness invalidates
    every cached result; correctness is worth the occasional cold rerun.
    """
    global _code_version_cache
    if _code_version_cache is None:
        import repro

        root = Path(repro.__file__).parent
        h = hashlib.sha256(CACHE_SCHEMA.encode())
        for path in sorted(root.rglob("*.py")):
            h.update(str(path.relative_to(root)).encode())
            h.update(path.read_bytes())
        _code_version_cache = h.hexdigest()
    return _code_version_cache


def spec_digest(spec: ExperimentSpec,
                instance: Optional[WorkloadInstance] = None) -> str:
    """Content digest of everything a spec's *result* depends on.

    Digests the program bytes, the scalar-loop descriptor, every
    resolved :class:`MachineConfig` field and the run flags — but NOT
    the package source, so it is stable across refactors that do not
    change what actually runs.  ``tests/data/spec_digests_v1.json``
    pins these values for the original Table 2 suite: a change there
    means cached results were silently invalidated (or worse, that the
    workloads themselves changed).

    The program part comes from :func:`_digest_program`'s per-program
    memo, so a grid that runs one built program on many machines hashes
    its instructions once; the config, flags and descriptor are
    digested on every call.
    """
    if instance is None:
        instance = _build_instance(spec)
    cfg = spec.resolve_config(instance)
    blob = json.dumps({
        "kernel": spec.kernel,
        "scale": spec.scale,
        "check": spec.check,
        "drain_dirty": spec.drain_dirty,
        "warm": spec.warm,
        "mode": spec.mode,
        "fault": list(spec.fault),
        "config": dataclasses.asdict(cfg),
        "program": _digest_program(instance.program),
        "scalar_loop": _digest_scalar_loop(instance.scalar_loop),
        "workload_bytes": instance.workload_bytes,
        "warm_ranges": instance.warm_ranges,
    }, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()


def cache_key(spec: ExperimentSpec,
              instance: Optional[WorkloadInstance] = None) -> str:
    """Content address of a spec's result: :func:`spec_digest` salted
    with :func:`code_version` — a change to the spec, the workload, the
    machine config, or any package source yields a different key.
    """
    blob = json.dumps({
        "salt": code_version(),
        "spec": spec_digest(spec, instance),
    }, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


class ResultCache:
    """Content-addressed on-disk store of :class:`RunOutcome` pickles.

    Layout: ``<root>/<key[:2]>/<key>.pkl``.  A file that fails to
    unpickle, whatever ``pickle.load`` raises on its damaged bytes, or
    that holds something other than a :class:`RunOutcome`, is
    quarantined to ``<key>.corrupt`` (counted in
    ``corrupt``) so the slot can be re-stored — a truncated pickle must
    not shadow its key forever.  ``hits``/``misses``/``stores`` track
    this cache object's traffic so ``repro report`` can prove a warm
    run re-simulated zero cells.

    Writes are crash-safe: :meth:`put` fsyncs the tmp file before the
    atomic ``os.replace``, and init sweeps ``*.tmp.*`` debris older
    than :data:`STALE_TMP_AGE_S` left by writers killed mid-put (the
    age guard keeps the sweep from racing a live writer in another
    process; ``swept`` counts removals).
    """

    #: tmp files older than this are crashed-writer debris, not live puts
    STALE_TMP_AGE_S = 300.0

    def __init__(self, root: Path | str = CACHE_DIR) -> None:
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.corrupt = 0
        self.swept = self._sweep_stale_tmp()

    def _sweep_stale_tmp(self) -> int:
        cutoff = time.time() - self.STALE_TMP_AGE_S
        swept = 0
        for tmp in self.root.glob("*/*.tmp.*"):
            try:
                if tmp.stat().st_mtime < cutoff:
                    tmp.unlink()
                    swept += 1
            except OSError:
                continue
        return swept

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.pkl"

    def get(self, key: str) -> Optional[RunOutcome]:
        path = self._path(key)
        try:
            with open(path, "rb") as handle:
                outcome = pickle.load(handle)
        except Exception as err:  # noqa: BLE001 - damaged bytes raise anything
            self.misses += 1
            self._quarantine(path, f"{type(err).__name__}: {err}")
            return None
        if not isinstance(outcome, RunOutcome):
            self.misses += 1
            self._quarantine(path, f"holds a {type(outcome).__name__}")
            return None
        self.hits += 1
        return outcome

    def _quarantine(self, path: Path, why: str) -> None:
        """Move an unreadable entry aside; a plain miss (no file) is not
        corruption and FileNotFoundError is an OSError, hence the probe."""
        if not path.exists():
            return
        try:
            os.replace(path, path.with_suffix(".corrupt"))
        except OSError:
            return
        self.corrupt += 1
        warnings.warn(f"quarantined corrupt cache entry {path.name} ({why})",
                      RuntimeWarning, stacklevel=3)

    def put(self, key: str, outcome: RunOutcome) -> None:
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        with open(tmp, "wb") as handle:
            pickle.dump(outcome, handle)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
        self.stores += 1


# -- grid execution --------------------------------------------------------


def default_jobs() -> int:
    """Worker count for ``--jobs 0`` / the report command: all cores."""
    return max(1, os.cpu_count() or 1)


#: process-wide default fault budget for grid runs; the CLI derives it
#: from ``--pool/--timeout/--deadline`` so table/figure call signatures
#: stay unchanged.  Callers wanting a specific budget pass ``policy=``.
DEFAULT_POLICY = PoolPolicy()


def _make_pool(jobs: int, n_misses: int, policy: PoolPolicy) -> Pool:
    """Pick and build a backend; falls back to serial when the platform
    cannot fork/spawn workers (sandboxes, exotic schedulers).  The
    fallback is audible: a RuntimeWarning plus ``STATS.pool_fallbacks``,
    because a silently serialized 200-cell grid looks like a hang."""
    from concurrent.futures.process import BrokenProcessPool

    want_process = policy.backend == "process" or (
        policy.backend == "auto" and jobs > 1 and n_misses > 1)
    if not want_process:
        return SerialPool()
    try:
        return ProcessPool(min(max(jobs, 1), max(n_misses, 1)))
    except (OSError, PermissionError, BrokenProcessPool) as err:
        STATS.pool_fallbacks += 1
        warnings.warn(
            f"process pool unavailable ({type(err).__name__}: {err}); "
            f"re-running {n_misses} specs serially",
            RuntimeWarning, stacklevel=3)
        return SerialPool()


def execute_many(specs: Iterable[ExperimentSpec], jobs: int = 1,
                 cache: Optional[ResultCache] = None, *,
                 policy: Optional[PoolPolicy] = None,
                 pool: Optional[Pool] = None) -> list:
    """Run a grid of specs; returns outcomes in input order.

    Duplicate specs are simulated once.  With ``jobs > 1`` the misses
    fan out over a :class:`~repro.harness.pool.ProcessPool` (specs and
    outcomes are picklable, results are keyed by submission index, so
    parallel and serial runs produce identical results).  With a
    ``cache``, previously computed cells are loaded instead of
    re-simulated.

    ``policy`` (default: the module's :data:`DEFAULT_POLICY`) sets the
    fault budget — per-cell timeout, grid deadline and retries; see
    :class:`~repro.harness.pool.PoolPolicy`.
    ``pool`` injects a prebuilt backend (chaos drills wrap one); its
    lifetime then belongs to the caller and ``jobs`` is ignored.

    A cell that fails becomes a :class:`CellFailure` instead of
    aborting the grid: it is retried at once within ``policy.retries``,
    and when the budget is exhausted it is quarantined (``attempts`` =
    total tries, counted in ``STATS.quarantined``).  Timed-out cells
    degrade into ``CellFailure(error_type="Timeout")``; a mid-grid pool
    break keeps completed results and re-runs only unfinished cells
    serially.
    Failures are never cached — the next run gets a fresh attempt.
    """
    specs = list(specs)
    unique = list(dict.fromkeys(specs))
    policy = policy if policy is not None else DEFAULT_POLICY

    outcomes: dict[ExperimentSpec, object] = {}
    keys: dict[ExperimentSpec, str] = {}
    misses: list[ExperimentSpec] = []
    for spec in unique:
        if cache is not None:
            keys[spec] = cache_key(spec)
            hit = cache.get(keys[spec])
            if hit is not None:
                outcomes[spec] = hit
                continue
        misses.append(spec)

    owned = pool is None
    if owned:
        pool = _make_pool(jobs, len(misses), policy)
    try:
        fresh = run_grid(misses, execute_captured, pool, policy, STATS)
    finally:
        if owned:
            pool.close()
    for spec, outcome in zip(misses, fresh):
        outcomes[spec] = outcome
        if cache is not None and isinstance(outcome, RunOutcome):
            cache.put(keys[spec], outcome)
    return [outcomes[spec] for spec in specs]
