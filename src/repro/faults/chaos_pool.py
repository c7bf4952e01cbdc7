"""Orchestration-level chaos: seeded worker kills and torn cache writes.

The simulator-level chaos suite proves faults *inside* the simulator
recover bit-identically; this module applies the same seeded-injection
+ differential-oracle discipline one level up, to the grid-execution
layer itself.  Three pieces, all deterministic in a single seed:

* :class:`ChaosPool` — wraps any :class:`~repro.harness.pool.Pool` and
  decorates every submitted cell with a :class:`ChaosCell` that, per a
  :class:`PoolChaosPlan` schedule, kills its worker mid-cell
  (``os._exit``).  Marker files give each kill fire-once semantics, so
  the serial re-run after the pool break runs the cell clean.
* :class:`ChaosCache` — a :class:`~repro.harness.engine.ResultCache`
  that tears the committed entries of the plan's chosen cells
  (truncated pickle) and leaks backdated ``*.tmp.*`` debris, modelling
  writers killed mid-put.
* :func:`run_pool_chaos_oracle` — the differential gate: a fault-free
  serial reference render, a chaos run under kills and tears, and a
  warm rerun against the damaged cache must all produce byte-identical
  ``repro report`` output with zero quarantined cells, and on a process
  pool every scheduled fault must actually have been injected.
  ``repro chaos --layer pool --seed N`` runs it; CI pins one seed.  See
  docs/FAULTS.md.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import shutil
import tempfile
import time
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from repro.harness.engine import STATS, ResultCache, cache_key
from repro.harness.pool import ProcessPool, SerialPool

__all__ = [
    "EVENT_KILL",
    "ChaosCache",
    "ChaosCell",
    "ChaosPool",
    "PoolChaosPlan",
    "PoolChaosResult",
    "run_pool_chaos_oracle",
]

EVENT_KILL = "worker_kill"

#: exit status a killed worker dies with (aids post-mortems in CI logs)
KILL_STATUS = 13


def _token(spec) -> str:
    """Stable short id for a spec (marker filenames, schedules)."""
    return hashlib.sha256(repr(spec).encode()).hexdigest()[:16]


@dataclass(frozen=True)
class PoolChaosPlan:
    """Deterministic schedule of orchestration faults for one grid.

    ``schedule`` picks kill targets from the second half of the grid
    (seeded), so cells in the first half can finish before the kill
    breaks the pool and preserve-on-break has results to keep.
    ``tears`` picks the cells whose cache entries get torn.
    """

    seed: int
    kills: int = 1
    #: tear 1-in-N of the grid's cells, at least one (0 disables)
    tear_every: int = 3

    def _pick(self, indices: list, count: int, salt: str) -> list:
        picked = []
        pool = list(indices)
        for i in range(min(count, len(pool))):
            word = int.from_bytes(hashlib.sha256(
                f"{self.seed}|{salt}|{i}".encode()).digest()[:8], "big")
            picked.append(pool.pop(word % len(pool)))
        return picked

    def schedule(self, specs) -> dict:
        """Map spec -> event name, deterministic in (seed, grid)."""
        n = len(specs)
        return {specs[i]: EVENT_KILL
                for i in self._pick(list(range(n // 2, n)), self.kills,
                                    "kill")}

    def tears(self, specs) -> list:
        """The cells whose cache entries get torn, deterministic in
        (seed, grid).

        Cells are ranked by a seeded hash of their :func:`_token`, not
        of their cache key: every cache key is salted with the package
        source, and the choice must not move when the source does.
        """
        unique = list(dict.fromkeys(specs))
        if not self.tear_every or not unique:
            return []
        count = max(1, len(unique) // self.tear_every)
        return sorted(unique, key=lambda spec: hashlib.sha256(
            f"{self.seed}|tear|{_token(spec)}".encode()).digest())[:count]


@dataclass(frozen=True)
class ChaosCell:
    """Picklable cell decorator that fires one scheduled event per spec.

    Runs in the worker as ``cell(fn, spec)``.  An event fires at most
    once grid-wide (marker file, shared across processes) and never in
    the orchestrating parent — a serial fallback must make progress,
    not re-kill itself.  Suppressed events leave a ``.suppressed``
    marker so the chaos log can account for them.
    """

    events: dict
    marker_dir: str
    parent_pid: int

    def __call__(self, fn, spec):
        event = self.events.get(spec)
        if event is not None:
            marker = Path(self.marker_dir) / f"{_token(spec)}.{event}"
            if os.getpid() == self.parent_pid:
                if not marker.exists():
                    marker.with_suffix(marker.suffix + ".suppressed") \
                        .write_text(event)
            elif not marker.exists():
                marker.write_text(event)
                os._exit(KILL_STATUS)
        return fn(spec)


class ChaosPool:
    """A :class:`~repro.harness.pool.Pool` wrapper injecting the plan.

    Delegates the whole pool surface to ``inner``; the only change is
    that ``submit(fn, item)`` runs the item through a
    :class:`ChaosCell`.  The scheduler underneath cannot tell chaos
    from weather — which is the point.
    """

    def __init__(self, inner, plan: PoolChaosPlan, specs,
                 marker_dir: Path | str) -> None:
        self.inner = inner
        self.marker_dir = Path(marker_dir)
        self.marker_dir.mkdir(parents=True, exist_ok=True)
        self.events = plan.schedule(list(specs))
        self._cell = ChaosCell(self.events, str(self.marker_dir),
                               os.getpid())

    @property
    def kind(self) -> str:
        return self.inner.kind

    @property
    def workers(self) -> int:
        return self.inner.workers

    @property
    def dirty(self) -> bool:
        return self.inner.dirty

    def submit(self, fn, *args):
        return self.inner.submit(self._cell, fn, *args)

    def mark_dirty(self) -> None:
        self.inner.mark_dirty()

    def close(self) -> None:
        self.inner.close()

    def event_log(self) -> list:
        """(spec, event, status) per scheduled event, from the markers."""
        out = []
        for spec, event in self.events.items():
            marker = self.marker_dir / f"{_token(spec)}.{event}"
            if marker.exists():
                status = "fired"
            elif marker.with_suffix(marker.suffix + ".suppressed").exists():
                status = "suppressed"
            else:
                status = "unfired"
            out.append((spec, event, status))
        return out


class ChaosCache(ResultCache):
    """ResultCache variant whose writes to chosen keys go wrong.

    After a normal ``put`` of a key in ``torn_keys``, the committed
    entry is truncated (a torn write: the next reader must quarantine
    and re-simulate, never trust it) and a backdated ``*.tmp.*`` file
    appears beside it (a crashed writer's debris: the next cache init
    must sweep it).
    """

    def __init__(self, root, torn_keys) -> None:
        super().__init__(root)
        self.torn_keys = frozenset(torn_keys)
        self.torn = 0
        self.leaked_tmp = 0

    def put(self, key: str, outcome) -> None:
        super().put(key, outcome)
        if key not in self.torn_keys:
            return
        path = self._path(key)
        try:
            blob = path.read_bytes()
        except OSError:
            return
        path.write_bytes(blob[: max(1, len(blob) // 3)])
        self.torn += 1
        leak = path.with_suffix(f".tmp.{os.getpid()}")
        leak.write_bytes(blob[: max(1, len(blob) // 4)])
        stale = time.time() - 2 * self.STALE_TMP_AGE_S
        os.utime(leak, (stale, stale))
        self.leaked_tmp += 1


# -- the differential oracle -----------------------------------------------


@dataclass
class PoolChaosResult:
    """Outcome of one :func:`run_pool_chaos_oracle` drill."""

    suite: str
    seed: int
    cells: int
    jobs: int
    #: kind of the pool the chaos pass ran on: "process", or "serial"
    #: where the platform cannot start worker processes
    pool: str
    #: chaos-run report bytes == fault-free serial reference bytes
    identical: bool
    #: warm rerun against the damaged cache is *also* byte-identical
    warm_identical: bool
    #: STATS deltas across the chaos pass
    quarantined: int
    retries: int
    preserved_on_break: int
    #: injection accounting
    torn_writes: int
    leaked_tmp: int
    swept_tmp: int
    corrupt_recovered: int
    events: tuple = ()
    report_text: str = ""

    @property
    def ok(self) -> bool:
        # a drill that injected nothing proves nothing; a serial pool
        # never kills its own process, so only a process pool is held
        # to every kill firing and at least one write tearing
        injected = self.torn_writes > 0 and all(
            status == "fired" for _, _, status in self.events)
        return (self.identical and self.warm_identical
                and self.quarantined == 0
                and (self.pool != "process" or injected))

    def log_lines(self) -> list:
        lines = [f"chaos[pool]: seed={self.seed} suite={self.suite} "
                 f"cells={self.cells} jobs={self.jobs} pool={self.pool}"]
        for spec, event, status in self.events:
            lines.append(f"  {event:<12s} {spec.kernel}/{spec.config} "
                         f"scale={spec.scale:g}: {status}")
        lines.append(
            f"  counters: retries={self.retries} "
            f"quarantined={self.quarantined} "
            f"preserved_on_break={self.preserved_on_break}")
        lines.append(
            f"  cache damage: torn={self.torn_writes} "
            f"tmp_leaked={self.leaked_tmp} tmp_swept={self.swept_tmp} "
            f"corrupt_recovered={self.corrupt_recovered}")
        lines.append("  report bytes: " +
                     ("identical" if self.identical else "DIVERGED"))
        lines.append("  warm rerun:   " +
                     ("identical" if self.warm_identical else "DIVERGED"))
        lines.append("chaos[pool]: " + (
            "OK — orchestration faults are invisible in the report"
            if self.ok else "FAILED"))
        return lines

    def summary(self) -> str:
        return "\n".join(self.log_lines())


def _stats_snapshot() -> dict:
    return dataclasses.asdict(STATS)


def run_pool_chaos_oracle(seed: int = 1234, suite: str = "table4",
                          instances: str = "default", jobs: int = 2,
                          scale: float = 0.05,
                          workdir: Optional[Path] = None) -> PoolChaosResult:
    """The orchestration-chaos differential gate.

    Three passes over one suite x instance grid at a small scale:

    1. *reference* — serial, fault-free, uncached; its rendered report
       is the byte-level truth.
    2. *chaos* — a :class:`ProcessPool` wrapped in :class:`ChaosPool`
       (seeded worker kill) writing through a :class:`ChaosCache` (torn
       entries, leaked tmp files).
    3. *warm* — a fresh, plain :class:`ResultCache` over the damaged
       root, serial: init must sweep the leaked tmp files, reads must
       quarantine every torn entry and re-simulate.

    All three renders must be byte-identical and nothing may end
    quarantined — the scheduler's whole fault machinery, proven
    invisible from the outside.  Markers and the cache live under
    ``workdir``; without one, a temporary directory is created and
    removed afterwards.
    """
    if workdir is None:
        workdir = Path(tempfile.mkdtemp(prefix="repro-chaos-pool-"))
        try:
            return run_pool_chaos_oracle(seed, suite, instances, jobs,
                                         scale, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)

    import repro.workloads.registry  # noqa: F401 - populate the registries
    from repro.harness import report
    from repro.workloads.suite import Matrix, get_family, get_suite

    suite_obj = get_suite(suite)
    family = get_family(instances)
    matrix = Matrix(suite_obj, family, scales=scale, check=True)
    specs = matrix.specs()
    workdir = Path(workdir)
    marker_dir = workdir / "markers"
    cache_root = workdir / "cache"

    # pass 1: fault-free serial reference
    ref_text = report.render_matrix(suite_obj, family, matrix.run(jobs=1))

    # pass 2: chaos
    plan = PoolChaosPlan(seed)
    cache = ChaosCache(cache_root,
                       [cache_key(spec) for spec in plan.tears(specs)])
    try:
        inner = ProcessPool(jobs)
    except (OSError, PermissionError):
        inner = SerialPool()  # sandboxed platform: still drill the cache
    pool = ChaosPool(inner, plan, specs, marker_dir)
    before = _stats_snapshot()
    try:
        with warnings.catch_warnings():
            # the mid-grid break warning is the expected behavior here
            warnings.simplefilter("ignore", RuntimeWarning)
            chaos_grid = matrix.run(cache=cache, pool=pool)
    finally:
        pool.close()
    delta = {k: v - before[k] for k, v in _stats_snapshot().items()}
    chaos_text = report.render_matrix(suite_obj, family, chaos_grid)

    # pass 3: warm rerun over the damaged cache root
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # quarantines
        warm_cache = ResultCache(cache_root)
        warm_text = report.render_matrix(
            suite_obj, family, matrix.run(jobs=1, cache=warm_cache))

    return PoolChaosResult(
        suite=suite_obj.name, seed=seed, cells=len(specs), jobs=jobs,
        pool=inner.kind,
        identical=chaos_text == ref_text,
        warm_identical=warm_text == ref_text,
        quarantined=delta["quarantined"], retries=delta["retries"],
        preserved_on_break=delta["preserved_on_break"],
        torn_writes=cache.torn, leaked_tmp=cache.leaked_tmp,
        swept_tmp=warm_cache.swept, corrupt_recovered=warm_cache.corrupt,
        events=tuple(pool.event_log()), report_text=ref_text)
