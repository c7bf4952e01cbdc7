"""Orchestration-level chaos: seeded kills, hangs and torn cache writes.

PR 4 proved faults *inside* the simulator recover bit-identically; this
module applies the same seeded-injection + differential-oracle
discipline one level up, to the grid-execution layer itself.  Three
injectors, all deterministic in a single seed:

* :class:`ChaosPool` — wraps any :class:`~repro.harness.pool.Pool` and
  decorates every submitted cell with a :class:`ChaosCell` that, per a
  :class:`PoolChaosPlan` schedule, kills its worker mid-cell
  (``os._exit``) or wedges it in a long sleep.  Marker files give each
  event fire-once semantics across worker respawns and retries, so a
  retried cell runs clean — exactly the transient-fault shape the
  scheduler's budget is sized for.
* :class:`ChaosCache` — a :class:`~repro.harness.engine.ResultCache`
  that deterministically tears a subset of its committed entries
  (truncated pickle) and leaks backdated ``*.tmp.*`` debris, modelling
  writers killed mid-put.
* :func:`run_pool_chaos_oracle` — the differential gate: a fault-free
  serial reference render, a chaos run under kills/hangs/tears, and a
  warm rerun against the damaged cache must all produce byte-identical
  ``repro report`` output, with zero quarantined cells and retries
  within budget.  ``repro chaos --layer pool --seed N`` runs it; CI
  pins one seed.  See docs/FAULTS.md.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import tempfile
import time
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from repro.harness.engine import STATS, ResultCache
from repro.harness.pool import PoolPolicy, ProcessPool, SerialPool

__all__ = [
    "EVENT_HANG",
    "EVENT_KILL",
    "POOL_EVENTS",
    "ChaosCache",
    "ChaosCell",
    "ChaosPool",
    "PoolChaosPlan",
    "PoolChaosResult",
    "run_pool_chaos_oracle",
]

EVENT_KILL = "worker_kill"
EVENT_HANG = "worker_hang"
POOL_EVENTS = (EVENT_KILL, EVENT_HANG)

#: exit status a killed worker dies with (aids post-mortems in CI logs)
KILL_STATUS = 13


def _token(spec) -> str:
    """Stable short id for a spec (marker filenames, schedules)."""
    return hashlib.sha256(repr(spec).encode()).hexdigest()[:16]


@dataclass(frozen=True)
class PoolChaosPlan:
    """Deterministic schedule of orchestration faults for one grid.

    ``schedule`` picks hang targets from the first half of the grid and
    kill targets from the second half (both seeded): hangs then
    exercise the timeout/retry path *before* the kill breaks the pool
    and exercises preserve-on-break — one run covers both seams.
    ``tears`` marks a seeded subset of cache keys for torn-write
    injection.
    """

    seed: int
    kills: int = 1
    hangs: int = 1
    #: how long a hung worker sleeps; size it beyond the grid timeout
    hang_s: float = 30.0
    #: tear roughly 1-in-N committed cache entries (0 disables)
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
        first, second = list(range(n // 2)), list(range(n // 2, n))
        events = {}
        for i in self._pick(first or second, self.hangs, "hang"):
            events[specs[i]] = EVENT_HANG
        for i in self._pick([j for j in (second or first)
                             if specs[j] not in events],
                            self.kills, "kill"):
            events[specs[i]] = EVENT_KILL
        return events

    def tears(self, key: str) -> bool:
        if not self.tear_every:
            return False
        word = hashlib.sha256(f"{self.seed}|tear|{key}".encode()).digest()
        return word[0] % self.tear_every == 0


@dataclass(frozen=True)
class ChaosCell:
    """Picklable cell decorator that fires one scheduled event per spec.

    Runs in the worker as ``cell(fn, spec)``.  An event fires at most
    once grid-wide (marker file, shared across processes and respawns)
    and never in the orchestrating parent — a serial fallback must make
    progress, not re-kill itself.  Suppressed events leave a
    ``.suppressed`` marker so the chaos log can account for them.
    """

    events: dict
    marker_dir: str
    parent_pid: int
    hang_s: float

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
                if event == EVENT_KILL:
                    os._exit(KILL_STATUS)
                time.sleep(self.hang_s)
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
        self.plan = plan
        self.marker_dir = Path(marker_dir)
        self.marker_dir.mkdir(parents=True, exist_ok=True)
        self.events = plan.schedule(list(specs))
        self._cell = ChaosCell(self.events, str(self.marker_dir),
                               os.getpid(), plan.hang_s)

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

    def respawn(self) -> None:
        self.inner.respawn()

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
    """ResultCache variant whose writes deterministically go wrong.

    After a normal ``put``, a seeded subset of keys gets the committed
    entry truncated (a torn write: the next reader must quarantine and
    re-simulate, never trust it) plus a backdated ``*.tmp.*`` file (a
    crashed writer's debris: the next cache init must sweep it).
    """

    def __init__(self, root, plan: PoolChaosPlan) -> None:
        super().__init__(root)
        self.plan = plan
        self.torn = 0
        self.leaked_tmp = 0

    def put(self, key: str, outcome) -> None:
        super().put(key, outcome)
        if not self.plan.tears(key):
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
    #: chaos-run report bytes == fault-free serial reference bytes
    identical: bool
    #: warm rerun against the damaged cache is *also* byte-identical
    warm_identical: bool
    #: STATS deltas across the chaos pass
    quarantined: int
    retries: int
    timeouts: int
    preserved_on_break: int
    #: injection accounting
    torn_writes: int
    leaked_tmp: int
    swept_tmp: int
    corrupt_recovered: int
    retry_budget: int
    events: tuple = ()
    report_text: str = ""

    @property
    def within_budget(self) -> bool:
        # the serial continuation after a pool break restarts each
        # unfinished cell's budget, hence the factor of two
        return self.retries <= 2 * self.retry_budget * self.cells

    @property
    def ok(self) -> bool:
        return (self.identical and self.warm_identical
                and self.quarantined == 0 and self.within_budget)

    def log_lines(self) -> list:
        lines = [f"chaos[pool]: seed={self.seed} suite={self.suite} "
                 f"cells={self.cells} jobs={self.jobs}"]
        for spec, event, status in self.events:
            lines.append(f"  {event:<12s} {spec.kernel}/{spec.config} "
                         f"scale={spec.scale:g}: {status}")
        lines.append(
            f"  counters: timeouts={self.timeouts} retries={self.retries} "
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
                          scale: float = 0.05, timeout: float = 8.0,
                          hang_s: Optional[float] = None, retries: int = 2,
                          workdir: Optional[Path] = None) -> PoolChaosResult:
    """The orchestration-chaos differential gate.

    Three passes over one suite x instance grid at a small scale:

    1. *reference* — serial, fault-free, uncached; its rendered report
       is the byte-level truth.
    2. *chaos* — a :class:`ProcessPool` wrapped in :class:`ChaosPool`
       (seeded worker kill + hang) writing through a
       :class:`ChaosCache` (torn entries, leaked tmp files), under a
       per-cell ``timeout`` and a ``retries`` budget.
    3. *warm* — a fresh, plain :class:`ResultCache` over the damaged
       root, serial: init must sweep the leaked tmp files, reads must
       quarantine every torn entry and re-simulate.

    All three renders must be byte-identical, nothing may end
    quarantined, and retries must stay within budget — the scheduler's
    whole fault machinery, proven invisible from the outside.
    """
    import repro.workloads.registry  # noqa: F401 - populate the registries
    from repro.harness import report
    from repro.workloads.suite import Matrix, get_family, get_suite

    suite_obj = get_suite(suite)
    family = get_family(instances)
    matrix = Matrix(suite_obj, family, scales=scale, check=True)
    specs = matrix.specs()
    if hang_s is None:
        hang_s = 4 * timeout
    if workdir is None:
        workdir = Path(tempfile.mkdtemp(prefix="repro-chaos-pool-"))
    workdir = Path(workdir)
    marker_dir = workdir / "markers"
    cache_root = workdir / "cache"

    # pass 1: fault-free serial reference
    ref_text = report.render_matrix(suite_obj, family, matrix.run(jobs=1))

    # pass 2: chaos
    plan = PoolChaosPlan(seed, hang_s=hang_s)
    policy = PoolPolicy(backend="process", timeout=timeout, retries=retries)
    cache = ChaosCache(cache_root, plan)
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
            chaos_grid = matrix.run(cache=cache, pool=pool, policy=policy)
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
        identical=chaos_text == ref_text,
        warm_identical=warm_text == ref_text,
        quarantined=delta["quarantined"], retries=delta["retries"],
        timeouts=delta["timeouts"],
        preserved_on_break=delta["preserved_on_break"],
        torn_writes=cache.torn, leaked_tmp=cache.leaked_tmp,
        swept_tmp=warm_cache.swept, corrupt_recovered=warm_cache.corrupt,
        retry_budget=retries, events=tuple(pool.event_log()),
        report_text=ref_text)
