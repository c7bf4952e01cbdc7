"""Pluggable, fault-tolerant grid-execution backends.

:func:`repro.harness.engine.execute_many` used to be a blocking
``pool.map``: one hung cell stalled the whole grid forever, and a
worker death discarded every completed result.  This module lifts
fan-out behind a small :class:`Pool` interface plus one futures-based
scheduler, :func:`run_grid`, that owns the fault budget:

* **per-cell timeouts** — an attempt that exceeds ``policy.timeout``
  wall-clock seconds is abandoned (the worker becomes a *zombie*; when
  zombies saturate the pool it is respawned) and the cell retried;
* **bounded retries** — a failed or timed-out cell is resubmitted at
  once, up to ``policy.retries`` times (cells are deterministic, so
  waiting before a retry buys nothing);
* **grid deadline** — when ``policy.deadline`` expires, every
  unresolved cell degrades into a ``CellFailure(error_type="Timeout")``
  instead of hanging the caller;
* **preserve-on-break** — when the process pool breaks mid-grid
  (killed worker, broken pipe), completed results are kept and only the
  unfinished cells fall back to serial execution, under what is left of
  the deadline; a break seen after the deadline times them out.

Backends: :class:`SerialPool` (in-process, the determinism reference)
and :class:`ProcessPool` (``concurrent.futures`` worker processes).
``repro.faults.chaos_pool.ChaosPool`` wraps either to inject
orchestration faults.  The cell function is pure and deterministic, so
every scheduling order produces byte-identical results — the
cross-pool differential tests in ``tests/harness/test_pool.py`` keep
it that way.  See docs/HARNESS.md for the model.
"""

from __future__ import annotations

import concurrent.futures
import time
import warnings
from concurrent.futures import FIRST_COMPLETED, Future, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

__all__ = [
    "Pool",
    "PoolPolicy",
    "ProcessPool",
    "SerialPool",
    "run_grid",
]

#: scheduler poll interval, seconds
POLL_S = 0.05

#: exceptions that mean "the backend itself died", not "the cell failed"
POOL_BREAK_ERRORS = (
    BrokenProcessPool,
    concurrent.futures.CancelledError,
    OSError,
    PermissionError,
    RuntimeError,
)


@dataclass(frozen=True)
class PoolPolicy:
    """The fault budget one grid run executes under.

    ``backend="auto"`` picks :class:`ProcessPool` when ``jobs > 1`` and
    more than one cell misses the cache, else :class:`SerialPool`;
    ``"serial"``/``"process"`` force the choice.  ``timeout`` only
    applies on process backends (a serial cell cannot be interrupted);
    ``deadline`` and the retry budget apply everywhere.
    """

    backend: str = "auto"
    #: per-cell wall-clock seconds; None = wait forever
    timeout: Optional[float] = None
    #: whole-grid wall-clock seconds; None = no deadline
    deadline: Optional[float] = None
    #: bounded retry budget per cell (total attempts = retries + 1)
    retries: int = 1

    def __post_init__(self) -> None:
        if self.backend not in ("auto", "serial", "process"):
            raise ValueError(f"unknown pool backend {self.backend!r}; "
                             "known: auto, serial, process")
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError(
                f"timeout must be positive (got {self.timeout!r}); "
                "use None for no per-cell budget")
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError(
                f"deadline must be positive (got {self.deadline!r}); "
                "use None for no grid budget")
        if self.retries < 0:
            raise ValueError(
                f"retries must be >= 0 (got {self.retries!r}); "
                "0 means a single attempt per cell")


class Pool:
    """Minimal executor surface the grid scheduler drives.

    ``submit(fn, *args)`` returns a ``concurrent.futures.Future``;
    ``respawn()`` replaces a backend whose workers are wedged;
    ``mark_dirty()`` records that a future was abandoned (or the
    backend broke) so ``close()`` knows a graceful shutdown would hang.
    """

    kind = "base"
    workers = 1
    dirty = False

    def submit(self, fn: Callable, *args) -> Future:
        raise NotImplementedError

    def respawn(self) -> None:
        pass

    def mark_dirty(self) -> None:
        self.dirty = True

    def close(self) -> None:
        pass


class SerialPool(Pool):
    """In-process execution: ``submit`` runs the cell synchronously.

    The determinism reference every other backend is differentially
    tested against.  Timeouts do not apply (a running cell cannot be
    interrupted from the same thread); deadlines and the retry budget
    do.
    """

    kind = "serial"
    workers = 1

    def submit(self, fn: Callable, *args) -> Future:
        fut: Future = Future()
        try:
            fut.set_result(fn(*args))
        except BaseException as err:  # noqa: BLE001 - mirrored to the future
            fut.set_exception(err)
        return fut


class ProcessPool(Pool):
    """``ProcessPoolExecutor``-backed pool with hard-kill semantics.

    ``respawn()`` replaces the executor wholesale — the only way to
    reclaim capacity from hung workers, since a running task cannot be
    cancelled — and terminates the old workers so an abandoned
    ``sleep(inf)`` cell cannot block interpreter exit.  ``close()``
    shuts down gracefully unless an attempt was abandoned mid-run.
    """

    kind = "process"

    def __init__(self, jobs: int) -> None:
        self.workers = max(1, jobs)
        self.dirty = False
        self._executor = self._spawn()

    def _spawn(self):
        # attribute access (not from-import) so tests can monkeypatch
        # concurrent.futures.ProcessPoolExecutor
        return concurrent.futures.ProcessPoolExecutor(
            max_workers=self.workers)

    def submit(self, fn: Callable, *args) -> Future:
        return self._executor.submit(fn, *args)

    def respawn(self) -> None:
        self.dirty = True
        self._hard_shutdown(self._executor)
        self._executor = self._spawn()

    def close(self) -> None:
        if self.dirty:
            self._hard_shutdown(self._executor)
        else:
            self._executor.shutdown(wait=True)

    @staticmethod
    def _hard_shutdown(executor) -> None:
        """Cancel what never started, terminate what never finishes."""
        try:
            procs = list(executor._processes.values())
        except Exception:  # noqa: BLE001 - private API, best effort
            procs = []
        try:
            executor.shutdown(wait=False, cancel_futures=True)
        except Exception:  # noqa: BLE001
            pass
        for proc in procs:
            try:
                if proc.is_alive():
                    proc.terminate()
            except Exception:  # noqa: BLE001
                pass


# -- the grid scheduler ----------------------------------------------------


def _timeout_failure(item, attempts: int, message: str):
    from repro.harness.engine import CellFailure

    return CellFailure(spec=item, error_type="Timeout", message=message,
                       traceback_text="", attempts=max(attempts, 1))


def _interrupt_failure(item, attempts: int = 0):
    from repro.harness.engine import CellFailure

    return CellFailure(
        spec=item, error_type="Interrupted",
        message="grid abandoned by KeyboardInterrupt (Ctrl-C)",
        traceback_text="", attempts=max(attempts, 1))


def _stamp_attempts(result, attempts: int):
    import dataclasses

    try:
        return dataclasses.replace(result, attempts=attempts)
    except TypeError:
        return result


def run_grid(items: Sequence, fn: Callable, pool: Pool,
             policy: PoolPolicy, stats) -> list:
    """Run ``fn`` over ``items`` through ``pool`` under ``policy``.

    Returns results aligned with ``items``.  ``fn`` must be pure per
    item and signal cell failure by *returning* an object whose
    ``failed`` attribute is true (``execute_captured`` / CellFailure);
    an exception escaping a future is read as backend death, not cell
    failure.  ``stats`` is an :class:`~repro.harness.engine.EngineStats`
    (or any object with its counter attributes).

    A ``KeyboardInterrupt`` mid-grid is routed through the
    preserve-on-break machinery instead of escaping: completed cells
    are kept, every unresolved cell degrades into a
    ``CellFailure(error_type="Interrupted")`` (counted in
    ``stats.interrupted``), and later grids of the same command
    short-circuit — so a Ctrl-C'd report still renders its completed
    cells with FAIL rows for the rest, and the CLI exits 130.
    """
    items = list(items)
    if not items:
        return []
    if getattr(stats, "interrupted", 0):
        # a previous grid of this command was Ctrl-C'd: start no new
        # work, degrade every cell so partial reports still render
        stats.interrupted += len(items)
        return [_interrupt_failure(item) for item in items]
    if pool.kind == "serial":
        return _run_serial_grid(items, fn, pool, policy, stats)
    return _run_process_grid(items, fn, pool, policy, stats)


def _run_serial_grid(items, fn, pool, policy, stats) -> list:
    start = time.monotonic()
    out = []
    for pos, item in enumerate(items):
        if policy.deadline is not None \
                and time.monotonic() - start > policy.deadline:
            stats.timeouts += 1
            out.append(_timeout_failure(
                item, 0, f"grid deadline of {policy.deadline:g}s exceeded "
                "before the cell started"))
            continue
        try:
            result = pool.submit(fn, item).result()
            attempts = 1
            while getattr(result, "failed", False) \
                    and attempts <= policy.retries:
                stats.retries += 1
                attempts += 1
                result = pool.submit(fn, item).result()
        except KeyboardInterrupt:
            remaining = items[pos:]
            stats.interrupted += len(remaining)
            out.extend(_interrupt_failure(it) for it in remaining)
            return out
        if getattr(result, "failed", False):
            stats.quarantined += 1
            result = _stamp_attempts(result, attempts)
        out.append(result)
    return out


def _run_process_grid(items, fn, pool, policy, stats) -> list:
    n = len(items)
    results: dict[int, object] = {}
    attempts = dict.fromkeys(range(n), 0)
    running: dict[Future, tuple[int, float]] = {}
    #: cells waiting for a worker — in-flight work is throttled to the
    #: worker count so a cell's timeout clock measures execution, not
    #: time spent queued behind other cells
    pending: list[int] = list(range(n))
    zombies = 0
    broken = False
    start = time.monotonic()

    def submit(index: int) -> None:
        running[pool.submit(fn, items[index])] = (index, time.monotonic())

    def fill_slots() -> bool:
        while pending and len(running) < pool.workers:
            index = pending.pop(0)
            attempts[index] += 1
            try:
                submit(index)
            except POOL_BREAK_ERRORS:
                return True
        return False

    def attempt_failed(index: int, failure) -> None:
        """One attempt is lost: resubmit the cell or finalize it."""
        if attempts[index] <= policy.retries:
            stats.retries += 1
            pending.append(index)
        else:
            stats.quarantined += 1
            results[index] = _stamp_attempts(failure, attempts[index])

    def expire_unfinished() -> None:
        """The grid deadline passed: every unresolved cell times out."""
        for i in range(n):
            if i not in results:
                stats.timeouts += 1
                results[i] = _timeout_failure(
                    items[i], attempts[i],
                    f"grid deadline of {policy.deadline:g}s exceeded")

    interrupted = False
    try:
        while not broken and len(results) < n:
            now = time.monotonic()

            if policy.deadline is not None and now - start > policy.deadline:
                expire_unfinished()
                pool.mark_dirty()
                break

            broken = fill_slots()
            if broken or not running:
                break           # not running: defensive, nothing to wait on

            done, _ = wait(list(running), timeout=POLL_S,
                           return_when=FIRST_COMPLETED)
            for fut in done:
                index, _started = running.pop(fut)
                try:
                    err = fut.exception()
                except concurrent.futures.CancelledError:
                    err = concurrent.futures.CancelledError()
                if err is not None:
                    broken = True
                    break
                result = fut.result()
                if getattr(result, "failed", False):
                    attempt_failed(index, result)
                else:
                    results[index] = result
            if broken:
                break

            now = time.monotonic()
            if policy.timeout is not None:
                overdue = [(fut, meta) for fut, meta in running.items()
                           if now - meta[1] > policy.timeout]
                for fut, (index, _started) in overdue:
                    running.pop(fut)
                    zombies += 1
                    pool.mark_dirty()
                    stats.timeouts += 1
                    attempt_failed(index, _timeout_failure(
                        items[index], attempts[index],
                        f"cell exceeded the {policy.timeout:g}s "
                        "wall-clock timeout"))
                if zombies >= pool.workers:
                    # every worker is wedged on an abandoned attempt:
                    # replace the backend and re-home the survivors
                    survivors = [index for index, _started in running.values()]
                    running.clear()
                    try:
                        pool.respawn()
                        zombies = 0
                        for index in survivors:
                            submit(index)
                    except POOL_BREAK_ERRORS:
                        broken = True
    except KeyboardInterrupt:
        # Ctrl-C: keep completed cells, degrade the rest and let
        # the CLI exit 130 — never restart work the user aborted
        interrupted = True
        pool.mark_dirty()

    if interrupted:
        for i in range(n):
            if i not in results:
                stats.interrupted += 1
                results[i] = _interrupt_failure(items[i], attempts[i])

    if broken and len(results) < n:
        pool.mark_dirty()
        preserved = len(results)
        stats.preserved_on_break += preserved
        remaining = [i for i in range(n) if i not in results]
        left = None
        if policy.deadline is not None:
            left = policy.deadline - (time.monotonic() - start)
        if left is not None and left <= 0:
            # the break surfaced after the deadline: nothing may re-run
            warnings.warn(
                "process pool broke mid-grid after the grid deadline; "
                f"keeping {preserved} completed cell(s) and timing out "
                f"{len(remaining)} unfinished cell(s)",
                RuntimeWarning, stacklevel=3)
            expire_unfinished()
        else:
            warnings.warn(
                f"process pool broke mid-grid; keeping {preserved} "
                f"completed cell(s) and re-running {len(remaining)} "
                "unfinished cell(s) serially", RuntimeWarning, stacklevel=3)
            serial = _run_serial_grid(
                [items[i] for i in remaining], fn, SerialPool(),
                replace(policy, deadline=left), stats)
            for i, result in zip(remaining, serial):
                results[i] = result

    if running:
        # attempts abandoned by a deadline, break or Ctrl-C are still
        # executing; a graceful close would block on them
        pool.mark_dirty()

    for i in range(n):                  # defensive: never return a hole
        if i not in results:
            stats.timeouts += 1
            results[i] = _timeout_failure(
                items[i], attempts[i], "scheduler stalled before the cell "
                "resolved")
    return [results[i] for i in range(n)]
