"""Grid-execution backends and the one scheduler that drives them.

:func:`repro.harness.engine.execute_many` hands a grid's cache misses
to :func:`run_grid`, which applies one fixed failure rule:

* **one retry** — a cell that returns a failure is resubmitted at once,
  :data:`RETRIES` times (cells are deterministic, so waiting before a
  retry buys nothing); a cell that fails again is quarantined;
* **preserve-on-break** — when the process pool breaks mid-grid
  (killed worker, broken pipe), completed results are kept and only the
  unfinished cells re-run serially;
* **Ctrl-C** — completed cells are kept, unfinished ones degrade into
  ``CellFailure(error_type="Interrupted")`` and the CLI exits 130.

There is no wall-clock budget: every cell simulates a straight-line
program whose only retry loop is bounded, so every cell terminates.

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
import warnings
from concurrent.futures import FIRST_COMPLETED, Future, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Sequence

__all__ = [
    "Pool",
    "ProcessPool",
    "SerialPool",
    "run_grid",
]

#: resubmissions of a failed cell before it is quarantined
RETRIES = 1

#: exceptions that mean "the backend itself died", not "the cell failed"
POOL_BREAK_ERRORS = (
    BrokenProcessPool,
    concurrent.futures.CancelledError,
    OSError,
    PermissionError,
    RuntimeError,
)


class Pool:
    """Minimal executor surface the grid scheduler drives.

    ``submit(fn, *args)`` returns a ``concurrent.futures.Future``;
    ``mark_dirty()`` records that a future was abandoned (or the
    backend broke) so ``close()`` knows a graceful shutdown would hang.
    """

    kind = "base"
    workers = 1
    dirty = False

    def submit(self, fn: Callable, *args) -> Future:
        raise NotImplementedError

    def mark_dirty(self) -> None:
        self.dirty = True

    def close(self) -> None:
        pass


class SerialPool(Pool):
    """In-process execution: ``submit`` runs the cell synchronously.

    The determinism reference every other backend is differentially
    tested against.
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

    ``close()`` shuts down gracefully unless the pool broke or an
    attempt was abandoned mid-run (Ctrl-C); then it cancels what never
    started and terminates the workers, so an abandoned cell cannot
    block interpreter exit.
    """

    kind = "process"

    def __init__(self, jobs: int) -> None:
        self.workers = max(1, jobs)
        self.dirty = False
        # attribute access (not from-import) so tests can monkeypatch
        # concurrent.futures.ProcessPoolExecutor
        self._executor = concurrent.futures.ProcessPoolExecutor(
            max_workers=self.workers)

    def submit(self, fn: Callable, *args) -> Future:
        return self._executor.submit(fn, *args)

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


def run_grid(items: Sequence, fn: Callable, pool: Pool, stats) -> list:
    """Run ``fn`` over ``items`` through ``pool``.

    Returns results aligned with ``items``.  ``fn`` must be pure per
    item and signal cell failure by *returning* an object whose
    ``failed`` attribute is true (``execute_captured`` / CellFailure);
    an exception escaping a future is read as backend death, not cell
    failure.  ``stats`` is an :class:`~repro.harness.engine.EngineStats`
    (or any object with its counter attributes).

    A ``KeyboardInterrupt`` mid-grid does not escape: completed cells
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
        return _run_serial_grid(items, fn, pool, stats)
    return _run_process_grid(items, fn, pool, stats)


def _run_serial_grid(items, fn, pool, stats) -> list:
    out = []
    for pos, item in enumerate(items):
        try:
            result = pool.submit(fn, item).result()
            attempts = 1
            while getattr(result, "failed", False) and attempts <= RETRIES:
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


def _run_process_grid(items, fn, pool, stats) -> list:
    n = len(items)
    results: dict[int, object] = {}
    attempts = dict.fromkeys(range(n), 0)
    running: dict[Future, int] = {}
    #: cells waiting for a worker — in-flight work is throttled to the
    #: worker count, so every cell that finishes before a break is
    #: collected before a later cell can break the pool
    pending: list[int] = list(range(n))
    broken = False

    def fill_slots() -> bool:
        while pending and len(running) < pool.workers:
            index = pending.pop(0)
            attempts[index] += 1
            try:
                running[pool.submit(fn, items[index])] = index
            except POOL_BREAK_ERRORS:
                return True
        return False

    try:
        broken = fill_slots()
        while running and not broken:
            done, _ = wait(list(running), return_when=FIRST_COMPLETED)
            for fut in done:
                index = running.pop(fut)
                if fut.cancelled() or fut.exception() is not None:
                    broken = True
                    break
                result = fut.result()
                if not getattr(result, "failed", False):
                    results[index] = result
                elif attempts[index] <= RETRIES:
                    stats.retries += 1
                    pending.append(index)
                else:
                    stats.quarantined += 1
                    results[index] = _stamp_attempts(result, attempts[index])
            if not broken:
                broken = fill_slots()
    except KeyboardInterrupt:
        # Ctrl-C: keep completed cells, degrade the rest and let
        # the CLI exit 130 — never restart work the user aborted
        pool.mark_dirty()
        for i in range(n):
            if i not in results:
                stats.interrupted += 1
                results[i] = _interrupt_failure(items[i], attempts[i])

    if broken and len(results) < n:
        pool.mark_dirty()
        remaining = [i for i in range(n) if i not in results]
        stats.preserved_on_break += len(results)
        warnings.warn(
            f"process pool broke mid-grid; keeping {len(results)} "
            f"completed cell(s) and re-running {len(remaining)} "
            "unfinished cell(s) serially", RuntimeWarning, stacklevel=3)
        serial = _run_serial_grid(
            [items[i] for i in remaining], fn, SerialPool(), stats)
        for i, result in zip(remaining, serial):
            results[i] = result
    return [results[i] for i in range(n)]
