"""The grid scheduler's failure rule, proven with scripted cells.

Covers the guarantees of ``repro.harness.pool``:

* serial and process backends produce identical results (the
  cross-pool differential);
* a failed cell is retried once, then quarantined;
* a slow cell runs exactly once — the scheduler never starts a second
  copy of a cell that is still running;
* a mid-grid pool break preserves completed results — each completed
  cell ran exactly once, proven with run-count marker files;
* Ctrl-C keeps completed cells and degrades the rest, serial and
  process grids alike.

Cell functions live at module level (picklable) and signal failure by
*returning* a failed object, mirroring ``execute_captured``.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import Future
from dataclasses import dataclass
from pathlib import Path

import pytest

from repro.harness.engine import STATS, CellFailure, ExperimentSpec
from repro.harness.pool import Pool, ProcessPool, SerialPool, run_grid


@dataclass(frozen=True)
class Cell:
    """A picklable test workload: optional sleep, optional failure.

    ``marker_dir`` (when set) gets one file appended per execution, so
    tests can count how often a cell actually ran.
    """

    name: str
    sleep_s: float = 0.0
    fail: bool = False
    marker_dir: str = ""


@dataclass
class Result:
    name: str
    pid: int
    failed = False


def run_cell(cell: Cell):
    if cell.marker_dir:
        marker = Path(cell.marker_dir) / f"{cell.name}.{os.getpid()}.{time.monotonic_ns()}"
        marker.write_text(cell.name)
    if cell.sleep_s:
        time.sleep(cell.sleep_s)
    if cell.fail:
        return CellFailure(spec=cell, error_type="Boom", message="planned",
                           traceback_text="")
    return Result(name=cell.name, pid=os.getpid())


def run_count(marker_dir: Path, name: str) -> int:
    return len(list(Path(marker_dir).glob(f"{name}.*")))


def run_cell_or_interrupt(cell: Cell):
    if cell.name == "ctrl-c":
        raise KeyboardInterrupt
    return run_cell(cell)


@pytest.fixture(autouse=True)
def _reset_stats():
    STATS.reset()
    yield
    STATS.reset()


@pytest.fixture
def process_pool():
    pool = ProcessPool(2)
    yield pool
    pool.close()


class TestBackends:
    def test_serial_and_process_results_match(self, process_pool):
        cells = [Cell(f"c{i}") for i in range(5)]
        serial = run_grid(cells, run_cell, SerialPool(), STATS)
        parallel = run_grid(cells, run_cell, process_pool, STATS)
        assert [r.name for r in serial] == [r.name for r in parallel]
        assert all(r.pid == os.getpid() for r in serial)
        assert all(r.pid != os.getpid() for r in parallel)

    def test_empty_grid(self, process_pool):
        assert run_grid([], run_cell, process_pool, STATS) == []

    def test_serial_pool_mirrors_exceptions(self):
        fut = SerialPool().submit(lambda: 1 / 0)
        with pytest.raises(ZeroDivisionError):
            fut.result()


class TestKeyboardInterrupt:
    def test_serial_grid_keeps_completed_and_degrades_the_rest(self):
        cells = [Cell("a"), Cell("ctrl-c"), Cell("z")]
        out = run_grid(cells, run_cell_or_interrupt, SerialPool(), STATS)
        assert out[0].name == "a" and not out[0].failed
        for degraded in out[1:]:
            assert degraded.failed
            assert degraded.error_type == "Interrupted"
            assert "Ctrl-C" in degraded.message
        assert STATS.interrupted == 2

    def test_follow_up_grids_short_circuit_after_interrupt(self):
        run_grid([Cell("ctrl-c")], run_cell_or_interrupt, SerialPool(),
                 STATS)
        assert STATS.interrupted == 1
        # a later grid of the same command starts no new work
        t0 = time.monotonic()
        out = run_grid([Cell("slow", sleep_s=5.0)], run_cell,
                       SerialPool(), STATS)
        assert time.monotonic() - t0 < 1.0
        assert out[0].failed and out[0].error_type == "Interrupted"
        assert STATS.interrupted == 2

    def test_process_grid_keeps_completed_and_degrades_the_rest(self):
        pool = InterruptingPool()
        cells = [Cell("c0"), Cell("c1"), Cell("c2"), Cell("c3")]
        out = run_grid(cells, run_cell, pool, STATS)
        assert [r.name for r in out[:2]] == ["c0", "c1"]
        assert not any(r.failed for r in out[:2])
        for degraded in out[2:]:
            assert degraded.failed
            assert degraded.error_type == "Interrupted"
        assert STATS.interrupted == 2
        assert pool.dirty


class InterruptingPool(Pool):
    """A two-worker process-kind backend whose futures resolve at
    submit; Ctrl-C lands on the third submit."""

    kind = "process"
    workers = 2

    def __init__(self) -> None:
        self.submits = 0

    def submit(self, fn, *args) -> Future:
        self.submits += 1
        if self.submits == 3:
            raise KeyboardInterrupt
        fut: Future = Future()
        fut.set_result(fn(*args))
        return fut


class TestRetries:
    def test_failure_consumes_budget_then_quarantines(self, process_pool):
        cells = [Cell("ok"), Cell("bad", fail=True)]
        out = run_grid(cells, run_cell, process_pool, STATS)
        assert out[0].name == "ok"
        assert out[1].failed and out[1].attempts == 2
        assert STATS.retries == 1 and STATS.quarantined == 1

    def test_serial_retry_semantics_match(self):
        out = run_grid([Cell("bad", fail=True)], run_cell, SerialPool(),
                       STATS)
        assert out[0].failed and out[0].attempts == 2
        assert STATS.retries == 1 and STATS.quarantined == 1

    def test_transient_failure_recovers(self, tmp_path, process_pool):
        # fails only while no marker exists: the retry succeeds
        cells = [Cell("flaky", marker_dir=str(tmp_path))]
        out = run_grid(cells, flaky_cell, process_pool, STATS)
        assert not out[0].failed
        assert STATS.quarantined == 0
        assert STATS.retries == 1


def flaky_cell(cell: Cell):
    """Fail on the first execution, succeed after (marker-backed)."""
    marker_dir = Path(cell.marker_dir)
    first = not any(marker_dir.glob(f"{cell.name}.*"))
    (marker_dir / f"{cell.name}.{os.getpid()}.{time.monotonic_ns()}") \
        .write_text(cell.name)
    if first:
        return CellFailure(spec=cell, error_type="Transient",
                           message="first try fails", traceback_text="")
    return Result(name=cell.name, pid=os.getpid())


class TestNoDuplicateWork:
    def test_slow_cell_runs_exactly_once(self, tmp_path):
        """A cell slower than all the others is not started twice."""
        pool = ProcessPool(3)
        try:
            cells = [Cell("c0"), Cell("c1"), Cell("c2"),
                     Cell("slow", sleep_s=2.5, marker_dir=str(tmp_path))]
            out = run_grid(cells, run_cell, pool, STATS)
            assert [r.name for r in out] == ["c0", "c1", "c2", "slow"]
            assert run_count(tmp_path, "slow") == 1
        finally:
            pool.close()


class TestPoolBreak:
    def test_completed_cells_survive_break(self, tmp_path):
        """Mid-grid worker death: done cells are not re-simulated."""
        pool = ProcessPool(1)        # strict ordering: c0, c1 done first
        try:
            cells = [Cell("c0", marker_dir=str(tmp_path)),
                     Cell("c1", marker_dir=str(tmp_path)),
                     Cell("die", marker_dir=str(tmp_path)),
                     Cell("c3", marker_dir=str(tmp_path))]
            with pytest.warns(RuntimeWarning, match="pool broke mid-grid"):
                out = run_grid(cells, die_cell, pool, STATS)
            assert [r.name for r in out] == ["c0", "c1", "die", "c3"]
            assert STATS.preserved_on_break == 2
            # completed cells ran exactly once; no re-simulation
            assert run_count(tmp_path, "c0") == 1
            assert run_count(tmp_path, "c1") == 1
            # the dying cell ran in the worker, then again serially
            assert run_count(tmp_path, "die") == 2
        finally:
            pool.close()


def die_cell(cell: Cell):
    """Kill the worker process on the cell named 'die' (first run only)."""
    marker_dir = Path(cell.marker_dir)
    first = not any(marker_dir.glob(f"{cell.name}.*"))
    (marker_dir / f"{cell.name}.{os.getpid()}.{time.monotonic_ns()}") \
        .write_text(cell.name)
    if cell.name == "die" and first:
        os._exit(23)
    return Result(name=cell.name, pid=os.getpid())


class TestEngineIntegration:
    """execute_many through an injected backend."""

    GOOD = ExperimentSpec("streams.copy", "T", 0.02)

    def test_injected_pool_is_not_closed(self):
        from repro.harness.engine import execute_many

        pool = SerialPool()
        out = execute_many([self.GOOD], pool=pool)
        assert not out[0].failed
        # SerialPool.close is a no-op; the contract here is just that
        # execute_many ran the grid through the injected backend
        assert run_grid([], None, pool, STATS) == []
