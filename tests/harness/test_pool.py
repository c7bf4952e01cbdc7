"""The grid scheduler's fault budget, proven with injected-sleep cells.

Covers the tentpole guarantees of ``repro.harness.pool``:

* serial and process backends produce identical results (the
  cross-pool differential);
* a deliberately hung cell cannot delay grid completion past its
  timeout + one retry budget (wall-clock bounded, asserted);
* the grid deadline degrades unfinished cells into
  ``CellFailure(error_type="Timeout")`` instead of hanging;
* a slow cell runs exactly once — the scheduler never starts a second
  copy of a cell that is still running;
* a mid-grid pool break preserves completed results — each completed
  cell ran exactly once, proven with run-count marker files — and a
  break seen after the grid deadline times the unfinished cells out
  instead of re-running them.

Cell functions live at module level (picklable) and signal failure by
*returning* a failed object, mirroring ``execute_captured``.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path

import pytest

from repro.harness.engine import STATS, CellFailure, ExperimentSpec
from repro.harness.pool import (
    Pool,
    PoolPolicy,
    ProcessPool,
    SerialPool,
    run_grid,
)


@dataclass(frozen=True)
class Cell:
    """A picklable test workload: optional sleep, optional failure.

    ``marker_dir`` (when set) gets one file appended per execution, so
    tests can count how often a cell actually ran; ``sleep_once`` makes
    only the *first* execution slow (the marker doubles as the memory),
    modelling a transient hang that a retry beats.
    """

    name: str
    sleep_s: float = 0.0
    fail: bool = False
    marker_dir: str = ""
    sleep_once: bool = False


@dataclass
class Result:
    name: str
    pid: int
    failed = False


def run_cell(cell: Cell):
    first = True
    if cell.marker_dir:
        marker = Path(cell.marker_dir) / f"{cell.name}.{os.getpid()}.{time.monotonic_ns()}"
        first = not any(Path(cell.marker_dir).glob(f"{cell.name}.*"))
        marker.write_text(cell.name)
    if cell.sleep_s and (first or not cell.sleep_once):
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


FAST = PoolPolicy()


class TestBackends:
    def test_serial_and_process_results_match(self, process_pool):
        cells = [Cell(f"c{i}") for i in range(5)]
        serial = run_grid(cells, run_cell, SerialPool(), FAST, STATS)
        parallel = run_grid(cells, run_cell, process_pool, FAST, STATS)
        assert [r.name for r in serial] == [r.name for r in parallel]
        assert all(r.pid == os.getpid() for r in serial)
        assert all(r.pid != os.getpid() for r in parallel)

    def test_empty_grid(self, process_pool):
        assert run_grid([], run_cell, process_pool, FAST, STATS) == []

    def test_serial_pool_mirrors_exceptions(self):
        fut = SerialPool().submit(lambda: 1 / 0)
        with pytest.raises(ZeroDivisionError):
            fut.result()

    def test_policy_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="unknown pool backend"):
            PoolPolicy(backend="carrier-pigeon")

    def test_policy_rejects_negative_retries(self):
        with pytest.raises(ValueError, match="retries"):
            PoolPolicy(retries=-1)


class TestPolicyValidation:
    """Every budget knob rejects nonsense at construction, with a
    message that names the field and the ``None`` escape hatch —
    a ``--timeout``/``--deadline`` typo on the CLI must fail the
    command at startup, not hang a grid at 2am."""

    @pytest.mark.parametrize("bad", [0, -1, -0.5])
    def test_rejects_nonpositive_timeout(self, bad):
        with pytest.raises(ValueError, match="timeout must be positive"):
            PoolPolicy(timeout=bad)

    @pytest.mark.parametrize("bad", [0, -2])
    def test_rejects_nonpositive_deadline(self, bad):
        with pytest.raises(ValueError, match="deadline must be positive"):
            PoolPolicy(deadline=bad)

    def test_messages_name_the_none_escape_hatch(self):
        with pytest.raises(ValueError, match="use None"):
            PoolPolicy(timeout=-3)
        with pytest.raises(ValueError, match="use None"):
            PoolPolicy(deadline=-3)

    def test_none_budgets_mean_unbounded(self):
        policy = PoolPolicy(timeout=None, deadline=None)
        assert policy.timeout is None and policy.deadline is None


class TestKeyboardInterrupt:
    def test_serial_grid_keeps_completed_and_degrades_the_rest(self):
        cells = [Cell("a"), Cell("ctrl-c"), Cell("z")]
        out = run_grid(cells, run_cell_or_interrupt, SerialPool(),
                       FAST, STATS)
        assert out[0].name == "a" and not out[0].failed
        for degraded in out[1:]:
            assert degraded.failed
            assert degraded.error_type == "Interrupted"
            assert "Ctrl-C" in degraded.message
        assert STATS.interrupted == 2

    def test_follow_up_grids_short_circuit_after_interrupt(self):
        run_grid([Cell("ctrl-c")], run_cell_or_interrupt, SerialPool(),
                 FAST, STATS)
        assert STATS.interrupted == 1
        # a later grid of the same command starts no new work
        t0 = time.monotonic()
        out = run_grid([Cell("slow", sleep_s=5.0)], run_cell,
                       SerialPool(), FAST, STATS)
        assert time.monotonic() - t0 < 1.0
        assert out[0].failed and out[0].error_type == "Interrupted"
        assert STATS.interrupted == 2


class TestRetries:
    def test_failure_consumes_budget_then_quarantines(self, process_pool):
        cells = [Cell("ok"), Cell("bad", fail=True)]
        out = run_grid(cells, run_cell, process_pool,
                       PoolPolicy(retries=1), STATS)
        assert out[0].name == "ok"
        assert out[1].failed and out[1].attempts == 2
        assert STATS.retries == 1 and STATS.quarantined == 1

    def test_serial_retry_semantics_match(self):
        out = run_grid([Cell("bad", fail=True)], run_cell, SerialPool(),
                       PoolPolicy(retries=1), STATS)
        assert out[0].failed and out[0].attempts == 2
        assert STATS.retries == 1 and STATS.quarantined == 1

    def test_zero_retries_quarantines_immediately(self):
        run_grid([Cell("bad", fail=True)], run_cell, SerialPool(),
                 PoolPolicy(retries=0), STATS)
        assert STATS.retries == 0 and STATS.quarantined == 1

    def test_transient_failure_recovers(self, tmp_path, process_pool):
        # fails only while no marker exists: the retry succeeds
        cells = [Cell("flaky", marker_dir=str(tmp_path), fail=False,
                      sleep_once=True, sleep_s=0.0)]
        out = run_grid(cells, flaky_cell, process_pool,
                       PoolPolicy(retries=2), STATS)
        assert not out[0].failed
        assert STATS.quarantined == 0
        assert STATS.retries >= 1


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


class TestTimeouts:
    def test_hung_cell_times_out_within_budget(self, process_pool):
        """A hung cell cannot delay the grid past timeout + one retry."""
        timeout = 0.6
        cells = [Cell("hang", sleep_s=30.0), Cell("ok")]
        policy = PoolPolicy(timeout=timeout, retries=1)
        t0 = time.monotonic()
        out = run_grid(cells, run_cell, process_pool, policy, STATS)
        elapsed = time.monotonic() - t0
        assert out[1].name == "ok"
        assert out[0].failed and out[0].error_type == "Timeout"
        assert out[0].attempts == 2
        assert STATS.timeouts >= 2 and STATS.quarantined == 1
        # budget: 2 attempts x timeout, plus scheduler slack
        assert elapsed < 2 * timeout + 1.0

    def test_hang_once_cell_recovers_on_retry(self, tmp_path, process_pool):
        """A transiently hung cell succeeds within timeout + one retry."""
        timeout = 0.6
        cells = [Cell("slowstart", sleep_s=30.0, sleep_once=True,
                      marker_dir=str(tmp_path))]
        policy = PoolPolicy(timeout=timeout, retries=1)
        t0 = time.monotonic()
        out = run_grid(cells, run_cell, process_pool, policy, STATS)
        elapsed = time.monotonic() - t0
        assert not out[0].failed
        assert STATS.timeouts == 1 and STATS.quarantined == 0
        assert elapsed < 2 * timeout + 1.0

    def test_deadline_degrades_cells_process(self, process_pool):
        cells = [Cell("slow0", sleep_s=30.0), Cell("slow1", sleep_s=30.0),
                 Cell("slow2", sleep_s=30.0)]
        policy = PoolPolicy(deadline=0.4)
        t0 = time.monotonic()
        out = run_grid(cells, run_cell, process_pool, policy, STATS)
        assert time.monotonic() - t0 < 5.0
        assert all(r.failed and r.error_type == "Timeout" for r in out)
        assert "deadline" in out[0].message

    def test_deadline_degrades_cells_serial(self):
        cells = [Cell("slow", sleep_s=0.3), Cell("late0"), Cell("late1")]
        policy = PoolPolicy(deadline=0.1)
        out = run_grid(cells, run_cell, SerialPool(), policy, STATS)
        assert not out[0].failed          # started before the deadline
        assert out[1].failed and out[1].error_type == "Timeout"
        assert out[2].failed and STATS.timeouts == 2


class TestNoDuplicateWork:
    def test_slow_cell_runs_exactly_once(self, tmp_path):
        """A cell slower than all the others is not started twice."""
        pool = ProcessPool(3)
        try:
            cells = [Cell("c0"), Cell("c1"), Cell("c2"),
                     Cell("slow", sleep_s=2.5, marker_dir=str(tmp_path))]
            out = run_grid(cells, run_cell, pool, FAST, STATS)
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
                out = run_grid(cells, die_cell, pool, FAST, STATS)
            assert [r.name for r in out] == ["c0", "c1", "die", "c3"]
            assert STATS.preserved_on_break == 2
            # completed cells ran exactly once; no re-simulation
            assert run_count(tmp_path, "c0") == 1
            assert run_count(tmp_path, "c1") == 1
            # the dying cell ran in the worker, then again serially
            assert run_count(tmp_path, "die") == 2
        finally:
            pool.close()

    def test_break_after_deadline_degrades_cells(self, tmp_path):
        """A break seen once the deadline has passed re-runs nothing."""
        cells = [Cell("c0", marker_dir=str(tmp_path)),
                 Cell("c1", marker_dir=str(tmp_path))]
        with pytest.warns(RuntimeWarning, match="after the grid deadline"):
            out = run_grid(cells, run_cell, LateBreakPool(),
                           PoolPolicy(deadline=0.1), STATS)
        assert [r.error_type for r in out] == ["Timeout", "Timeout"]
        assert "grid deadline of 0.1s exceeded" in out[0].message
        assert STATS.timeouts == 2
        assert run_count(tmp_path, "c0") == run_count(tmp_path, "c1") == 0


class LateBreakPool(Pool):
    """A backend that takes 0.2 s to accept a cell and has died by then:
    every future fails with ``BrokenProcessPool`` and no cell runs."""

    kind = "process"

    def submit(self, fn, *args) -> Future:
        time.sleep(0.2)
        fut: Future = Future()
        fut.set_exception(BrokenProcessPool("worker died"))
        return fut


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
    """execute_many through explicit policies and backends."""

    GOOD = ExperimentSpec("streams.copy", "T", 0.02)

    def test_forced_serial_backend(self):
        from repro.harness.engine import execute_many

        out = execute_many([self.GOOD], jobs=4,
                           policy=PoolPolicy(backend="serial"))
        assert not out[0].failed

    def test_forced_process_backend_single_job(self):
        from repro.harness.engine import execute_many

        out = execute_many([self.GOOD],
                           policy=PoolPolicy(backend="process"))
        assert not out[0].failed

    def test_injected_pool_is_not_closed(self):
        from repro.harness.engine import execute_many

        pool = SerialPool()
        out = execute_many([self.GOOD], pool=pool)
        assert not out[0].failed
        # SerialPool.close is a no-op; the contract here is just that
        # execute_many ran the grid through the injected backend
        assert run_grid([], None, pool, PoolPolicy(), STATS) == []
