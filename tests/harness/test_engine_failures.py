"""Hardened-engine behavior: CellFailure capture, retry/quarantine,
cache corruption recovery, pool fallback, and partial-table rendering.

The deliberate failures ride through ``ExperimentSpec.fault`` — a
pool-safe way to make a worker trap (monkeypatched functions do not
survive the trip into a ProcessPoolExecutor worker).
"""

import dataclasses
import math
import os
import pickle
import time

import pytest

from repro.errors import ConfigError
from repro.harness import engine
from repro.harness.engine import (
    STATS,
    CellFailure,
    ExperimentSpec,
    ResultCache,
    RunOutcome,
    cache_key,
    execute_captured,
    execute_many,
)

GOOD = ExperimentSpec("streams.copy", "T", 0.02)
BAD = ExperimentSpec("streams.copy", "T", 0.02, fault=("poison_line", 7))


@pytest.fixture(autouse=True)
def _reset_stats():
    STATS.reset()
    yield
    STATS.reset()


class TestCellFailureCapture:
    def test_faulting_cell_fails_others_complete(self):
        outcomes = execute_many([GOOD, BAD])
        good, bad = outcomes
        assert isinstance(good, RunOutcome) and not good.failed
        assert isinstance(bad, CellFailure) and bad.failed
        assert bad.error_type == "MachineCheckTrap"
        assert bad.trap_pc is not None
        assert bad.attempts == 2                 # retried once, still bad
        assert STATS.quarantined == 1

    def test_failure_quacks_like_an_outcome(self):
        failure = execute_captured(BAD)
        assert math.isnan(failure.cycles)
        assert math.isnan(failure.streams_mbytes_per_s)
        assert math.isnan(failure.seconds)
        assert failure.kernel == "streams.copy"
        assert failure.config_name == "T"
        assert failure.verified is False and failure.detail is None
        with pytest.raises(AttributeError):
            failure.not_a_metric

    def test_failure_pickles(self):
        failure = execute_captured(BAD)
        clone = pickle.loads(pickle.dumps(failure))
        assert clone.error_type == failure.error_type
        assert clone.trap_pc == failure.trap_pc
        assert "Traceback" in clone.traceback_text

    def test_pool_path_captures_failures_too(self):
        outcomes = execute_many([GOOD, BAD], jobs=2)
        assert isinstance(outcomes[0], RunOutcome)
        assert isinstance(outcomes[1], CellFailure)

    def test_fault_spec_rejected_on_functional_mode(self):
        spec = ExperimentSpec("streams.copy", "T", 0.02,
                              mode="functional", fault=("poison_line", 1))
        failure = execute_captured(spec)
        assert failure.error_type == "ConfigError"

    def test_malformed_fault_spec_rejected_eagerly(self):
        with pytest.raises(ConfigError):
            ExperimentSpec("streams.copy", fault=("poison_line",))
        with pytest.raises(ConfigError):
            ExperimentSpec("streams.copy", fault=("cosmic_ray", 1))


class TestFailuresAreNeverCached:
    def test_failed_cell_not_stored(self, tmp_path):
        cache = ResultCache(tmp_path)
        execute_many([BAD], cache=cache)
        assert cache.stores == 0
        assert cache.get(cache_key(BAD)) is None

    def test_good_cell_still_stored_alongside(self, tmp_path):
        cache = ResultCache(tmp_path)
        execute_many([GOOD, BAD], cache=cache)
        assert cache.stores == 1
        assert cache.get(cache_key(GOOD)) is not None

    def test_fault_changes_the_cache_key(self):
        assert cache_key(GOOD) != cache_key(BAD)


class TestCorruptCacheQuarantine:
    def test_corrupt_entry_is_moved_aside_and_restorable(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache_key(GOOD)
        execute_many([GOOD], cache=cache)
        path = cache._path(key)
        path.write_bytes(b"\x80\x04 garbage")
        with pytest.warns(RuntimeWarning, match="quarantined corrupt"):
            assert cache.get(key) is None
        assert cache.corrupt == 1
        assert not path.exists()
        assert path.with_suffix(".corrupt").exists()
        # the slot is free again: a re-run re-stores cleanly
        out, = execute_many([GOOD], cache=cache)
        assert isinstance(out, RunOutcome)
        assert cache.get(key) is not None

    def test_wrong_type_pickle_is_quarantined(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache_key(GOOD)
        path = cache._path(key)
        path.parent.mkdir(parents=True)
        path.write_bytes(pickle.dumps({"not": "an outcome"}))
        with pytest.warns(RuntimeWarning):
            assert cache.get(key) is None
        assert cache.corrupt == 1

    def test_plain_miss_is_not_corruption(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get("00" * 32) is None
        assert cache.corrupt == 0
        assert cache.misses == 1


class TestPoolFallback:
    def test_broken_pool_falls_back_serially_with_warning(self, monkeypatch):
        import concurrent.futures

        class ExplodingPool:
            def __init__(self, *a, **k):
                raise OSError("no forks in this sandbox")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            ExplodingPool)
        with pytest.warns(RuntimeWarning, match="process pool unavailable"):
            outcomes = execute_many([GOOD, ExperimentSpec(
                "streams.scale", "T", 0.02)], jobs=4)
        assert STATS.pool_fallbacks == 1
        assert all(isinstance(o, RunOutcome) for o in outcomes)


class TestPartialReportRendering:
    def test_failed_cell_renders_as_fail_marker(self):
        from repro.harness.report import render_table4
        from repro.harness.tables import Table4Row
        rows = {
            "streams.copy": Table4Row("streams.copy", 1000.0, 900.0),
            "streams.add": Table4Row("streams.add", math.nan, math.nan),
        }
        text = render_table4(rows)
        assert "FAIL" in text
        assert "1000" in text
        assert "nan" not in text

    def test_figure7_average_excludes_failures(self):
        from repro.harness.figures import Figure7Row
        from repro.harness.report import render_figure7
        rows = {
            "a": Figure7Row("a", 1.0, 4.0),
            "b": Figure7Row("b", math.nan, math.nan),
        }
        text = render_figure7(rows)
        assert "T=  4.00" in text
        assert "FAIL" in text

    @staticmethod
    def _mini_grid():
        """A 3x1 suite grid of real cells: one good, two failed."""
        from repro.harness.pool import _timeout_failure
        from repro.workloads.suite import Instance, InstanceFamily, Suite

        suite = Suite("mini", ("good", "trapped", "hung"),
                      title="partial-grid rendering")
        family = InstanceFamily("solo", (Instance("T", config="T"),))
        grid = {
            "good": {"T": execute_captured(GOOD)},
            "trapped": {"T": execute_captured(BAD)},
            "hung": {"T": _timeout_failure(
                GOOD, 2, "cell exceeded its 1s budget")},
        }
        return suite, family, grid

    def test_render_matrix_mixes_metrics_and_fail_markers(self):
        from repro.harness.report import render_matrix

        suite, family, grid = self._mini_grid()
        text = render_matrix(suite, family, grid)
        good_line = next(ln for ln in text.splitlines()
                         if ln.startswith("good"))
        assert "ok" in good_line and "FAIL" not in good_line
        trapped_line = next(ln for ln in text.splitlines()
                            if ln.startswith("trapped"))
        assert "FAIL" in trapped_line
        assert "MachineCheckTrap" in trapped_line
        assert "nan" not in text.lower()

    def test_render_matrix_marks_timeout_failures(self):
        # the pool's fault budget degrades hung cells into
        # error_type="Timeout" — the report must say so, not crash
        from repro.harness.report import render_matrix

        suite, family, grid = self._mini_grid()
        assert grid["hung"]["T"].failed
        assert grid["hung"]["T"].attempts == 2
        text = render_matrix(suite, family, grid)
        hung_line = next(ln for ln in text.splitlines()
                         if ln.startswith("hung"))
        assert "FAIL" in hung_line and "Timeout" in hung_line

    def test_render_matrix_survives_an_all_failed_grid(self):
        from repro.harness.pool import _timeout_failure
        from repro.harness.report import render_matrix

        suite, family, _ = self._mini_grid()
        grid = {name: {"T": _timeout_failure(GOOD, 1, "deadline")}
                for name in suite}
        text = render_matrix(suite, family, grid)
        assert text.count("FAIL") == len(suite)
        assert "mini" in text.splitlines()[0]


class TestCacheCrashSafety:
    """Init-time sweep of crashed-writer tmp debris (docs/HARNESS.md)."""

    def test_stale_tmp_debris_is_swept(self, tmp_path):
        slot = tmp_path / "ab"
        slot.mkdir()
        stale = slot / "abcd.tmp.12345"
        stale.write_bytes(b"half a pickle")
        old = time.time() - 2 * ResultCache.STALE_TMP_AGE_S
        os.utime(stale, (old, old))
        cache = ResultCache(tmp_path)
        assert cache.swept == 1
        assert not stale.exists()

    def test_fresh_tmp_is_left_for_its_live_writer(self, tmp_path):
        slot = tmp_path / "ab"
        slot.mkdir()
        live = slot / "abcd.tmp.12345"
        live.write_bytes(b"in flight")
        cache = ResultCache(tmp_path)
        assert cache.swept == 0
        assert live.exists()

    def test_put_leaves_no_tmp_behind(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(cache_key(GOOD), execute_captured(GOOD))
        assert list(tmp_path.glob("*/*.tmp.*")) == []


class TestEngineStats:
    def test_stats_reset(self):
        names = [field.name for field in dataclasses.fields(STATS)]
        for value, name in enumerate(names, start=1):
            setattr(STATS, name, value)
        STATS.reset()
        assert {name: getattr(STATS, name) for name in names} == \
            dict.fromkeys(names, 0)

    def test_failures_counted(self):
        execute_captured(BAD)
        assert STATS.cell_failures == 1
