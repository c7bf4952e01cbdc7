"""Orchestration-level chaos: plan, injectors, cache damage, CLI gate."""

import os
import tempfile

import pytest

from repro.cli import main
from repro.faults.chaos_pool import (
    EVENT_KILL,
    ChaosCache,
    ChaosCell,
    ChaosPool,
    PoolChaosPlan,
    PoolChaosResult,
    _token,
    run_pool_chaos_oracle,
)
from repro.harness import engine
from repro.harness.engine import (
    STATS,
    ExperimentSpec,
    ResultCache,
    cache_key,
    execute,
)
from repro.harness.pool import SerialPool

SPECS = [f"spec-{i}" for i in range(8)]


@pytest.fixture(autouse=True)
def _reset_stats():
    STATS.reset()
    yield
    STATS.reset()


class TestPoolChaosPlan:
    def test_schedule_is_deterministic(self):
        a = PoolChaosPlan(seed=42).schedule(SPECS)
        b = PoolChaosPlan(seed=42).schedule(SPECS)
        assert a == b

    def test_seed_moves_the_schedule(self):
        schedules = {tuple(sorted(PoolChaosPlan(seed=s).schedule(SPECS)))
                     for s in range(16)}
        assert len(schedules) > 1

    def test_hangs_front_half_kills_back_half(self):
        # cells in the front half can finish before the kill breaks
        # the pool, so preserve-on-break has results to keep
        for seed in range(8):
            events = PoolChaosPlan(seed=seed, kills=2).schedule(SPECS)
            assert len(events) == 2
            for spec in events:
                assert SPECS.index(spec) >= len(SPECS) // 2

    def test_no_spec_gets_two_events(self):
        for seed in range(8):
            events = PoolChaosPlan(seed=seed, kills=4).schedule(SPECS)
            assert len(events) == len(set(events)) == 4
            assert set(events.values()) == {EVENT_KILL}

    def test_tiny_grid_still_schedules(self):
        events = PoolChaosPlan(seed=1).schedule(["only"])
        assert events == {"only": EVENT_KILL}

    def test_tears_deterministic_and_seeded(self):
        torn = PoolChaosPlan(seed=9, tear_every=3).tears(SPECS)
        assert torn == PoolChaosPlan(seed=9, tear_every=3).tears(SPECS)
        assert len(torn) == len(SPECS) // 3
        assert len({tuple(PoolChaosPlan(seed=s).tears(SPECS))
                    for s in range(16)}) > 1
        # a grid smaller than tear_every still tears one cell
        assert len(PoolChaosPlan(seed=9).tears(SPECS[:2])) == 1

    def test_tear_every_zero_disables(self):
        assert PoolChaosPlan(seed=9, tear_every=0).tears(SPECS) == []

    def test_torn_cells_survive_a_source_change(self, monkeypatch):
        # every cache key is salted with the package source; the torn
        # cells must stay put when that salt moves
        specs = [ExperimentSpec(kernel, "T", 0.02) for kernel in (
            "streams.copy", "streams.scale", "streams.add",
            "streams.triad")]
        plan = PoolChaosPlan(seed=1234, tear_every=2)
        torn, keys = [], []
        for salt in ("source-a", "source-b"):
            monkeypatch.setattr(engine, "_code_version_cache", salt)
            torn.append(plan.tears(specs))
            keys.append({cache_key(spec) for spec in specs})
        assert torn[0] == torn[1] and len(torn[0]) == 2
        assert keys[0].isdisjoint(keys[1])


class TestChaosCell:
    """Worker-side event firing, without actually killing the test."""

    def _cell(self, tmp_path, events, parent_pid):
        return ChaosCell(events, str(tmp_path), parent_pid)

    def test_parent_never_fires_writes_suppressed_marker(self, tmp_path):
        cell = self._cell(tmp_path, {"s": EVENT_KILL}, os.getpid())
        assert cell(str.upper, "s") == "S"  # survived: no os._exit
        marker = tmp_path / f"{_token('s')}.{EVENT_KILL}"
        assert not marker.exists()
        assert marker.with_suffix(marker.suffix + ".suppressed").exists()

    def test_existing_marker_disarms_a_kill(self, tmp_path):
        marker = tmp_path / f"{_token('s')}.{EVENT_KILL}"
        marker.write_text(EVENT_KILL)
        cell = self._cell(tmp_path, {"s": EVENT_KILL}, os.getpid() + 1)
        assert cell(str.upper, "s") == "S"  # no os._exit on the retry

    def test_unscheduled_spec_is_untouched(self, tmp_path):
        cell = self._cell(tmp_path, {"other": EVENT_KILL}, os.getpid() + 1)
        assert cell(str.upper, "s") == "S"
        assert list(tmp_path.iterdir()) == []


class TestChaosPool:
    def test_delegates_pool_surface(self, tmp_path):
        pool = ChaosPool(SerialPool(), PoolChaosPlan(seed=0), SPECS,
                         tmp_path)
        assert pool.kind == "serial" and pool.workers == 1
        pool.mark_dirty()
        pool.close()

    def test_submit_routes_through_chaos_cell(self, tmp_path):
        # in the parent process every event suppresses, so the grid
        # completes and the log accounts for each scheduled event
        pool = ChaosPool(SerialPool(), PoolChaosPlan(seed=0), SPECS,
                         tmp_path)
        for spec in SPECS:
            assert pool.submit(str.upper, spec).result() == spec.upper()
        log = pool.event_log()
        assert len(log) == 1
        assert {status for _, _, status in log} == {"suppressed"}
        pool.close()


class TestChaosCache:
    """Torn commits + leaked tmp debris, and plain-cache recovery."""

    @pytest.fixture(scope="class")
    def outcome(self):
        spec = ExperimentSpec("streams.copy", "T", 0.02)
        return spec, execute(spec)

    def test_tear_damages_entry_and_leaks_backdated_tmp(
            self, tmp_path, outcome):
        spec, result = outcome
        key = cache_key(spec)
        cache = ChaosCache(tmp_path, [key])
        cache.put(key, result)
        assert cache.torn == 1 and cache.leaked_tmp == 1
        path = cache._path(key)
        assert path.exists()
        leaks = list(tmp_path.glob("*/*.tmp.*"))
        assert len(leaks) == 1
        import time as _time
        assert leaks[0].stat().st_mtime \
            < _time.time() - ResultCache.STALE_TMP_AGE_S

    def test_plain_cache_recovers_the_damage(self, tmp_path, outcome):
        spec, result = outcome
        key = cache_key(spec)
        cache = ChaosCache(tmp_path, [key])
        cache.put(key, result)
        fresh = ResultCache(tmp_path)
        assert fresh.swept == 1            # leaked tmp debris removed
        with pytest.warns(RuntimeWarning, match="quarantined corrupt"):
            assert fresh.get(key) is None  # torn entry never trusted
        assert fresh.corrupt == 1
        assert cache._path(key).with_suffix(".corrupt").exists()
        fresh.put(key, result)             # the slot is re-storable
        assert fresh.get(key).cycles == result.cycles

    def test_untorn_keys_round_trip(self, tmp_path, outcome):
        spec, result = outcome
        cache = ChaosCache(tmp_path, [])
        key = cache_key(spec)
        cache.put(key, result)
        assert cache.torn == 0 and cache.leaked_tmp == 0
        assert ResultCache(tmp_path).get(key).cycles == result.cycles


def _result(**overrides) -> PoolChaosResult:
    """A passing process-pool drill result, with ``overrides``."""
    fields = dict(
        suite="table4", seed=1234, cells=6, jobs=2, pool="process",
        identical=True, warm_identical=True, quarantined=0, retries=0,
        preserved_on_break=3, torn_writes=2, leaked_tmp=2, swept_tmp=2,
        corrupt_recovered=2,
        events=((ExperimentSpec("rndcopy", "T", 0.02), EVENT_KILL,
                 "fired"),))
    fields.update(overrides)
    return PoolChaosResult(**fields)


class TestPoolChaosResult:
    """A drill that injected nothing must not read OK."""

    def test_kill_that_never_fired_is_not_ok(self):
        assert _result().ok
        spec = ExperimentSpec("rndcopy", "T", 0.02)
        for status in ("unfired", "suppressed"):
            result = _result(events=((spec, EVENT_KILL, status),))
            assert not result.ok
            assert result.summary().endswith("chaos[pool]: FAILED")

    def test_drill_that_tore_nothing_is_not_ok(self):
        assert _result().ok
        assert not _result(torn_writes=0).ok

    def test_serial_fallback_keeps_the_byte_identity_rule(self):
        spec = ExperimentSpec("rndcopy", "T", 0.02)
        serial = _result(pool="serial", torn_writes=0,
                         events=((spec, EVENT_KILL, "suppressed"),))
        assert serial.ok
        assert not _result(pool="serial", identical=False).ok


class TestPoolChaosGate:
    """The CI acceptance gate, driven through the real CLI path."""

    def test_cli_gate_passes_and_writes_log(self, tmp_path, capsys):
        log = tmp_path / "chaos-pool.txt"
        rc = main(["chaos", "--layer", "pool", "--seed", "1234",
                   "--quick", "--jobs", "2", "--log", str(log)])
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "report bytes: identical" in out
        assert "warm rerun:   identical" in out
        assert "quarantined=0" in out
        assert "worker_kill " in out and ": fired" in out
        assert "torn=0 " not in out
        text = log.read_text()
        assert "chaos[pool]: seed=1234" in text
        assert text.rstrip().endswith(
            "OK — orchestration faults are invisible in the report")

    def test_oracle_removes_the_work_directory_it_created(
            self, tmp_path, monkeypatch):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        result = run_pool_chaos_oracle(seed=1234, jobs=2, scale=0.02)
        assert result.ok, result.summary()
        assert list(tmp_path.glob("repro-chaos-pool-*")) == []

    def test_oracle_leaves_a_given_work_directory(self, tmp_path):
        run_pool_chaos_oracle(seed=1234, jobs=2, scale=0.02,
                              workdir=tmp_path)
        assert (tmp_path / "markers").is_dir()
        assert (tmp_path / "cache").is_dir()
