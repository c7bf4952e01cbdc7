"""Unified experiment engine: specs, routing, fan-out, result cache."""

import pickle

import pytest

from repro.core.config import CONFIGURATIONS, tarantula
from repro.errors import ConfigError
from repro.harness import engine
from repro.harness.engine import (
    ExperimentSpec,
    ResultCache,
    cache_key,
    execute,
    execute_many,
)
from repro.harness.runner import run, run_tarantula
from repro.isa.builder import KernelBuilder
from repro.workloads.registry import get

SCALE = 0.05


def _outcome_fields(out):
    return (out.config_name, out.kernel, out.cycles, out.core_ghz, out.opc,
            out.fpc, out.mpc, out.other_pc, out.streams_mbytes_per_s,
            out.raw_mbytes_per_s, out.verified)


class TestExperimentSpec:
    def test_pickle_round_trip(self):
        spec = ExperimentSpec("streams.triad", "T", SCALE,
                              overrides=(("maf_entries", 8),),
                              check=False, drain_dirty=True)
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert hash(clone) == hash(spec)

    def test_overrides_are_order_canonical(self):
        a = ExperimentSpec("fft", overrides=(("maf_entries", 8),
                                             ("l2_bytes", 1 << 20)))
        b = ExperimentSpec("fft", overrides=(("l2_bytes", 1 << 20),
                                             ("maf_entries", 8)))
        assert a == b and hash(a) == hash(b)

    def test_rejects_unknown_config(self):
        with pytest.raises(ConfigError, match="unknown configuration"):
            ExperimentSpec("fft", "EV9")

    def test_rejects_unknown_override_field(self):
        with pytest.raises(ConfigError, match="not a MachineConfig field"):
            ExperimentSpec("fft", overrides=(("l3_bytes", 1),))

    def test_rejects_unknown_mode(self):
        with pytest.raises(ConfigError, match="mode"):
            ExperimentSpec("fft", mode="rtl")


class TestL2HintResolution:
    """The workload's l2_bytes_hint is an engine concern: applied on
    vector machines, beaten by an explicit override, off on request."""

    def test_hint_applies_on_vector_machine(self):
        inst = get("sparsemxv").build(SCALE)
        assert inst.l2_bytes_hint is not None
        cfg = ExperimentSpec("sparsemxv", "T", SCALE).resolve_config(inst)
        assert cfg.l2_bytes == inst.l2_bytes_hint

    def test_explicit_override_beats_hint(self):
        inst = get("sparsemxv").build(SCALE)
        spec = ExperimentSpec("sparsemxv", "T", SCALE,
                              overrides=(("l2_bytes", 1 << 22),))
        assert spec.resolve_config(inst).l2_bytes == 1 << 22

    def test_hint_disabled_keeps_machine_l2(self):
        inst = get("sparsemxv").build(SCALE)
        spec = ExperimentSpec("sparsemxv", "T", SCALE, apply_l2_hint=False)
        assert spec.resolve_config(inst).l2_bytes == tarantula().l2_bytes

    def test_scalar_machines_never_take_the_hint(self):
        inst = get("sparsemxv").build(SCALE)
        cfg = ExperimentSpec("sparsemxv", "EV8", SCALE).resolve_config(inst)
        assert cfg.l2_bytes == CONFIGURATIONS["EV8"]().l2_bytes


class TestExecute:
    def test_matches_runner_wrapper(self):
        spec = ExperimentSpec("streams.triad", "T", SCALE, check=True)
        via_engine = execute(spec)
        via_runner = run_tarantula(get("streams.triad"), "T", SCALE)
        assert _outcome_fields(via_engine) == _outcome_fields(via_runner)

    def test_routes_to_scalar_model(self):
        out = execute(ExperimentSpec("streams.triad", "EV8", SCALE))
        assert out.config_name == "EV8"
        assert out.cycles > 0 and out.opc > 0

    def test_functional_mode_counts_vectorization(self):
        out = execute(ExperimentSpec("streams.triad", "T", SCALE,
                                     mode="functional"))
        assert out.verified
        assert out.detail.vectorization_percent > 90.0

    def test_crbox_override_reaches_the_timing_model(self):
        cheap, dear = execute_many(
            [ExperimentSpec("sparsemxv", "T", 0.1, check=False,
                            apply_l2_hint=False,
                            overrides=(("crbox_cycles_per_round", v),))
             for v in (1.0, 8.0)])
        assert dear.cycles > cheap.cycles


class TestExecuteMany:
    GRID = [
        ExperimentSpec("streams.triad", "T", SCALE, check=False),
        ExperimentSpec("streams.triad", "EV8", SCALE),
        ExperimentSpec("streams.copy", "T", SCALE, check=False),
        ExperimentSpec("fft", "T", SCALE, check=False),
    ]

    def test_parallel_matches_serial_exactly(self):
        serial = execute_many(self.GRID, jobs=1)
        parallel = execute_many(self.GRID, jobs=4)
        for a, b in zip(serial, parallel):
            assert _outcome_fields(a) == _outcome_fields(b)

    def test_preserves_input_order(self):
        outs = execute_many(self.GRID, jobs=1)
        assert [o.kernel for o in outs] == [s.kernel for s in self.GRID]
        assert [o.config_name for o in outs] == [s.config for s in self.GRID]

    def test_duplicates_simulated_once(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = ExperimentSpec("streams.copy", "T", SCALE, check=False)
        outs = execute_many([spec, spec, spec], jobs=1, cache=cache)
        assert len(outs) == 3
        assert cache.stores == 1
        assert _outcome_fields(outs[0]) == _outcome_fields(outs[2])


class TestResultCache:
    SPEC = ExperimentSpec("streams.copy", "T", SCALE, check=False)

    def test_miss_then_hit_round_trips_outcome(self, tmp_path):
        cache = ResultCache(tmp_path)
        first, = execute_many([self.SPEC], cache=cache)
        assert (cache.hits, cache.misses, cache.stores) == (0, 1, 1)
        second, = execute_many([self.SPEC], cache=cache)
        assert cache.hits == 1
        assert _outcome_fields(second) == _outcome_fields(first)
        assert second.detail.cycles == first.detail.cycles

    def test_warm_run_simulates_nothing(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path)
        execute_many([self.SPEC], cache=cache)
        monkeypatch.setattr(
            engine, "_run_vector_instance",
            lambda *a, **kw: pytest.fail("cache hit should not simulate"))
        out, = execute_many([self.SPEC], cache=cache)
        assert out.kernel == "streams.copy"

    def test_config_field_change_busts_key(self):
        base = cache_key(self.SPEC)
        tweaked = ExperimentSpec("streams.copy", "T", SCALE, check=False,
                                 overrides=(("maf_entries", 8),))
        assert cache_key(tweaked) != base

    def test_scale_and_flags_bust_key(self):
        base = cache_key(self.SPEC)
        assert cache_key(ExperimentSpec("streams.copy", "T", 0.06,
                                        check=False)) != base
        assert cache_key(ExperimentSpec("streams.copy", "T", SCALE,
                                        check=False,
                                        drain_dirty=True)) != base

    def test_program_change_busts_digest(self):
        def program(n):
            kb = KernelBuilder("digest-probe")
            kb.setvl(n)
            kb.vvaddt(1, 2, 3)
            return kb.build()

        assert engine._digest_program(program(64)) != \
            engine._digest_program(program(128))
        assert engine._digest_program(program(64)) == \
            engine._digest_program(program(64))

    def test_shared_program_is_digested_once(self, monkeypatch):
        from repro.isa.program import Program

        inst = get("streams.copy").build(SCALE)
        walks = []
        walk = Program.__iter__

        def counting_walk(program):
            if program is inst.program:
                walks.append(program)
            return walk(program)

        monkeypatch.setattr(Program, "__iter__", counting_walk)
        keys = {cache_key(ExperimentSpec("streams.copy", c, SCALE), inst)
                for c in ("T", "T4", "T-nopump")}
        assert len(walks) == 1
        assert len(keys) == 3

    def test_code_version_salts_key(self, monkeypatch):
        base = cache_key(self.SPEC)
        monkeypatch.setattr(engine, "_code_version_cache", "deadbeef")
        assert cache_key(self.SPEC) != base

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache_key(self.SPEC)
        execute_many([self.SPEC], cache=cache)
        path = cache._path(key)
        path.write_bytes(b"not a pickle")
        with pytest.warns(RuntimeWarning, match="quarantined corrupt"):
            assert cache.get(key) is None
        # the bad bytes were moved aside, not deleted silently
        assert path.with_suffix(".corrupt").exists()
        assert cache.corrupt == 1
        # and execute_many recovers by re-simulating + re-storing
        out, = execute_many([self.SPEC], cache=cache)
        assert out.cycles > 0
        assert cache.get(key) is not None

    def test_unsupported_protocol_entry_is_quarantined(self, tmp_path):
        # pickle.load raises ValueError here, not UnpicklingError
        cache = ResultCache(tmp_path)
        key = "f" * 64
        path = cache._path(key)
        path.parent.mkdir(parents=True)
        path.write_bytes(b"\x80\x09")
        with pytest.warns(RuntimeWarning,
                          match="quarantined corrupt .*ValueError"):
            assert cache.get(key) is None
        assert path.with_suffix(".corrupt").exists()
        assert cache.corrupt == 1


class TestRunnerKwargValidation:
    """run() must reject kwargs the routed model cannot honor instead
    of silently dropping them (the old scalar path ate check=...)."""

    def test_scalar_route_rejects_check(self):
        with pytest.raises(TypeError, match="check"):
            run("streams.triad", "EV8", scale=SCALE, check=True)

    def test_vector_route_rejects_unknown(self):
        with pytest.raises(TypeError, match="bogus"):
            run("streams.triad", "T", scale=SCALE, bogus=1)

    def test_vector_route_accepts_flags(self):
        out = run("streams.triad", "T", scale=SCALE, check=False)
        assert not out.verified


class TestInstanceMemo:
    """Per-process workload-instance reuse (engine._build_instance)."""

    def test_instance_reuse_is_deterministic(self):
        engine._INSTANCE_MEMO.clear()
        spec = ExperimentSpec("streams.copy", "T", SCALE)
        first = engine.execute(spec)
        assert ("streams.copy", SCALE) in engine._INSTANCE_MEMO
        memoized = engine._INSTANCE_MEMO[("streams.copy", SCALE)]
        second = engine.execute(spec)
        # the same instance object was reused, and reuse changed nothing
        assert engine._INSTANCE_MEMO[("streams.copy", SCALE)] is memoized
        assert second.cycles == first.cycles
        assert second.detail.counts == first.detail.counts
        assert second.detail.component_stats == first.detail.component_stats
        # a fresh build gives the same answer as the memoized rerun
        engine._INSTANCE_MEMO.clear()
        third = engine.execute(spec)
        assert third.cycles == first.cycles
        assert third.detail.counts == first.detail.counts

    def test_memo_is_bounded(self):
        engine._INSTANCE_MEMO.clear()
        try:
            engine._INSTANCE_MEMO.update(
                {("fake", float(i)): None for i in range(engine._INSTANCE_MEMO_MAX)})
            spec = ExperimentSpec("streams.copy", "T", SCALE, check=False)
            engine.execute(spec)
            assert len(engine._INSTANCE_MEMO) <= engine._INSTANCE_MEMO_MAX
        finally:
            engine._INSTANCE_MEMO.clear()

    def test_memo_evicts_least_recently_used(self):
        # eviction must drop the coldest entry, not clear the table —
        # a long sweep keeps its working set warm
        engine._INSTANCE_MEMO.clear()
        try:
            engine._INSTANCE_MEMO.update(
                {("fake", float(i)): None
                 for i in range(engine._INSTANCE_MEMO_MAX)})
            spec = ExperimentSpec("streams.copy", "T", SCALE, check=False)
            # touch the oldest entry so ("fake", 1.0) becomes coldest
            engine._INSTANCE_MEMO.move_to_end(("fake", 0.0))
            engine.execute(spec)
            memo = engine._INSTANCE_MEMO
            assert len(memo) == engine._INSTANCE_MEMO_MAX
            assert ("fake", 0.0) in memo          # recently touched: kept
            assert ("fake", 1.0) not in memo      # coldest: evicted
            assert ("streams.copy", SCALE) in memo
        finally:
            engine._INSTANCE_MEMO.clear()

    def test_memo_hit_refreshes_recency(self):
        engine._INSTANCE_MEMO.clear()
        try:
            spec = ExperimentSpec("streams.copy", "T", SCALE, check=False)
            engine.execute(spec)
            engine._INSTANCE_MEMO.update(
                {("fake", float(i)): None
                 for i in range(engine._INSTANCE_MEMO_MAX - 2)})
            engine.execute(spec)                  # memo hit: moved to end
            assert next(reversed(engine._INSTANCE_MEMO)) == \
                ("streams.copy", SCALE)
        finally:
            engine._INSTANCE_MEMO.clear()


class TestSpecDigestGolden:
    """The content digest behind the result cache must not drift.

    ``tests/data/spec_digests_v1.json`` pins :func:`engine.spec_digest`
    for the original Table 2 suite at the committed config/scale.  The
    digest covers only what a result depends on (program bytes, scalar
    descriptor, resolved machine config, run flags) — NOT module paths
    or package source — so harness refactors like the suite/matrix
    split must leave every value untouched.  A mismatch here means the
    whole on-disk cache was silently invalidated, or worse, that a
    workload's generated program changed.
    """

    def test_digests_match_committed_golden(self):
        import json
        from pathlib import Path

        data = json.loads(
            (Path(__file__).resolve().parents[1] / "data" /
             "spec_digests_v1.json").read_text())
        assert data["schema"] == "spec-digest-v1"
        drifted = []
        for name, want in data["digests"].items():
            spec = ExperimentSpec(name, data["config"], data["scale"])
            if engine.spec_digest(spec) != want:
                drifted.append(name)
        assert not drifted, (
            f"spec digest drift for {drifted}: cached results for these "
            "workloads were invalidated (see spec_digest docstring)")

    def test_golden_file_covers_the_paper_suite(self):
        import json
        from pathlib import Path

        from repro.workloads.registry import TARANTULA_SUITE

        data = json.loads(
            (Path(__file__).resolve().parents[1] / "data" /
             "spec_digests_v1.json").read_text())
        assert set(data["digests"]) == set(TARANTULA_SUITE)

    def test_cache_key_is_digest_plus_source_salt(self):
        spec = ExperimentSpec("streams.copy", "T", SCALE)
        assert engine.spec_digest(spec) == engine.spec_digest(spec)
        # same digest, but the key changes whenever package source does
        assert cache_key(spec) != engine.spec_digest(spec)
