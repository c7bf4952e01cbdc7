"""Timing behavior of the banked L2: hits, misses, MAF, PUMP, Zbox.

``TestAccessPlan`` checks the plan-level entry (``access_plan``) against
the per-slice walk it replaces, comparing the whole L2 state.
"""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.isa.instructions import Instruction
from repro.isa.registers import ArchState
from repro.mem.l1cache import L1DataCache
from repro.mem.l2cache import BankedL2, L2Config
from repro.mem.maf import MissAddressFile
from repro.mem.pump import PumpUnit
from repro.mem.rambus import RambusConfig
from repro.mem.zbox import Zbox
from repro.vbox.address_gen import AddressGenerators


def _lines(n, start=0):
    return [start + i * 64 for i in range(n)]


def make_l2(**kw):
    cfg = L2Config(**kw)
    return BankedL2(cfg, Zbox(RambusConfig()))


class TestHitsAndMisses:
    def test_hit_faster_than_miss(self):
        l2 = make_l2()
        t_miss = l2.access_slice(_lines(16), 16, False, 0.0)
        l2_warm = make_l2()
        l2_warm.warm(_lines(16))
        t_hit = l2_warm.access_slice(_lines(16), 16, False, 0.0)
        assert t_hit < t_miss

    def test_hit_latency_matches_config(self):
        l2 = make_l2(hit_latency=20.0)
        l2.warm(_lines(16))
        t = l2.access_slice(_lines(16), 16, False, 0.0)
        assert t == pytest.approx(20.0)  # lookup starts at 0, data at +20

    def test_second_access_hits(self):
        l2 = make_l2()
        l2.access_slice(_lines(16), 16, False, 0.0)
        assert l2.counters["line_misses"] == 16
        l2.access_slice(_lines(16), 16, False, 100000.0)
        assert l2.counters["line_hits"] == 16

    def test_slice_too_wide_rejected(self):
        l2 = make_l2()
        with pytest.raises(Exception):
            l2.access_slice(_lines(17), 17, False, 0.0)

    def test_empty_slice_is_cheap(self):
        l2 = make_l2()
        t = l2.access_slice([], 0, False, 0.0)
        assert t == pytest.approx(l2.config.hit_latency)


class TestSliceAtomicity:
    def test_partial_miss_delays_whole_slice(self):
        """One missing address makes the whole slice sleep (section 3.4)."""
        l2 = make_l2()
        l2.warm(_lines(15))  # 15 of 16 lines resident
        t_partial = l2.access_slice(_lines(16), 16, False, 0.0)
        l2_warm = make_l2()
        l2_warm.warm(_lines(16))
        t_full = l2_warm.access_slice(_lines(16), 16, False, 0.0)
        assert t_partial > t_full + l2.zbox.config.access_latency / 2

    def test_maf_allocated_per_miss_slice(self):
        l2 = make_l2()
        l2.access_slice(_lines(16), 16, False, 0.0)
        assert l2.maf.counters["allocations"] == 1
        assert l2.maf.counters["missing_lines"] == 16


class TestMafPressure:
    def test_maf_full_stalls(self):
        l2 = make_l2(maf_entries=1)
        l2.access_slice(_lines(16, 0), 16, False, 0.0)
        l2.access_slice(_lines(16, 0x10000), 16, False, 0.0)
        assert l2.counters["maf_stalls"] >= 1

    def test_peak_occupancy_tracked(self):
        l2 = make_l2(maf_entries=8)
        for i in range(4):
            l2.access_slice(_lines(16, i * 0x10000), 16, False, 0.0)
        assert 1 <= l2.maf.peak_occupancy <= 8


class TestWritePaths:
    def test_full_line_pump_store_uses_directory_path(self):
        l2 = make_l2()
        l2.access_slice(_lines(16), 128, True, 0.0, pump_bit=True,
                        full_line_write=True)
        stats = l2.zbox.stats()
        assert stats["dirty_transitions"] == 16
        assert stats["fills"] == 0

    def test_partial_store_fills_lines(self):
        l2 = make_l2()
        l2.access_slice(_lines(16), 16, True, 0.0)
        stats = l2.zbox.stats()
        assert stats["fills"] == 16
        assert stats["dirty_transitions"] == 0

    def test_dirty_eviction_writes_back(self):
        # 2-way tiny L2: fill a set three times with dirty lines
        l2 = make_l2(capacity_bytes=2 * 64 * 4, ways=2)
        set_stride = 4 * 64  # 4 sets
        for i in range(3):
            l2.access_slice([i * set_stride], 1, True, float(i * 1000))
        assert l2.zbox.stats()["writebacks"] >= 1


class TestPump:
    def test_pump_stream_occupies_4_cycles_per_128qw(self):
        pump = PumpUnit()
        t0 = pump.stream(128, False, 0.0)
        assert t0 == pytest.approx(4.0)
        t1 = pump.stream(128, False, 0.0)
        assert t1 == pytest.approx(8.0)  # bus serializes

    def test_read_and_write_paths_independent(self):
        pump = PumpUnit()
        tr = pump.stream(128, False, 0.0)
        tw = pump.stream(128, True, 0.0)
        assert tr == pytest.approx(4.0)
        assert tw == pytest.approx(4.0)

    def test_disabled_pump_refuses(self):
        pump = PumpUnit(enabled=False)
        with pytest.raises(Exception):
            pump.stream(128, False, 0.0)


class TestCoherencyHooks:
    def test_vector_touch_of_pbit_line_invalidates_l1(self):
        l1 = L1DataCache()
        l2 = BankedL2(L2Config(), Zbox(), l1=l1)
        l1.store(0x1000)
        l1.drain()
        l2.set_pbits([0x1000])
        t_with = l2.access_slice([0x1000], 1, False, 0.0)
        assert l2.counters["pbit_hits"] == 1
        assert l1.counters["coherency_invalidates"] == 1
        # second touch: P-bit cleared, no penalty
        l2.access_slice([0x1000], 1, False, 1000.0)
        assert l2.counters["pbit_hits"] == 1

    def test_scalar_access_sets_pbit(self):
        l2 = make_l2()
        l2.scalar_access(0x2000, False, 0.0)
        assert l2.tags.lookup(0x2000).pbit


class TestMafUnit:
    def test_entry_accounting(self):
        maf = MissAddressFile(entries=2)
        e1 = maf.allocate(0.0, {0})
        maf.release(e1, 10.0)
        assert maf.earliest_entry(0.0) == 0.0
        e2 = maf.allocate(0.0, {64})
        e3 = maf.allocate(0.0, {128})
        maf.release(e2, 20.0)
        maf.release(e3, 30.0)
        assert maf.earliest_entry(15.0) == 20.0

    def test_panic_mode_trips_and_clears(self):
        maf = MissAddressFile(entries=4, replay_threshold=2)
        entry = maf.allocate(0.0, {0})
        assert not maf.record_replay(entry)
        assert not maf.record_replay(entry)
        assert maf.record_replay(entry)  # third replay > threshold
        assert maf.panic_mode
        maf.release(entry, 50.0)
        assert not maf.panic_mode
        assert maf.counters["panic_exits"] == 1


class TestWarmRange:
    def test_partial_final_line_is_warmed(self):
        l2 = BankedL2()
        line = l2.config.line_bytes
        # 65 bytes from an aligned base crosses into a second line
        l2.warm_range(8 * line, line + 1)
        assert l2.tags.lookup(8 * line) is not None
        assert l2.tags.lookup(9 * line) is not None
        assert l2.tags.lookup(10 * line) is None

    def test_unaligned_base_and_end(self):
        l2 = BankedL2()
        line = l2.config.line_bytes
        l2.warm_range(4 * line + 16, line)   # spans two lines, both partial
        assert l2.tags.lookup(4 * line) is not None
        assert l2.tags.lookup(5 * line) is not None
        assert l2.tags.lookup(6 * line) is None

    def test_empty_range_warms_nothing(self):
        l2 = BankedL2()
        l2.warm_range(0x1000, 0)
        assert l2.tags.lookup(0x1000) is None


def _plan_pair(pump_enabled=True):
    """Two generators: one keeps its plan cache (replays rebase), one
    rebuilds every plan (its slices hold the real addresses)."""
    return (AddressGenerators(pump_enabled=pump_enabled),
            AddressGenerators(pump_enabled=pump_enabled))


def _plans(gens, instr, state):
    cached, fresh = gens
    fresh.invalidate_plans()
    return cached.plan(instr, state), fresh.plan(instr, state)


def _state(base, vl=128, vs=8):
    state = ArchState()
    state.sregs.write(1, base)
    state.ctrl.set_vl(vl)
    state.ctrl.set_vs(vs)
    return state


def _walk(l2, plan, gen_start, per_slice):
    """The per-slice reference: one access_slice per slice, in order."""
    completion = gen_start
    for k, s in enumerate(plan.slices):
        done = l2.access_slice(
            s.line_addresses(), s.quadwords, plan.is_write,
            gen_start + (k + 1) * per_slice, pump_bit=s.pump,
            full_line_write=s.full_line_write, canonical=True)
        completion = max(completion, done)
    return completion


def _per_slice(plan):
    return (plan.addr_gen_cycles + plan.tlb_penalty) / len(plan.slices)


def _counting(l2):
    """Count the per-slice walks ``l2.access_plan`` falls back to."""
    calls = []
    walk = l2.access_slice

    def counted(*args, **kwargs):
        calls.append(1)
        return walk(*args, **kwargs)

    l2.access_slice = counted
    return calls


def _counter_items(l2):
    # ordered items: the bags must also gain their keys in one order
    return [list(bag.as_dict().items()) for bag in
            (l2.counters, l2.maf.counters, l2.pump.counters,
             l2.tags.counters)]


def _assert_same_state(a, b):
    assert _counter_items(a) == _counter_items(b)
    assert a.zbox.stats().as_dict() == b.zbox.stats().as_dict()
    assert np.array_equal(a.tags._flat_stamp, b.tags._flat_stamp)
    assert a.tags._clock == b.tags._clock
    assert np.array_equal(a.tags._flat_dirty, b.tags._flat_dirty)
    assert a._fill_ready == b._fill_ready


class TestAccessPlan:
    """``access_plan`` against the per-slice walk, state for state."""

    def test_seeded_plan_stream_matches_per_slice_walk(self):
        rng = np.random.default_rng(18)
        plan_l2 = make_l2(capacity_bytes=1 << 14, ways=2)
        walk_l2 = make_l2(capacity_bytes=1 << 14, ways=2)
        fallbacks = _counting(plan_l2)
        gens = {True: _plan_pair(True), False: _plan_pair(False)}
        # a 24 KB footprint in a 16 KB L2: mostly hits, some evictions
        region = 0x40000
        gen_start = 0.0
        # [plan path, walked] x [built here, replayed with a delta]
        taken = [[0, 0], [0, 0]]
        for _ in range(300):
            pump = bool(rng.random() < 0.5)
            stride = int(rng.choice([1, 2, 3, 5]))
            vl = int(rng.choice([128, 128, 100, 64, 37, 16, 5]))
            # few residues mod the bank period, so replays rebase
            base = region + int(rng.integers(0, 24)) * 1024 + \
                int(rng.choice([0, 8, 200]))
            store = bool(rng.random() < 0.3)
            instr = (Instruction("vstoreq", va=2, rb=1) if store
                     else Instruction("vloadq", vd=1, rb=1))
            state = _state(base, vl=vl, vs=8 * stride)
            plan, fresh = _plans(gens[pump], instr, state)
            if rng.random() < 0.05:
                # a scalar touch sets the P-bit of one of the lines
                addr = int(rng.choice(fresh.lines))
                assert plan_l2.scalar_access(addr, False, gen_start) == \
                    walk_l2.scalar_access(addr, False, gen_start)
            per_slice = _per_slice(plan)
            before = len(fallbacks)
            got = plan_l2.access_plan(plan, gen_start, per_slice)
            want = _walk(walk_l2, fresh, gen_start, per_slice)
            assert got == want
            _assert_same_state(plan_l2, walk_l2)
            taken[len(fallbacks) > before][plan.delta != 0] += 1
            # mostly overlapping issue, with some idle gaps
            gen_start += float(rng.choice([1.0, 5.0, 30.0, 4000.0]))
        assert min(min(row) for row in taken) >= 10, taken

    @pytest.mark.parametrize("vl,victim", [(128, 4), (100, 12)])
    def test_lines_shared_by_slices_keep_lru_order(self, vl, victim):
        """No-pump stride-1: the 8 slices revisit the same lines.

        At vl 100, line 12 holds elements 96-99 only, so its last
        reference comes slices before line 4's, and it is the LRU of
        their set although its first reference is the later one.
        """
        # 8 sets x 2 ways: lines i and i + 8 of the plan share a set
        plan_l2 = make_l2(capacity_bytes=1024, ways=2)
        walk_l2 = make_l2(capacity_bytes=1024, ways=2)
        fallbacks = _counting(plan_l2)
        for l2 in (plan_l2, walk_l2):
            l2.warm(_lines(16, 0x10000))
        plan, fresh = _plans(_plan_pair(False),
                             Instruction("vloadq", vd=1, rb=1),
                             _state(0x10000, vl=vl))
        assert plan.kind == "reordered" and len(plan.slices) == 8
        assert len(plan.lines) == -(-vl // 8) and plan.n_refs == vl
        got = plan_l2.access_plan(plan, 100.0, _per_slice(plan))
        assert got == _walk(walk_l2, fresh, 100.0, _per_slice(plan))
        assert not fallbacks
        _assert_same_state(plan_l2, walk_l2)
        # a new line in set 4 evicts the LRU of lines 4 and 12
        newcomer = [0x10000 + 20 * 64]
        for l2 in (plan_l2, walk_l2):
            l2.access_slice(newcomer, 1, False, 1000.0)
            evicted = [i for i, a in enumerate(_lines(16, 0x10000))
                       if not l2.tags.contains(a)]
            assert evicted == [victim]
        _assert_same_state(plan_l2, walk_l2)

    def test_line_in_flight_past_first_slice_falls_back(self):
        plan_l2 = make_l2()
        walk_l2 = make_l2()
        lines = _lines(16, 0x20000)
        for l2 in (plan_l2, walk_l2):
            l2.warm(lines[1:])
            # the miss allocates line 0 now; its fill lands much later
            l2.access_slice(lines[:1], 1, False, 0.0)
        assert plan_l2._fill_ready[lines[0]] > 10.0
        fallbacks = _counting(plan_l2)
        plan, fresh = _plans(_plan_pair(True),
                             Instruction("vloadq", vd=1, rb=1),
                             _state(0x20000))
        # the first slice issues at 6.0, before line 0 lands
        got = plan_l2.access_plan(plan, 5.0, 1.0)
        assert got == _walk(walk_l2, fresh, 5.0, 1.0)
        assert fallbacks and walk_l2.counters["miss_merges"] == 1
        _assert_same_state(plan_l2, walk_l2)

    def test_pbit_line_falls_back(self):
        plan_l2 = make_l2()
        walk_l2 = make_l2()
        lines = _lines(16, 0x30000)
        for l2 in (plan_l2, walk_l2):
            l2.warm(lines)
            l2.scalar_access(lines[5], False, 0.0)
        assert plan_l2.tags.lookup(lines[5]).pbit
        fallbacks = _counting(plan_l2)
        plan, fresh = _plans(_plan_pair(True),
                             Instruction("vloadq", vd=1, rb=1),
                             _state(0x30000))
        got = plan_l2.access_plan(plan, 50.0, _per_slice(plan))
        assert got == _walk(walk_l2, fresh, 50.0, _per_slice(plan))
        assert fallbacks and plan_l2.counters["pbit_hits"] == 1
        assert not plan_l2.tags.lookup(lines[5]).pbit
        _assert_same_state(plan_l2, walk_l2)

    def test_slice_wider_than_banks_raises(self):
        plan_l2 = make_l2(n_banks=8)
        walk_l2 = make_l2(n_banks=8)
        for l2 in (plan_l2, walk_l2):
            l2.warm(_lines(16, 0x50000))
        plan, fresh = _plans(_plan_pair(True),
                             Instruction("vloadq", vd=1, rb=1),
                             _state(0x50000))
        assert plan.widest == 16
        with pytest.raises(SimulationError):
            plan_l2.access_plan(plan, 0.0, _per_slice(plan))
        with pytest.raises(SimulationError):
            _walk(walk_l2, fresh, 0.0, _per_slice(plan))
        _assert_same_state(plan_l2, walk_l2)
