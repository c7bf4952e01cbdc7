"""Keyed plan cache in the address generators (docs/PERF.md).

Plan construction for a strided memory instruction is deterministic in
(op, vl, vs, mask, base mod BANK_PERIOD), so the generators memoize
built plans and *rebase* them when only the base address moved.  These
tests pin down the lifecycle: a plan is only stored from a TLB
fast-path translation, hits rebase to the live base address, and the
explicit invalidation hooks (setvl/setvs/setvm in the processor) clear
the cache and count.
"""

import numpy as np

from repro.isa.instructions import Instruction
from repro.isa.registers import ArchState
from repro.vbox.address_gen import AddressGenerators
from repro.vbox.reorder import BANK_PERIOD


def _state(base=0x10000, vl=128, vs=8):
    state = ArchState()
    state.sregs.write(1, base)
    state.ctrl.set_vl(vl)
    state.ctrl.set_vs(vs)
    return state


def _load(**kw):
    return Instruction("vloadq", vd=1, rb=1, **kw)


def _warm(ag, instr, state):
    """First plan: cold TLB refill, never cached.  Second: stored."""
    ag.plan(instr, state)
    return ag.plan(instr, state)


class TestPlanCache:
    def test_store_then_hit(self):
        ag = AddressGenerators()
        state = _state()
        instr = _load()
        stored = _warm(ag, instr, state)
        assert ag.counters["plan_cache_hits"] == 0
        hit = ag.plan(instr, state)
        assert ag.counters["plan_cache_hits"] == 1
        assert hit.kind == stored.kind
        assert np.array_equal(hit.touched, stored.touched)

    def test_cold_tlb_plan_is_not_cached(self):
        ag = AddressGenerators()
        ag.plan(_load(), _state())
        assert ag.counters["plan_cache_misses"] >= 1
        assert ag.counters["plan_cache_hits"] == 0

    def test_rebase_shifts_every_address(self):
        ag = AddressGenerators()
        state = _state(base=0x10000)
        instr = _load()
        stored = _warm(ag, instr, state)
        # same key class (base mod BANK_PERIOD unchanged), new base
        state.sregs.write(1, 0x10000 + BANK_PERIOD)
        rebased = ag.plan(instr, state)
        assert ag.counters["plan_cache_hits"] == 1
        assert np.array_equal(np.asarray(rebased.touched),
                              np.asarray(stored.touched) + BANK_PERIOD)

    def test_vl_change_changes_key(self):
        ag = AddressGenerators()
        state = _state(vl=128)
        instr = _load()
        _warm(ag, instr, state)
        state.ctrl.set_vl(64)
        before = ag.counters["plan_cache_hits"]
        short = ag.plan(instr, state)
        assert ag.counters["plan_cache_hits"] == before
        assert len(short.touched) == 64

    def test_masked_key_includes_mask_bits(self):
        ag = AddressGenerators()
        state = _state()
        instr = _load(masked=True)
        mask = np.zeros(128, dtype=bool)
        mask[::2] = True
        state.ctrl.set_vm(mask)
        _warm(ag, instr, state)
        hits = ag.counters["plan_cache_hits"]
        ag.plan(instr, state)
        assert ag.counters["plan_cache_hits"] == hits + 1
        # flip one mask bit: same vl/vs/base, different plan key
        mask2 = mask.copy()
        mask2[1] = True
        state.ctrl.set_vm(mask2)
        changed = ag.plan(instr, state)
        assert ag.counters["plan_cache_hits"] == hits + 1
        assert len(changed.touched) == int(mask2.sum())

    def test_invalidate_plans(self):
        ag = AddressGenerators()
        state = _state()
        _warm(ag, _load(), state)
        assert ag._plan_cache
        ag.invalidate_plans()
        assert not ag._plan_cache
        assert ag.counters["plan_cache_invalidations"] == 1
        # invalidating an already-empty cache is not an event
        ag.invalidate_plans()
        assert ag.counters["plan_cache_invalidations"] == 1

    def test_cached_plan_is_cycle_identical(self):
        """A rebased/hit plan prices identically to a fresh build.

        Runs with the pump on and off (a loop rather than a parametrize,
        so the test keeps its id).  Without the pump, a stride-1 plan is
        reordered: its 8 slices share 16 lines, so the line view's last
        references differ from its first ones.
        """
        for pump_enabled in (True, False):
            cached = AddressGenerators(pump_enabled=pump_enabled)
            fresh = AddressGenerators(pump_enabled=pump_enabled)
            instr = _load()
            state = _state()
            _warm(cached, instr, state)
            _warm(fresh, instr, state)      # TLB hot in both generators
            for base in (0x10000, 0x10000 + BANK_PERIOD,
                         0x10000 + 3 * BANK_PERIOD):
                state.sregs.write(1, base)
                a = cached.plan(instr, state)
                fresh.invalidate_plans()
                b = fresh.plan(instr, state)
                assert a.kind == b.kind
                assert a.addr_gen_cycles == b.addr_gen_cycles
                assert a.tlb_penalty == b.tlb_penalty == 0.0
                assert a.quadwords == b.quadwords
                assert np.array_equal(np.asarray(a.touched),
                                      np.asarray(b.touched))
                # the line view, and the per-slice lines a fallback
                # walk reads
                assert a.lines == b.lines
                assert np.array_equal(a.last_ref, b.last_ref)
                assert a.n_refs == b.n_refs
                assert a.widest == b.widest
                assert b.delta == 0
                assert [a.slice_lines(k) for k in range(len(a.slices))] \
                    == [s.line_addresses() for s in b.slices]
            assert cached.counters["plan_cache_hits"] >= 2
