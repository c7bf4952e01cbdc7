"""Timing-simulator behavior tests: the properties the paper describes."""

import numpy as np
import pytest

from repro.core.config import tarantula, tarantula_no_pump, ev8
from repro.core.processor import TarantulaProcessor
from repro.errors import SimulationError
from repro.isa.builder import KernelBuilder

A, B, C = 0x100000, 0x220000, 0x340000


def _triad_program(blocks=8, stride=8):
    kb = KernelBuilder("triad")
    kb.lda(1, A)
    kb.lda(2, B)
    kb.lda(3, C)
    kb.setvl(128)
    kb.setvs(stride)
    for blk in range(blocks):
        off = blk * 128 * stride
        kb.vloadq(4, rb=1, disp=off)
        kb.vloadq(5, rb=2, disp=off)
        kb.vvaddt(6, 4, 5)
        kb.vstoreq(6, rb=3, disp=off)
    return kb.build()


def run_program(program, config=None, warm=True):
    proc = TarantulaProcessor(config or tarantula())
    if warm:
        for base in (A, B, C):
            proc.warm_l2(base, 1 << 17)
    result = proc.run(program)
    return proc, result


class TestBasicExecution:
    def test_functional_and_timing_cosimulate(self):
        proc, result = run_program(_triad_program())
        assert result.cycles > 0
        # the functional co-simulation actually executed the adds
        out = proc.functional.memory.read_f64(C, 4)
        np.testing.assert_array_equal(out, 0.0)  # 0 + 0

    def test_ev8_config_rejected(self):
        with pytest.raises(SimulationError):
            TarantulaProcessor(ev8())

    def test_metrics_populated(self):
        _, result = run_program(_triad_program())
        assert result.opc > 0
        assert result.fpc > 0
        assert result.mpc > result.fpc  # 3 memory ops per 1 flop op
        assert result.counts.vector_instructions == 8 * 4 + 2

    def test_steady_state_throughput_reasonable(self):
        """Warm stride-1 triad should sustain well over 10 OPC and stay
        under the 104 peak."""
        _, result = run_program(_triad_program(blocks=32))
        assert 10 < result.opc < 104


class TestDependencies:
    def test_dependent_chain_slower_than_independent(self):
        kb = KernelBuilder("chain")
        kb.setvl(128)
        for i in range(20):
            kb.vvaddt(1, 1, 1)       # serial chain
        _, serial = run_program(kb.build())
        kb2 = KernelBuilder("parallel")
        kb2.setvl(128)
        for i in range(20):
            kb2.vvaddt(2 + (i % 8), 1, 1)  # independent
        _, par = run_program(kb2.build())
        assert serial.cycles > par.cycles * 1.5

    def test_memory_raw_dependence_enforced(self):
        """A load from an address a store wrote must wait for it."""
        kb = KernelBuilder("raw")
        kb.lda(1, A)
        kb.setvl(128)
        kb.setvs(8)
        kb.vloadq(2, rb=1)
        kb.vvaddt(3, 2, 2)
        kb.vstoreq(3, rb=1)     # write A
        kb.vloadq(4, rb=1)      # read A back: RAW
        proc, result = run_program(kb.build())
        assert proc.counters["memory_order_stalls"] >= 1

    def test_disjoint_accesses_do_not_stall(self):
        kb = KernelBuilder("disjoint")
        kb.lda(1, A)
        kb.lda(2, B)
        kb.setvl(128)
        kb.setvs(8)
        kb.vstoreq(3, rb=1)
        kb.vloadq(4, rb=2)
        proc, _ = run_program(kb.build())
        assert proc.counters["memory_order_stalls"] == 0

    def test_scatter_waits_for_index_sharing_its_data_register(self):
        """Store data does not gate address generation, but a scatter's
        index does — even when data and index name the same register."""
        kb = KernelBuilder("scatter")
        kb.lda(1, A)
        kb.setvl(128)
        kb.setvs(8)
        kb.vloadq(5, rb=1)          # cold: misses all the way to memory
        kb.vscatq(5, 5, rb=1)       # data and index share v5
        proc = TarantulaProcessor(tarantula())
        proc.trace = []
        proc.run(kb.build())
        (_, load, _, load_done), (_, scatter, scatter_t0, _) = proc.trace[-2:]
        assert (load.op, scatter.op) == ("vloadq", "vscatq")
        assert load_done > 100
        assert scatter_t0 >= load_done


class TestShortVectors:
    def test_odd_stride_short_vl_pays_full_addr_gen(self):
        """Section 3.4: vl below 128 still pays the 8 address cycles."""
        def program(vl):
            kb = KernelBuilder("short")
            kb.lda(1, A)
            kb.setvl(vl)
            kb.setvs(24)
            for i in range(16):
                kb.vloadq(2, rb=1, disp=i * 4096)
            return kb.build()

        _, short = run_program(program(16))
        _, full = run_program(program(128))
        # address generation dominates both: times are comparable even
        # though the short run moves 8x less data
        assert short.cycles > full.cycles * 0.5


class TestPumpEffects:
    def test_pump_speeds_up_stride1(self):
        prog = _triad_program(blocks=32)
        _, with_pump = run_program(prog)
        _, without = run_program(_triad_program(blocks=32),
                                 config=tarantula_no_pump())
        assert without.cycles > with_pump.cycles

    def test_no_pump_multiplies_maf_pressure(self):
        """Section 6: without the pump each stride-1 request consumes
        eight MAF slots instead of one."""
        prog = _triad_program(blocks=16)
        proc_pump, _ = run_program(prog, warm=False)
        proc_nopump, _ = run_program(_triad_program(blocks=16),
                                     config=tarantula_no_pump(), warm=False)
        allocs_pump = proc_pump.l2.maf.counters["allocations"]
        allocs_nopump = proc_nopump.l2.maf.counters["allocations"]
        assert allocs_nopump >= 6 * allocs_pump


class TestPrefetch:
    def test_prefetch_retires_early_and_warms_cache(self):
        kb = KernelBuilder("pf")
        kb.lda(1, A)
        kb.setvl(128)
        kb.setvs(8)
        kb.vprefetch(1)            # prefetch the block
        prog_pf = kb.build()
        proc, _ = run_program(prog_pf, warm=False)
        assert proc.l2.counters["line_misses"] == 16
        # the data is now resident
        assert proc.l2.tags.contains(A)

    def test_prefetched_load_is_faster(self):
        def with_pf(pf):
            kb = KernelBuilder("pf2")
            kb.lda(1, A)
            kb.setvl(128)
            kb.setvs(8)
            if pf:
                for blk in range(8):
                    kb.vprefetch(1, disp=blk * 1024)
                # spacer work while prefetches land
                for _ in range(40):
                    kb.vvaddt(2, 3, 4)
            for blk in range(8):
                kb.vloadq(5, rb=1, disp=blk * 1024)
                kb.vvaddt(6, 5, 5)
            proc = TarantulaProcessor(tarantula())
            return proc.run(kb.build()).cycles

        assert with_pf(True) < with_pf(False) + 40 * 8  # overlap won


class TestDrainMTiming:
    def test_drainm_serializes_frontend(self):
        kb = KernelBuilder("drain")
        kb.lda(1, A)
        kb.setvl(128)
        kb.setvs(8)
        kb.stq(2, rb=1)
        kb.drainm()
        kb.vloadq(3, rb=1)
        proc, result = run_program(kb.build())
        assert proc.coherency.counters["drainm"] == 1
        assert result.cycles >= proc.coherency.DRAIN_BASE_COST
