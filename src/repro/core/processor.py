"""The Tarantula processor timing simulator.

Composes every substrate — EV8 front end, Vbox issue ports, address
generators (reorder ROM + CR box), per-lane TLBs, banked L2 with MAF and
PUMP, Zbox/RAMBUS — into one instruction-level timing model, co-simulated
with the functional simulator so all data values (and hence all gather
indices, mask bits and loop trip counts) are architecturally exact.

Scheduling model (see DESIGN.md section 5): instructions are processed
in program order; each computes its dispatch time from the front-end
rate (8/cycle overall, 3/cycle into the Vbox), the ROB window, and its
source operands' ready times, then reserves the resources it needs.
:meth:`TarantulaProcessor._schedule` is the one copy of that
arithmetic: the interpreter's :meth:`~TarantulaProcessor.step` and the
trace JIT's batches both call it with the instruction's interned
:class:`Sched` record.
Memory ordering follows the Alpha memory model: the timing simulator
lets independent accesses overlap freely (kernels that need ordering
use DrainM, exactly as the paper's do), while the functional simulator
executes sequentially so results are always exact.
"""

from __future__ import annotations

from collections import deque
from repro.core.config import MachineConfig, tarantula
from repro.core.coherency import CoherencyController
from repro.core.functional import FunctionalSimulator
from repro.core.metrics import TimingResult
from repro.errors import ArchitecturalTrap, SimulationError
from repro.isa.instructions import Group, Instruction, TimingClass
from repro.isa.program import Program
from repro.mem.l1cache import L1DataCache
from repro.mem.l2cache import BankedL2, L2Config
from repro.mem.memory import MainMemory
from repro.mem.pump import PumpUnit
from repro.mem.rambus import RambusConfig
from repro.mem.zbox import Zbox
from repro.utils.stats import Counter
from repro.vbox.address_gen import AddressGenerators
from repro.vbox.crbox import ConflictResolutionBox
from repro.vbox.issue import VboxIssue
from repro.vbox.rename import RenameAllocator
from repro.vbox.vtlb import VectorTLB

#: one-way scalar-operand transfer time across the core<->Vbox interface
#: (half the 20-cycle round trip of section 2)
SCALAR_TRANSFER = 10.0

#: precomputed counter labels for _time_memory (hot path: building
#: f"mem_{kind}" per retired memory instruction is measurable)
_MEM_COUNTER = {kind: f"mem_{kind}" for kind in
                ("pump", "reordered", "cr", "empty")}

#: :attr:`Sched.route` values: which ``_time_*`` helper times the op
SCALAR, CONTROL, MEMORY, ARITHMETIC = (
    "scalar", "control", "memory", "arithmetic")

#: control ops that start a new vl/vs/vm regime
_REGIME_OPS = frozenset(("setvl", "setvs", "setvm"))


class Sched:
    """The operands one instruction's dispatch waits on, and its route.

    Depends only on the operand shape, so records are interned per
    shape (:func:`sched_for`) and carry no machine-config data: one
    record serves every processor and every compiled trace.
    """

    __slots__ = ("route", "vsrc", "ssrc", "needs_vl", "needs_vs",
                 "needs_vm")

    def __init__(self, instr: Instruction) -> None:
        d = instr.definition
        if d.group is Group.SC:
            self.route = SCALAR
        elif d.group is Group.VC:
            self.route = CONTROL
        elif d.is_memory:
            self.route = MEMORY
        else:
            self.route = ARITHMETIC
        vsrc = list(instr.vreg_reads())
        if d.is_store and instr.va in vsrc:
            # store data does not gate address generation or the tag
            # lookup (the store queue holds it; _time_memory waits for
            # it).  Drop the data operand only (vreg_reads lists va
            # first): a scatter's index may name the same register.
            vsrc.remove(instr.va)
        self.vsrc = tuple(vsrc)
        self.ssrc = tuple(r for r in (instr.ra, instr.rb) if r is not None)
        self.needs_vl = d.group in (Group.VV, Group.VS, Group.SM, Group.RM)
        self.needs_vs = d.is_memory and not d.is_indexed
        self.needs_vm = instr.masked


_SCHEDS: dict[tuple, Sched] = {}


def sched_for(instr: Instruction) -> Sched:
    """The interned :class:`Sched` for ``instr``'s operand shape."""
    key = (instr.op, instr.vd, instr.va, instr.vb, instr.ra, instr.rb,
           instr.masked)
    sched = _SCHEDS.get(key)
    if sched is None:
        sched = _SCHEDS[key] = Sched(instr)
    return sched


class TarantulaProcessor:
    """Cycle-level model of the whole chip, per Table 3 configuration."""

    def __init__(self, config: MachineConfig | None = None,
                 memory: MainMemory | None = None) -> None:
        self.config = config or tarantula()
        cfg = self.config
        if not cfg.has_vbox:
            raise SimulationError(
                f"{cfg.name} has no Vbox; use repro.scalar.EV8Model")
        self.functional = FunctionalSimulator(memory)

        ghz = cfg.core_ghz
        rambus_cfg = RambusConfig(
            ports=cfg.rambus_ports,
            bytes_per_core_cycle=cfg.rambus_bytes_per_cycle,
            turnaround_cycles=cfg.rambus_turnaround_ns * ghz,
            row_activate_cycles=cfg.rambus_row_activate_ns * ghz,
            row_precharge_cycles=cfg.rambus_row_precharge_ns * ghz,
            access_latency=cfg.memory_latency_cycles,
        )
        self.zbox = Zbox(rambus_cfg)
        self.pump = PumpUnit(enabled=cfg.pump_enabled)
        self.l1 = L1DataCache(cfg.l1_bytes, cfg.l1_ways, cfg.line_bytes)
        self.l2 = BankedL2(
            L2Config(capacity_bytes=cfg.l2_bytes, ways=cfg.l2_ways,
                     line_bytes=cfg.line_bytes,
                     hit_latency=cfg.l2_scalar_load_use,
                     maf_entries=cfg.maf_entries),
            self.zbox, self.pump, self.l1)
        self.coherency = CoherencyController(self.l1, self.l2)
        self.vtlb = VectorTLB()
        self.addr_gens = AddressGenerators(
            self.vtlb, ConflictResolutionBox(cfg.crbox_cycles_per_round),
            pump_enabled=cfg.pump_enabled)
        self.vbox = VboxIssue()
        self.rename = RenameAllocator(
            physical=32 + cfg.vbox_rename_registers, architectural=32)
        self.counters = Counter()

        # memory-dependence map: quadword address -> completion time of
        # the last vector store to it.  Loads and stores to the same
        # address order behind it (Alpha is weakly ordered between
        # independent locations, but same-address RAW/WAW is real).
        self._last_store: dict[int, float] = {}
        #: cache-line addresses covered by _last_store (a superset —
        #: rebuilt only on prune), so an access can rule out aliasing
        #: with one sweep over its <=17 lines instead of its <=128
        #: quadword addresses
        self._store_lines: set[int] = set()
        self._store_watermark = 0.0
        #: amortized pruning bound for _last_store; doubles when a prune
        #: reclaims less than half the map, so a large live store window
        #: never degrades into an O(n) rebuild per store
        self._store_prune_threshold = 1 << 17

        #: optional per-instruction trace: set to a list to record
        #: (index, instruction, dispatch_cycle, completion_cycle)
        self.trace: list | None = None
        self._instr_index = 0

        # scoreboard
        self._vreg_ready = [0.0] * 32
        self._sreg_ready = [0.0] * 32
        self._vl_ready = 0.0
        self._vs_ready = 0.0
        self._vm_ready = 0.0
        self._front_all = 0.0      # 8-wide front end position
        self._front_vec = 0.0      # 3-wide Pbox->Vbox bus position
        self._core_slot = 1.0 / cfg.core_issue_width
        self._vbox_slot = 1.0 / cfg.vbox_issue_width
        self._rob: deque[float] = deque()
        self._last_completion = 0.0

    # -- helpers -----------------------------------------------------------

    def warm_l2(self, base: int, nbytes: int) -> None:
        """Preload an address range into the L2 tags (no timing cost)."""
        self.l2.warm_range(base, nbytes)

    def _schedule(self, instr: Instruction,
                  sched: Sched) -> tuple[float, float]:
        """Dispatch ``instr`` and time it; returns ``(t0, done)``.

        ``t0`` is the latest of the front-end position (fetch/rename
        bandwidth, plus the Pbox->Vbox bus for vector ops), the ROB
        window and the ready times of the sources ``sched`` names; the
        route's ``_time_*`` helper then reserves resources from ``t0``.
        The caller retires ``done``.
        """
        route = sched.route
        t = self._front_all = self._front_all + self._core_slot
        if route is not SCALAR:
            fv = self._front_vec
            if t > fv:
                fv = t
            t = self._front_vec = fv + self._vbox_slot
        rob = self._rob
        if len(rob) >= self.config.rob_entries:
            head = rob.popleft()
            if head > t:
                t = head
        vreg_ready = self._vreg_ready
        for reg in sched.vsrc:
            if vreg_ready[reg] > t:
                t = vreg_ready[reg]
        # scalar operands of vector ops cross the narrow interface
        transfer = 0.0 if route is SCALAR else SCALAR_TRANSFER
        sreg_ready = self._sreg_ready
        for reg in sched.ssrc:
            ready = sreg_ready[reg] + transfer
            if ready > t:
                t = ready
        if sched.needs_vl and self._vl_ready > t:
            t = self._vl_ready
        if sched.needs_vs and self._vs_ready > t:
            t = self._vs_ready
        if sched.needs_vm and self._vm_ready > t:
            t = self._vm_ready
        if route is MEMORY:
            return t, self._time_memory(instr, t)
        if route is ARITHMETIC:
            return t, self._time_arithmetic(instr, t)
        if route is SCALAR:
            return t, self._time_scalar(instr, t)
        return t, self._time_control(instr, t)

    def _retire(self, completion: float) -> None:
        self._rob.append(completion)
        if completion > self._last_completion:
            self._last_completion = completion

    # -- per-group timing ------------------------------------------------------

    def _time_arithmetic(self, instr: Instruction, t0: float) -> float:
        d = instr.definition
        vl = self.functional.state.ctrl.vl
        writes = instr.vreg_writes()
        t0 = self.rename.allocate(t0, t0 + 1.0) if writes else t0
        start, done = self.vbox.issue_arithmetic(t0, vl, d.timing)
        for reg in writes:
            self._vreg_ready[reg] = done
        return done

    def _time_control(self, instr: Instruction, t0: float) -> float:
        op = instr.op
        done = t0 + 1.0
        if op == "setvl":
            self._vl_ready = done
        elif op == "setvs":
            self._vs_ready = done
        elif op == "setvm":
            # vm is renamed: the new mask is ready once va is, +1 cycle
            self._vm_ready = done
        elif op in ("vextq", "vsumq", "vsumt"):
            # reductions sweep the register (ceil(vl/16)) then transfer
            vl = self.functional.state.ctrl.vl
            start, exec_done = self.vbox.issue_arithmetic(
                t0, vl, TimingClass.FP if op == "vsumt" else TimingClass.INT)
            done = exec_done + SCALAR_TRANSFER
            if instr.rd is not None:
                self._sreg_ready[instr.rd] = done
        elif op in ("vinsq", "viota"):
            start, done = self.vbox.issue_arithmetic(
                t0, self.functional.state.ctrl.vl, TimingClass.INT)
            for reg in instr.vreg_writes():
                self._vreg_ready[reg] = done
        return done

    def _memory_order(self, touched: tuple, earliest: float,
                      lines: list) -> float:
        """Delay an access behind in-flight stores to the same quadwords.

        ``lines`` are the access's distinct cache lines (its plan's
        line view).
        """
        last = self._last_store
        if not last or earliest >= self._store_watermark:
            # no store still completes after `earliest`, so nothing in
            # the map can push this access later — skip the per-address
            # walk entirely (the common case once stores drain)
            return earliest
        # line-granularity prefilter: quadword aliasing implies line
        # aliasing, and the line sweep is ~8x shorter
        if self._store_lines.isdisjoint(lines):
            return earliest
        hit = last.keys() & touched
        if not hit:
            return earliest
        bound = earliest
        for addr in hit:
            # the intersection is tiny (the aliased quadwords only), so
            # the python loop runs over a handful of entries instead of
            # the whole 128-address footprint
            t = last[addr]
            if t > bound:
                bound = t
        if bound > earliest:
            self.counters.add("memory_order_stalls")
        return bound

    def _record_store(self, touched: tuple, completion: float,
                      lines: list) -> None:
        self._last_store.update(dict.fromkeys(touched, completion))
        self._store_lines.update(lines)
        if completion > self._store_watermark:
            self._store_watermark = completion
        # prune entries that completed far in the past: anything that old
        # can no longer delay an access (dispatch times only move forward)
        if len(self._last_store) > self._store_prune_threshold:
            before = len(self._last_store)
            cutoff = self._store_watermark - 100000.0
            self._last_store = {a: t for a, t in self._last_store.items()
                                if t > cutoff}
            self._store_lines = {a & ~0x3F for a in self._last_store}
            pruned = before - len(self._last_store)
            if pruned:
                self.counters.add("store_map_pruned", pruned)
            if len(self._last_store) > self._store_prune_threshold >> 1:
                self._store_prune_threshold <<= 1

    def _time_memory(self, instr: Instruction, t0: float) -> float:
        plan = self.addr_gens.plan(instr, self.functional.state)
        if plan.kind == "empty":
            return t0 + 1.0
        t0 = self._memory_order(plan.touched, t0, plan.lines)
        gen_time = plan.addr_gen_cycles + plan.tlb_penalty
        gen_start = self.vbox.addr_gen.reserve(t0, gen_time)
        self.counters.add(_MEM_COUNTER[plan.kind])
        if not plan.slices:
            return gen_start + gen_time
        completion = self.l2.access_plan(plan, gen_start,
                                         gen_time / len(plan.slices))
        if plan.is_write and instr.va is not None and instr.va != 31:
            # the store retires once its data has streamed out of the
            # register file (ceil(qw/32) cycles after the data is ready)
            data_ready = self._vreg_ready[instr.va]
            completion = max(completion,
                             data_ready + max(1.0, plan.quadwords / 32.0))
        if plan.is_write:
            self._record_store(plan.touched, completion, plan.lines)
        if plan.is_prefetch:
            # prefetches retire as soon as addresses are generated; the
            # fills proceed in the background
            return gen_start + gen_time
        if not plan.is_write and instr.vd is not None and instr.vd != 31:
            self._vreg_ready[instr.vd] = completion
        return completion

    def _time_scalar(self, instr: Instruction, t0: float) -> float:
        op = instr.op
        if op == "ldq":
            addr = (self.functional.state.sregs.read(instr.rb) + instr.disp)
            done = self.coherency.scalar_load(addr, t0)
            if instr.rd is not None:
                self._sreg_ready[instr.rd] = done
            return done
        if op == "stq":
            addr = (self.functional.state.sregs.read(instr.rb) + instr.disp)
            return self.coherency.scalar_store(addr, t0)
        if op == "drainm":
            outcome = self.coherency.drainm(t0)
            done = t0 + outcome.cycles
            # the replay trap kills and refetches younger instructions
            self._front_all = max(self._front_all, done)
            self._front_vec = max(self._front_vec, done)
            return done
        done = t0 + 1.0
        if op in ("lda", "addq", "subq", "mulq", "sll") and instr.rd is not None:
            self._sreg_ready[instr.rd] = done
        return done

    # -- main loop -----------------------------------------------------------------

    def step(self, instr: Instruction) -> float:
        """Time one instruction, then execute it functionally.

        Returns its completion cycle.  An :class:`ArchitecturalTrap`
        escaping either half (the timing model's TLB walk or the
        functional executor) is attributed to this instruction's index
        before propagating — the paper's precise-PC contract (section
        2).  The trapping instruction does not retire: the index stays
        put so a recovered run can re-execute it in place.
        """
        idx = self._instr_index
        try:
            t0, done = self._schedule(instr, sched_for(instr))
            self.functional.step(instr)
        except ArchitecturalTrap as trap:
            raise trap.attribute(idx) from None
        if instr.op in _REGIME_OPS:
            # a new vl/vs/vm regime drops the cached address plans (the
            # JIT's batched setvl/setvs only re-assert the guarded
            # regime, so they never get here)
            self.addr_gens.invalidate_plans()
        self._retire(done)
        if self.trace is not None:
            self.trace.append((idx, instr, t0, done))
        self._instr_index = idx + 1
        return done

    def resume_at(self, index: int) -> None:
        """Point the co-simulated pair at instruction ``index``.

        Used by fault recovery after restoring a functional checkpoint:
        the timing scoreboard keeps whatever reservations it made (the
        trapped attempt's cycles are real — the pipe did the work), but
        both instruction counters rewind so the stream re-executes from
        the checkpoint.
        """
        self._instr_index = index
        self.functional.instructions_executed = index

    def execute_program(self, program: Program) -> None:
        """Execute a whole program, through the trace JIT when possible.

        The JIT seam engages only when nothing observes per-instruction
        effects: the instruction trace hook is off, address tracing and
        tail poisoning are off, and :mod:`repro.jit` is enabled.  Any
        other configuration — and any region the JIT cannot prove safe —
        uses the per-instruction reference loop.
        """
        fn = self.functional
        if fn.address_trace is None and not fn.poison_tail \
                and self.trace is None:
            from repro import jit

            if jit.enabled():
                from repro.jit.runtime import run_timing

                run_timing(self, program)
                return
        for instr in program:
            self.step(instr)

    def run(self, program: Program) -> TimingResult:
        """Run a whole program; returns timing + operation metrics."""
        self.execute_program(program)
        return self.result(program.name)

    def result(self, kernel: str, workload_bytes: int = 0) -> TimingResult:
        stats = {
            "l2": self.l2.counters.as_dict(),
            "zbox": self.zbox.stats().as_dict(),
            "maf": self.l2.maf.counters.as_dict(),
            "addr_gens": self.addr_gens.counters.as_dict(),
            "crbox": self.addr_gens.crbox.counters.as_dict(),
            "vtlb": self.vtlb.counters.as_dict(),
            "pump": self.pump.counters.as_dict(),
            "processor": self.counters.as_dict(),
        }
        return TimingResult(
            config_name=self.config.name, kernel=kernel,
            cycles=max(self._last_completion, self._front_all),
            counts=self.functional.counts,
            core_ghz=self.config.core_ghz,
            mem_useful_bytes=self.zbox.useful_bytes(),
            mem_raw_bytes=self.zbox.raw_bytes(),
            workload_bytes=workload_bytes,
            component_stats=stats)
