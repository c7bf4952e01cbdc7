"""Functional (architectural) simulator.

Runs a :class:`~repro.isa.program.Program` against an
:class:`~repro.isa.registers.ArchState` and
:class:`~repro.mem.memory.MainMemory`, and accounts the dynamic
*operation* counts the evaluation figures need: flops, memory element
operations, and "other" (integer vector elements + scalar instructions) —
the same three categories as the paper's Figure 6.

The functional simulator is the golden reference: every workload's
vector kernel is checked against a numpy implementation through it, and
the timing simulator replays the identical instruction stream.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ArchitecturalTrap
from repro.isa.instructions import Group, Instruction, TimingClass
from repro.isa.program import Program
from repro.isa.registers import ArchSnapshot, ArchState
from repro.isa.semantics import execute
from repro.mem.memory import MainMemory, MemorySnapshot


@dataclass
class OperationCounts:
    """Dynamic operation counts in the paper's Figure-6 categories."""

    flops: int = 0                  # double-precision FP operations
    memory_elements: int = 0        # vector loads/stores, element count
    other: int = 0                  # integer vector elements + scalar instrs
    scalar_instructions: int = 0
    vector_instructions: int = 0
    prefetch_elements: int = 0
    by_tag: dict = field(default_factory=dict)

    @property
    def total(self) -> int:
        """All sustained operations (the paper's OPC numerator)."""
        return self.flops + self.memory_elements + self.other

    @property
    def vector_operations(self) -> int:
        return self.flops + self.memory_elements + \
            (self.other - self.scalar_instructions)

    @property
    def vectorization_percent(self) -> float:
        """Percent of dynamic operations executed by the vector unit
        (Table 2's "Vect. %" column)."""
        if self.total == 0:
            return 0.0
        return 100.0 * self.vector_operations / self.total

    def _bump_tag(self, tag: str, amount: int) -> None:
        if tag:
            self.by_tag[tag] = self.by_tag.get(tag, 0) + amount

    def add(self, instr: Instruction, n: int) -> None:
        """Count one executed ``instr`` that operated on ``n`` elements."""
        d = instr.definition
        if d.group is Group.SC:
            self.scalar_instructions += 1
            self.other += 1
            self._bump_tag(instr.tag, 1)
            return
        self.vector_instructions += 1
        if instr.is_prefetch:
            # Prefetches move data but do no architecturally-counted work;
            # the paper's OPC counts real computation only.
            self.prefetch_elements += n
            return
        if d.is_memory:
            self.memory_elements += n
            self._bump_tag(instr.tag, n)
        elif d.flops:
            self.flops += n * d.flops
            self._bump_tag(instr.tag, n * d.flops)
        elif d.timing in (TimingClass.CTRL,):
            # control-register moves are near-free; count one op
            self.other += 1
            self._bump_tag(instr.tag, 1)
        else:
            self.other += n
            self._bump_tag(instr.tag, n)


@dataclass
class Checkpoint:
    """A resumable point in a program's execution.

    Captures everything a restart from instruction ``index`` can
    observe: the architectural registers, the complete memory image,
    and the operation counters (so a recovered run's Figure-6 numbers
    match the fault-free run exactly).  Taken at trap PCs by the
    fault-recovery machinery (docs/FAULTS.md).
    """

    index: int
    state: ArchSnapshot
    memory: MemorySnapshot
    counts: OperationCounts


class FunctionalSimulator:
    """Executes programs and accumulates operation counts."""

    def __init__(self, memory: MainMemory | None = None,
                 poison_tail: bool = False,
                 trace_addresses: bool = False) -> None:
        self.memory = memory if memory is not None else MainMemory()
        self.state = ArchState()
        self.poison_tail = poison_tail
        self.counts = OperationCounts()
        self.instructions_executed = 0
        #: pc -> byte addresses dynamically touched (active lanes only);
        #: the vmem soundness suite diffs this against static footprints
        self.address_trace: dict[int, np.ndarray] | None = \
            {} if trace_addresses else None

    def active_elements(self, instr: Instruction) -> int:
        """Elements this instruction operates on under current vl/vm."""
        if instr.definition.group is Group.SC:
            return 0
        return self.state.active_count(instr.masked)

    def checkpoint(self) -> Checkpoint:
        """Snapshot the full resumable state at the current instruction."""
        return Checkpoint(
            index=self.instructions_executed,
            state=self.state.snapshot(),
            memory=self.memory.snapshot(),
            counts=dataclasses.replace(self.counts,
                                       by_tag=dict(self.counts.by_tag)))

    def restore(self, cp: Checkpoint) -> None:
        """Rewind to a checkpoint; the next step re-runs ``cp.index``."""
        self.state.restore(cp.state)
        self.memory.restore(cp.memory)
        self.counts = dataclasses.replace(cp.counts,
                                          by_tag=dict(cp.counts.by_tag))
        self.instructions_executed = cp.index

    def step(self, instr: Instruction) -> None:
        """Execute a single instruction.

        Execution precedes accounting so that a trapping instruction
        leaves the operation counters untouched (it will be re-counted
        when recovery re-executes it), and every escaping trap carries
        the faulting instruction index — the paper's precise-PC report.
        """
        if self.address_trace is not None:
            addrs = self._touched_addresses(instr)
            if addrs is not None:
                self.address_trace[self.instructions_executed] = addrs
        try:
            execute(instr, self.state, self.memory,
                    poison_tail=self.poison_tail)
        except ArchitecturalTrap as trap:
            raise trap.attribute(self.instructions_executed) from None
        self.counts.add(instr, self.active_elements(instr))
        self.instructions_executed += 1

    def _touched_addresses(self, instr: Instruction) -> np.ndarray | None:
        """Byte addresses ``instr`` is about to touch, or None.

        Computed against the *pre*-execution state (address operands are
        read before any write-back), mirroring the semantics handlers.
        Prefetches return None — they never materialize addresses
        architecturally (faults are suppressed), so the static analyzer
        skips them too.
        """
        from repro.isa.semantics import indexed_addresses, strided_addresses

        d = instr.definition
        if instr.is_prefetch:
            return None
        if d.group in (Group.SM, Group.RM):
            addrs = indexed_addresses(instr, self.state) if d.is_indexed \
                else strided_addresses(instr, self.state)
            idx = self.state.active_indices(instr.masked)
            # the strided array is a shared read-only cache: fancy
            # indexing copies, which is exactly what we want
            return np.asarray(addrs[idx], dtype=np.uint64)
        if d.group is Group.SC and instr.op in ("ldq", "stq"):
            addr = (self.state.sregs.read(instr.rb) + instr.disp) \
                & ((1 << 64) - 1)
            return np.array([addr], dtype=np.uint64)
        return None

    def run(self, program: Program) -> OperationCounts:
        """Execute a whole program; returns the cumulative counts.

        Hot regions run through the trace JIT (:mod:`repro.jit`) unless
        it is disabled or a mode that observes per-instruction effects
        is active (address tracing, tail poisoning) — those fall back to
        the reference interpreter, as does any region the JIT cannot
        prove safe to batch.
        """
        if self.address_trace is None and not self.poison_tail:
            from repro import jit

            if jit.enabled():
                from repro.jit.runtime import run_functional

                return run_functional(self, program)
        for instr in program:
            self.step(instr)
        return self.counts
