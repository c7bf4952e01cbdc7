"""Trace-JIT runtime: caches, guards, deoptimization, batch execution.

The run loop *bursts* the reference interpreter between region starts
(so straight-line glue code pays zero extra per-instruction overhead)
and enters a trace at each recorded region head:

1. **trim** — the region's first iteration always runs in the
   interpreter: it establishes the vl/vs regime the batch is compiled
   against and seeds the PR 5 address-plan cache, so the timing batch
   replays plans instead of rebuilding them;
2. **guard** — the live regime selects the compiled trace (a new regime
   invalidates and recompiles — the same seam ``setvl``/``setvs`` use to
   invalidate address plans); memory poisoning and the live-base-register
   disjointness recheck deoptimize;
3. **execute** — functional compute is phased: batched reads and store
   *validation* run first and mutate nothing, so an architectural trap
   mid-batch deoptimizes with zero side effects and the interpreter
   re-executes the iterations one by one, trapping at the precise PC.
   The timing half then calls the interpreter's own scheduling routine,
   ``TarantulaProcessor._schedule``, on every batched instruction with
   the trace's per-slot ``Sched`` records — cycles are bit-identical by
   construction — and finally the functional results commit.

Both simulators enter regions through the same burst loop
(:func:`_batches`) and the same trim-and-guard prologue
(:func:`_enter`).
A deoptimized entry consumes only the trimmed first iteration; the
burst loop interprets the remaining iterations because the next region
start lies beyond them.

Traces are cached per :class:`~repro.isa.program.Program` identity in a
``WeakKeyDictionary`` — per-process, like the engine's other memos, and
dropped automatically when the program dies.  Counters live in
:data:`STATS` only.
"""

from __future__ import annotations

import math
import weakref

import numpy as np

from repro.errors import ArchitecturalTrap
from repro.jit.compiler import (
    TraceReject,
    _Ctx,
    check_disjoint,
    compile_region,
)
from repro.jit.recorder import find_regions
from repro.vbox.reorder import BANK_PERIOD


class JitStats:
    """Process-wide trace-JIT counters."""

    __slots__ = ("trace_cache_hits", "trace_cache_misses",
                 "invalidations", "deopts", "compile_rejects",
                 "traces_compiled", "regions_detected",
                 "batched_instructions")

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.trace_cache_hits = 0
        self.trace_cache_misses = 0
        self.invalidations = 0
        self.deopts = 0
        self.compile_rejects = 0
        self.traces_compiled = 0
        self.regions_detected = 0
        self.batched_instructions = 0

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}


STATS = JitStats()


class _Entry:
    """One recorded region: compiled traces keyed by (vl, vs) regime."""

    __slots__ = ("region", "traces", "dead")

    def __init__(self, region) -> None:
        self.region = region
        self.traces = {}
        self.dead = set()


class ProgramTraces:
    """All recorded regions of one program, by start index."""

    __slots__ = ("entries", "starts")

    def __init__(self, program) -> None:
        regions = find_regions(program)
        self.entries = {r.start: _Entry(r) for r in regions}
        self.starts = sorted(self.entries)
        STATS.regions_detected += len(regions)


_CACHE: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def traces_for(program) -> ProgramTraces:
    pt = _CACHE.get(program)
    if pt is None:
        pt = ProgramTraces(program)
        _CACHE[program] = pt
    return pt


def clear_caches() -> None:
    """Drop all recorded regions and compiled traces (bench hygiene)."""
    _CACHE.clear()


def _trace_for(entry, program, state):
    """Compiled trace for the live regime, or None (dead / rejected)."""
    key = (state.ctrl.vl, state.ctrl.vs)
    trace = entry.traces.get(key)
    if trace is not None:
        STATS.trace_cache_hits += 1
        return trace
    if key in entry.dead:
        STATS.deopts += 1
        return None
    if entry.traces or entry.dead:
        # compiled before under a different regime: the regime guard
        # failed, exactly the plan-cache invalidation seam
        STATS.invalidations += 1
    STATS.trace_cache_misses += 1
    try:
        trace = compile_region(program, entry.region, state)
    except TraceReject:
        STATS.compile_rejects += 1
        entry.dead.add(key)
        return None
    entry.traces[key] = trace
    STATS.traces_compiled += 1
    return trace


def _compute_batch(trace, R, state, mem):
    """Phase 1: batched reads + store validation; mutates nothing.

    Returns the batch context, or None when an architectural trap
    deoptimizes the entry (the interpreter will re-execute and trap at
    the precise instruction).
    """
    ctx = _Ctx(R, trace.vl, trace.vs, state, mem)
    try:
        for step_fn in trace.steps:
            step_fn(ctx)
    except ArchitecturalTrap:
        STATS.deopts += 1
        return None
    return ctx


def _commit_batch(trace, ctx, sim) -> None:
    """Phase 3: write registers, memory and counters for the batch."""
    R = ctx.R
    state = sim.state
    vl = trace.vl
    vregs = state.vregs._regs
    for reg in trace.written_vregs:
        kind, arr = ctx.vreg[reg]
        # unmasked writes below vl merge with the preserved tail, which
        # a partial-row assignment gives us for free
        vregs[reg][:vl] = arr if kind == "inv" else arr[-1]
    for reg in trace.written_sregs:
        v = ctx.sreg[reg]
        if isinstance(v, np.ndarray):
            v = v[-1]
        state.sregs.write(reg, int(v))
    mem = sim.memory
    for addrs, vals in ctx.stores:
        mem.write_quads(addrs, vals)
    c = sim.counts
    inc = trace.counts_inc
    c.flops += inc.flops * R
    c.memory_elements += inc.memory_elements * R
    c.other += inc.other * R
    c.scalar_instructions += inc.scalar_instructions * R
    c.vector_instructions += inc.vector_instructions * R
    c.prefetch_elements += inc.prefetch_elements * R
    by_tag = c.by_tag
    for tag, v in inc.by_tag.items():
        by_tag[tag] = by_tag.get(tag, 0) + v * R
    sim.instructions_executed += trace.period * R
    STATS.batched_instructions += trace.period * R


# -- the entry sequence both simulators share --------------------------------


def _enter(entry, program, step, fn):
    """Trim, guard and compute one region entry.

    Interprets the region's first iteration through ``step``, selects
    the trace for the live regime and re-proves its guards against
    ``fn``, the functional simulator.  Returns ``(trace, ctx)`` for a
    batch of the remaining ``reps - 1`` iterations, or None when the
    entry deoptimizes.
    """
    region = entry.region
    start = region.start
    for j in range(start, start + region.period):
        step(program[j])
    trace = _trace_for(entry, program, fn.state)
    if trace is None:
        return None
    R = region.reps - 1
    mem = fn.memory
    if mem._poisoned or not check_disjoint(
            trace.mem_slots, fn.state.sregs, trace.vl, trace.vs, R):
        STATS.deopts += 1
        return None
    ctx = _compute_batch(trace, R, fn.state, mem)
    return None if ctx is None else (trace, ctx)


def _batches(sim, fn, program):
    """Interpret ``sim`` in bursts between region starts.

    Each region start goes through :func:`_enter`.  A batch that passes
    its guards is yielded as ``(region, trace, ctx)``, and the caller
    commits it before iterating on.  A deoptimized entry consumes only
    the trimmed first iteration.
    """
    pt = traces_for(program)
    n = len(program)
    starts = pt.starts
    step = sim.step
    i = 0
    si = 0
    nstarts = len(starts)
    while i < n:
        while si < nstarts and starts[si] < i:
            si += 1
        nxt = starts[si] if si < nstarts else n
        while i < nxt:
            step(program[i])
            i += 1
        if i >= n:
            break
        entry = pt.entries[i]
        region = entry.region
        batch = _enter(entry, program, step, fn)
        if batch is None:
            i += region.period
        else:
            yield (region, *batch)
            i += region.period * region.reps
        si += 1


# -- functional-only execution ----------------------------------------------


def run_functional(sim, program):
    """JIT-enabled replacement for ``FunctionalSimulator.run``."""
    for _region, trace, ctx in _batches(sim, sim, program):
        _commit_batch(trace, ctx, sim)
    return sim.counts


# -- timing (co-simulated) execution ----------------------------------------


def _seed_plans(proc, trace) -> None:
    """Pre-load the processor's address-plan cache from the trace.

    The plan cache (:mod:`repro.vbox.address_gen`) dies with its
    processor, so every run used to rebuild the first occurrence of
    each (vl, base-residue) strided plan.  The compiled trace outlives
    the processor (it is keyed by program identity), so it carries the
    entries its region needs across runs; ``plan()`` then takes its
    normal replay path — counters, soundness trace and cycles all come
    from the same code the interpreter uses, and ``_replay_plan``
    re-validates every entry against the *live* TLB and base register.
    """
    gens = proc.addr_gens
    cache = gens._plan_cache
    for key, entry in trace.plan_store[gens.pump_enabled].items():
        if key not in cache:
            cache[key] = entry
            gens._seeded.add(key)


def _harvest_plans(proc, program, trace, start: int, R: int) -> None:
    """Save the batch's strided-plan entries onto the trace.

    Keys are recomputed exactly as ``_plan_key`` builds them: the slot's
    base advances affinely, so its ``base % BANK_PERIOD`` residues cycle
    with period ``BANK_PERIOD / gcd(delta, BANK_PERIOD)``.
    """
    cache = proc.addr_gens._plan_cache
    if not cache:
        return
    store = trace.plan_store[proc.addr_gens.pump_enabled]
    sregs = proc.functional.state.sregs
    vl, vs = trace.vl, trace.vs
    for ms in trace.mem_slots:
        if ms.is_scalar:
            continue
        instr = program[start + ms.slot]
        base1 = sregs.read(ms.rb) + ms.disp1
        delta = ms.delta
        # 2**64 is a multiple of BANK_PERIOD, so plain python modulo of
        # the (possibly overflowing) sum equals the masked base's residue
        cycle = BANK_PERIOD // math.gcd(delta, BANK_PERIOD)
        for k in range(min(R, cycle)):
            key = (instr.op, instr.tag, instr.is_prefetch, instr.masked,
                   vl, vs, (base1 + delta * k) % BANK_PERIOD, None)
            entry = cache.get(key)
            if entry is not None:
                store[key] = entry


def _time_batch(proc, program, trace, start, R) -> None:
    """Schedule R batched iterations exactly as ``step()`` would.

    Every instruction goes through ``TarantulaProcessor._schedule`` with
    its slot's ``Sched`` record and then retires; only the functional
    half runs batched.  The batched ``setvl``/``setvs`` re-assert the
    guarded regime, so they skip the plan-cache invalidation ``step()``
    performs (replayed plans equal rebuilt ones).
    """
    period = trace.period
    scheds = trace.scheds
    schedule = proc._schedule
    retire = proc._retire
    try:
        for base in range(start + period, start + period * (R + 1),
                          period):
            for m, sched in enumerate(scheds):
                idx = base + m
                retire(schedule(program[idx], sched)[1])
    except ArchitecturalTrap as trap:
        raise trap.attribute(idx) from None


def run_timing(proc, program) -> None:
    """JIT-enabled co-simulated execution of a whole program.

    Each batch is timed before it commits: the ``_time_*`` helpers read
    only region-invariant functional state (the guarded vl/vs regime
    and memory base registers the compiler proved are not written
    in-region).
    """
    fn = proc.functional
    for region, trace, ctx in _batches(proc, fn, program):
        start, R = region.start, ctx.R
        _seed_plans(proc, trace)
        _time_batch(proc, program, trace, start, R)
        _harvest_plans(proc, program, trace, start, R)
        _commit_batch(trace, ctx, fn)
        proc._instr_index += trace.period * R
