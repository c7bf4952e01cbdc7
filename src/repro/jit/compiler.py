"""Trace compiler: batched numpy execution of one recorded region.

A compiled trace executes ``R`` loop iterations of a region per Python
dispatch, slot-major: for each of the ``period`` slots, one numpy
operation covers all ``R`` iterations at once.  That reordering is only
legal under the dataflow and memory-disjointness rules below, so the
compiler's job is mostly *proving eligibility*; the emitted "code" is a
list of small step closures over a batch context.

Value model (the batch environment):

* a vector register is ``("inv", (vl,) uint64)`` — loop-invariant — or
  ``("rows", (R, vl) uint64)`` — one row per iteration;
* a scalar register is a Python int (invariant) or an ``(R,)`` uint64
  array (one value per iteration, e.g. a batched ``ldq``).

Eligibility (anything else deoptimizes to the interpreter):

* ops: SC ``lda/addq/subq/mulq/sll/ldq``; VC ``setvl``/``setvs``
  immediate-form re-asserting the entry regime; SM loads/stores
  (including prefetches); every VV/VS operate/unary/FMAC.  No RM
  (gathers reorder through the CR box), no ``setvm``/masking, no
  ``stq``/``wh64``/``drainm``, no cross-element VC ops.
* dataflow (via :func:`repro.analysis.depgraph.block_dataflow`): every
  read is intra-iteration, loop-invariant, or a same-slot accumulator
  chain (FMAC ``vd += va*b`` or a ``vd == va`` binop), which batches as
  a sequential ``np.ufunc.accumulate`` left fold — bit-identical to the
  interpreter's per-iteration order.  Scalar loop-carried reads and
  memory base registers written in-region are rejected.
* memory: per-slot footprints are affine intervals; store/load pairs
  must be disjoint across all iteration offsets (a same-address
  load-before-store pair at offset 0 is the one legal overlap — the
  batch reads before it commits, like the interpreter).  Checked
  symbolically here and re-checked against live base registers at every
  region entry.

The timing half does not batch the machine model: it calls the
interpreter's own ``TarantulaProcessor._schedule`` per instruction with
the trace's per-slot :class:`~repro.core.processor.Sched` records (see
:mod:`repro.jit.runtime`), so cycles stay bit-identical by
construction.  What it *skips* is the plan-cache invalidation that
``step()`` performs after in-region ``setvl``/``setvs``: those
re-assert the guarded regime, so invalidation would only thrash the
plan cache (cycles are unaffected — a replayed plan is identical to a
rebuilt one, which the plan-cache differential suite proves).
"""

from __future__ import annotations

import numpy as np

from repro.analysis.depgraph import block_dataflow
from repro.core.functional import OperationCounts
from repro.core.processor import sched_for
from repro.isa.instructions import Group
from repro.isa.registers import MVL
from repro.isa.semantics import (
    _FP_BINOPS,
    _FP_COMPARES,
    _INT_BINOPS,
    float_to_bits,
)

_MASK = (1 << 64) - 1

_ALLOWED_SC = ("lda", "addq", "subq", "mulq", "sll", "ldq")

#: binop suffixes whose ``f(x, acc)`` equals ``f(acc, x)`` — the only
#: ones an accumulator chain may use in the ``vd == vb`` orientation
_COMMUTATIVE = ("addq", "mulq", "and", "bis", "xor", "addt", "mult",
                "maxt", "mint")

#: suffix -> ufunc usable as a sequential left fold over iteration rows
_ACC_UFUNCS = {
    "addq": np.add, "subq": np.subtract, "mulq": np.multiply,
    "and": np.bitwise_and, "bis": np.bitwise_or, "xor": np.bitwise_xor,
    "addt": np.add, "subt": np.subtract, "mult": np.multiply,
    "maxt": np.maximum, "mint": np.minimum,
}

_FP_ACC = ("addt", "subt", "mult", "maxt", "mint")


class TraceReject(Exception):
    """Region cannot be compiled; carries the reason (for observability)."""


class _Ctx:
    """Per-entry batch state: environment, deferred stores, constants."""

    __slots__ = ("R", "vl", "state", "mem", "vreg", "sreg", "stores",
                 "iota", "stride_row")

    def __init__(self, R, vl, vs, state, mem):
        self.R = R
        self.vl = vl
        self.state = state
        self.mem = mem
        self.vreg = {}
        self.sreg = {}
        self.stores = []
        self.iota = np.arange(R, dtype=np.uint64)
        self.stride_row = (np.uint64(vs & _MASK)
                           * np.arange(vl, dtype=np.uint64))


def _vread(ctx, reg):
    e = ctx.vreg.get(reg)
    if e is None:
        if reg == 31:
            arr = np.zeros(ctx.vl, dtype=np.uint64)
        else:
            arr = ctx.state.vregs._regs[reg][:ctx.vl].copy()
        e = ("inv", arr)
        ctx.vreg[reg] = e
    return e


def _sread(ctx, reg):
    try:
        return ctx.sreg[reg]
    except KeyError:
        val = ctx.state.sregs.read(reg)
        ctx.sreg[reg] = val
        return val


class MemSlot:
    """Symbolic footprint of one memory slot, for disjointness checks.

    ``disp1`` is the displacement of the slot's *first batched*
    iteration; the interval advances by ``delta`` per iteration.
    """

    __slots__ = ("slot", "is_store", "is_scalar", "is_prefetch", "rb",
                 "disp1", "delta")

    def __init__(self, slot, is_store, is_scalar, is_prefetch, rb,
                 disp1, delta):
        self.slot = slot
        self.is_store = is_store
        self.is_scalar = is_scalar
        self.is_prefetch = is_prefetch
        self.rb = rb
        self.disp1 = disp1
        self.delta = delta

    def interval(self, sregs, vl, vs):
        """[lo, hi) byte interval at the first batched iteration."""
        base = sregs.read(self.rb) + self.disp1
        if self.is_scalar:
            return base, base + 8
        span = vs * (vl - 1)
        lo = base + min(0, span)
        hi = base + max(0, span) + 8
        return lo, hi


def _overlap_offsets(lo_s, hi_s, lo_a, hi_a, delta, R):
    """Iteration offsets d in [-(R-1), R-1] where the two equal-delta
    intervals overlap (A shifted by d iterations relative to S)."""
    out = []
    for d in range(-(R - 1), R):
        shift = d * delta
        if lo_s < hi_a + shift and lo_a + shift < hi_s:
            out.append(d)
    return out


def check_disjoint(mem_slots, sregs, vl, vs, R) -> bool:
    """True when slot-major batched execution preserves memory order.

    Run at every region entry against live base-register values (the
    compile-time check would go stale if a base changed between runs).
    """
    slots = [m for m in mem_slots if not m.is_prefetch]
    stores = [m for m in slots if m.is_store]
    if not stores:
        return True
    ivals = {m.slot: m.interval(sregs, vl, vs) for m in slots}
    for s in stores:
        lo_s, hi_s = ivals[s.slot]
        for a in slots:
            if a.slot == s.slot:
                # self-pair: any cross-iteration overlap is rejected
                # (commit order inside one fancy-store is not the
                # iteration order the interpreter guarantees)
                if a.delta != 0 and abs(a.delta) < hi_s - lo_s:
                    return False
                if a.delta == 0:
                    return False if R > 1 else True
                continue
            lo_a, hi_a = ivals[a.slot]
            if a.delta == s.delta:
                for d in _overlap_offsets(lo_s, hi_s, lo_a, hi_a,
                                          s.delta, R):
                    if d == 0 and not a.is_store and a.slot < s.slot:
                        # the batch reads every load before any store
                        # commits, exactly like the interpreter's
                        # load-then-store program order
                        continue
                    return False
            else:
                # different strides: conservative swept bounding boxes
                box_s = (lo_s + min(0, (R - 1) * s.delta),
                         hi_s + max(0, (R - 1) * s.delta))
                box_a = (lo_a + min(0, (R - 1) * a.delta),
                         hi_a + max(0, (R - 1) * a.delta))
                if box_s[0] < box_a[1] and box_a[0] < box_s[1]:
                    return False
    return True


class CompiledTrace:
    """One region compiled against a vl/vs regime."""

    __slots__ = ("period", "vl", "vs", "steps", "scheds", "mem_slots",
                 "written_vregs", "written_sregs", "counts_inc",
                 "plan_store")

    def __init__(self, period, vl, vs, steps, scheds, mem_slots,
                 written_vregs, written_sregs, counts_inc):
        self.period = period
        self.vl = vl
        self.vs = vs
        self.steps = steps
        #: per-slot scheduling records for ``TarantulaProcessor._schedule``
        self.scheds = scheds
        self.mem_slots = mem_slots
        self.written_vregs = written_vregs
        self.written_sregs = written_sregs
        #: one iteration's OperationCounts
        self.counts_inc = counts_inc
        #: address-plan cache entries harvested after a timing batch,
        #: re-seeded into the (per-processor) plan cache before the next
        #: one — a fresh processor then *replays* every strided plan the
        #: region needs instead of rebuilding them (see runtime).
        #: Partitioned by the generators' pump regime: the trace is
        #: shared across machine configs (it is keyed by program
        #: identity), and a stride-1 plan built with the pump enabled is
        #: a different plan from the reordered one a pump-less config
        #: must build.
        self.plan_store = {True: {}, False: {}}


# -- batched functional step builders ---------------------------------------


def _fetch_vector(reg):
    def fetch(ctx):
        return _vread(ctx, reg)
    return fetch


def _fetch_const(bits):
    row = None

    def fetch(ctx):
        nonlocal row
        if row is None or row.shape[0] != ctx.vl:
            row = np.full(ctx.vl, bits, dtype=np.uint64)
        return ("inv", row)
    return fetch


def _fetch_sreg_scalar(reg):
    def fetch(ctx):
        val = _sread(ctx, reg)
        if isinstance(val, np.ndarray):
            return ("col", val)
        return ("inv", np.full(ctx.vl, val & _MASK, dtype=np.uint64))
    return fetch


def _view_fp(kind, arr):
    f = arr.view(np.float64)
    return f[:, None] if kind == "col" else f


def _view_int(kind, arr):
    return arr[:, None] if kind == "col" else arr


def _result_kind(*kinds):
    return "rows" if any(k != "inv" for k in kinds) else "inv"


def _make_binop(vd, fetch_a, fetch_b, suffix):
    int_fn = _INT_BINOPS.get(suffix)
    cmp_fn = _FP_COMPARES.get(suffix)
    fp_fn = _FP_BINOPS.get(suffix) if cmp_fn is None else None

    def step(ctx):
        ka, a = fetch_a(ctx)
        kb, b = fetch_b(ctx)
        if int_fn is not None:
            result = int_fn(_view_int(ka, a), _view_int(kb, b))
        elif cmp_fn is not None:
            result = cmp_fn(_view_fp(ka, a),
                            _view_fp(kb, b)).astype(np.uint64)
        else:
            with np.errstate(divide="ignore", invalid="ignore",
                             over="ignore"):
                result = fp_fn(_view_fp(ka, a),
                               _view_fp(kb, b)).view(np.uint64)
        ctx.vreg[vd] = (_result_kind(ka, kb), result)
    return step


def _make_unary(vd, fetch_a, op):
    def step(ctx):
        ka, a = fetch_a(ctx)
        if op == "vsqrtt":
            with np.errstate(invalid="ignore"):
                result = np.sqrt(a.view(np.float64)).view(np.uint64)
        elif op == "vcvtqt":
            result = a.view(np.int64).astype(np.float64).view(np.uint64)
        elif op == "vcvttq":
            f = a.view(np.float64)
            with np.errstate(invalid="ignore"):
                result = np.trunc(f)
                result = np.where(np.isfinite(result), result, 0.0)
                result = result.astype(np.int64).view(np.uint64)
        else:  # vnot
            result = ~a
        ctx.vreg[vd] = (ka, result)
    return step


def _rows_of(ctx, kind, arr):
    """Materialize an operand as an (R, vl) float64 row matrix."""
    f = arr.view(np.float64)
    if kind == "rows":
        return f
    if kind == "col":
        return np.broadcast_to(f[:, None], (ctx.R, ctx.vl))
    return np.broadcast_to(f, (ctx.R, ctx.vl))


def _make_madd(vd, fetch_a, fetch_b, carried):
    def step(ctx):
        ka, a = fetch_a(ctx)
        kb, b = fetch_b(ctx)
        with np.errstate(over="ignore", invalid="ignore"):
            if carried:
                # sequential left fold from the entry accumulator: the
                # same adds in the same order as the interpreter
                terms = (_view_fp(ka, a) * _view_fp(kb, b))
                if terms.ndim == 1 or terms.shape[0] != ctx.R:
                    terms = np.broadcast_to(terms, (ctx.R, ctx.vl))
                acc0 = _vread(ctx, vd)[1].view(np.float64)
                chain = np.concatenate([acc0[None, :], terms])
                result = np.add.accumulate(chain, axis=0)[1:]
            else:
                kacc, acc = _vread(ctx, vd)
                result = (_view_fp(kacc, acc)
                          + _view_fp(ka, a) * _view_fp(kb, b))
        ctx.vreg[vd] = ("rows" if carried
                        else _result_kind(ka, kb, kacc), result.view(np.uint64))
    return step


def _make_acc_binop(vd, fetch_x, suffix):
    ufunc = _ACC_UFUNCS[suffix]
    is_fp = suffix in _FP_ACC

    def step(ctx):
        kx, x = fetch_x(ctx)
        if is_fp:
            rows = _rows_of(ctx, kx, x)
            acc0 = _vread(ctx, vd)[1].view(np.float64)
        else:
            rows = x if kx == "rows" else np.broadcast_to(
                _view_int(kx, x), (ctx.R, ctx.vl))
            acc0 = _vread(ctx, vd)[1]
        chain = np.concatenate([acc0[None, :], rows])
        result = ufunc.accumulate(chain, axis=0)[1:]
        if is_fp:
            result = result.view(np.uint64)
        ctx.vreg[vd] = ("rows", result)
    return step


def _addr_matrix(ctx, rb, disp1, delta):
    base = (_sread(ctx, rb) + disp1) & _MASK
    bases = np.uint64(base) + np.uint64(delta & _MASK) * ctx.iota
    return (bases[:, None] + ctx.stride_row).ravel()


def _make_vload(vd, rb, disp1, delta):
    def step(ctx):
        addrs = _addr_matrix(ctx, rb, disp1, delta)
        vals = ctx.mem.read_quads(addrs).reshape(ctx.R, ctx.vl)
        ctx.vreg[vd] = ("rows", vals)
    return step


def _make_vstore(va, rb, disp1, delta):
    def step(ctx):
        kind, data = _vread(ctx, va)
        addrs = _addr_matrix(ctx, rb, disp1, delta)
        if kind == "inv":
            vals = np.broadcast_to(data, (ctx.R, ctx.vl)).ravel()
        else:
            vals = data.ravel()
        ctx.mem.validate_quads(addrs)
        ctx.stores.append((addrs, vals))
    return step


def _make_ldq(rd, rb, disp1, delta):
    def step(ctx):
        base = (_sread(ctx, rb) + disp1) & _MASK
        addrs = np.uint64(base) + np.uint64(delta & _MASK) * ctx.iota
        vals = ctx.mem.read_quads(addrs)
        if rd != 31:
            ctx.sreg[rd] = vals
    return step


def _wrap_scalar(val):
    if isinstance(val, np.ndarray):
        return val
    return val & _MASK


def _s_arith(op, a, b):
    """Scalar ALU on int-or-(R,)-array operands, 64-bit wrapping."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        if not isinstance(a, np.ndarray):
            a = np.uint64(a & _MASK)
        if not isinstance(b, np.ndarray):
            b = np.uint64(b & _MASK)
        if op == "addq":
            return a + b
        if op == "subq":
            return a - b
        if op == "mulq":
            return a * b
        return a << (b & np.uint64(63))
    if op == "addq":
        return (a + b) & _MASK
    if op == "subq":
        return (a - b) & _MASK
    if op == "mulq":
        return (a * b) & _MASK
    return (a << (b & 63)) & _MASK


def _make_scalar(instr):
    op = instr.op
    rd, ra, rb, imm = instr.rd, instr.ra, instr.rb, instr.imm
    if op == "lda":
        if isinstance(imm, float):
            if rb is not None and rb != 31:
                # the interpreter requires base == 0 for float literals
                raise TraceReject("lda float immediate with base register")
            bits = float_to_bits(imm)

            def step(ctx):
                if rd != 31:
                    ctx.sreg[rd] = bits
        else:
            def step(ctx):
                base = _sread(ctx, rb) if rb is not None else 0
                if rd != 31:
                    ctx.sreg[rd] = _wrap_scalar(_s_arith("addq", base,
                                                         int(imm)))
        return step

    def step(ctx):
        a = _sread(ctx, ra)
        b = int(imm) if imm is not None else _sread(ctx, rb)
        if rd != 31:
            ctx.sreg[rd] = _wrap_scalar(_s_arith(op, a, b))
    return step


# -- compilation ------------------------------------------------------------


def _operand_fetchers(instr, flow, m, fp_imm=None):
    """(fetch_a, fetch_b) for an operate's two sources; validates reads."""
    d = instr.definition
    fetch_a = _fetch_vector(instr.va)
    if d.group is Group.VV and "vb" in d.fields:
        fetch_b = _fetch_vector(instr.vb)
    elif instr.ra is not None:
        if flow.sreg_kinds[m].get(instr.ra) == "carried":
            raise TraceReject(f"slot {m}: carried scalar operand "
                              f"r{instr.ra}")
        fetch_b = _fetch_sreg_scalar(instr.ra)
    else:
        if fp_imm is None:
            suffix = instr.op[2:]
            fp_imm = suffix in _FP_BINOPS or suffix in _FP_COMPARES
        bits = (float_to_bits(float(instr.imm)) if fp_imm
                else int(instr.imm) & _MASK)
        fetch_b = _fetch_const(bits)
    return fetch_a, fetch_b


def compile_region(program, region, state) -> CompiledTrace:
    """Compile ``region`` against the current vl/vs regime.

    Raises :class:`TraceReject` with the reason when the region cannot
    be batched.  The caller interprets the region's *first* iteration
    before calling, so ``state`` already reflects the regime the batched
    iterations run under.
    """
    vl = state.ctrl.vl
    vs = state.ctrl.vs
    if vl == 0:
        raise TraceReject("vl == 0 regime")
    p = region.period
    start = region.start
    slots = [program[start + i] for i in range(p)]
    flow = block_dataflow(slots)

    steps = []
    mem_slots = []
    written_vregs = []
    written_sregs = []

    for m, instr in enumerate(slots):
        d = instr.definition
        op = instr.op
        delta = region.deltas[m]
        disp1 = program[start + p + m].disp
        if instr.masked:
            raise TraceReject(f"slot {m}: masked {op}")

        if d.group is Group.SC:
            if op not in _ALLOWED_SC:
                raise TraceReject(f"slot {m}: scalar {op}")
            for reg, kind in flow.sreg_kinds[m].items():
                if kind == "carried":
                    raise TraceReject(f"slot {m}: {op} carried r{reg}")
            if op == "ldq":
                if instr.rb in flow.sreg_writers:
                    raise TraceReject(f"slot {m}: ldq base r{instr.rb} "
                                      "written in-region")
                steps.append(_make_ldq(instr.rd, instr.rb, disp1, delta))
                mem_slots.append(MemSlot(m, False, True, False,
                                         instr.rb, disp1, delta))
            else:
                if delta != 0:
                    raise TraceReject(f"slot {m}: {op} with varying disp")
                steps.append(_make_scalar(instr))
            if instr.rd is not None and instr.rd != 31:
                written_sregs.append(instr.rd)

        elif d.group is Group.VC:
            if op not in ("setvl", "setvs") or instr.ra is not None:
                raise TraceReject(f"slot {m}: control {op}")
            if op == "setvl":
                if min(int(instr.imm), MVL) != vl:
                    raise TraceReject(f"slot {m}: setvl {instr.imm} "
                                      f"!= regime vl {vl}")
            else:
                raw = int(instr.imm) & _MASK
                if raw >= 1 << 63:
                    raw -= 1 << 64
                if raw != vs:
                    raise TraceReject(f"slot {m}: setvs {instr.imm} "
                                      f"!= regime vs {vs}")
            # functional no-op: it re-asserts the guarded entry regime

        elif d.group is Group.RM:
            raise TraceReject(f"slot {m}: indexed memory {op}")

        elif d.group is Group.SM:
            if instr.rb in flow.sreg_writers:
                raise TraceReject(f"slot {m}: {op} base r{instr.rb} "
                                  "written in-region")
            if instr.is_prefetch:
                steps.append(None)           # no architectural effect
                mem_slots.append(MemSlot(m, False, False, True,
                                         instr.rb, disp1, delta))
            elif d.is_load:
                steps.append(_make_vload(instr.vd, instr.rb, disp1,
                                         delta))
                mem_slots.append(MemSlot(m, False, False, False,
                                         instr.rb, disp1, delta))
                written_vregs.append(instr.vd)
            else:
                if flow.vreg_kinds[m].get(instr.va) == "carried":
                    raise TraceReject(f"slot {m}: store of carried "
                                      f"v{instr.va}")
                steps.append(_make_vstore(instr.va, instr.rb, disp1,
                                          delta))
                mem_slots.append(MemSlot(m, True, False, False,
                                         instr.rb, disp1, delta))

        else:                                # VV / VS operate
            if instr.vd is None or instr.vd == 31:
                raise TraceReject(f"slot {m}: {op} writing v31")
            vd = instr.vd
            carried_acc = flow.vreg_kinds[m].get(vd) == "carried"
            if carried_acc and flow.vreg_writers.get(vd) != (m,):
                raise TraceReject(f"slot {m}: accumulator v{vd} has "
                                  "multiple writers")
            for reg, kind in flow.vreg_kinds[m].items():
                if kind == "carried" and reg != vd:
                    raise TraceReject(f"slot {m}: carried read v{reg}")
            if op in ("vvmaddt", "vsmaddt"):
                if carried_acc and (instr.va == vd or instr.vb == vd):
                    raise TraceReject(f"slot {m}: madd multiplicand "
                                      "aliases carried accumulator")
                fetch_a, fetch_b = _operand_fetchers(instr, flow, m,
                                                     fp_imm=True)
                steps.append(_make_madd(vd, fetch_a, fetch_b,
                                        carried_acc))
            elif "vb" in d.fields or "scalar" in d.fields:
                suffix = op[2:]
                if carried_acc:
                    if suffix not in _ACC_UFUNCS:
                        raise TraceReject(f"slot {m}: no accumulate "
                                          f"fold for {op}")
                    if vd == instr.va and ("vb" in d.fields
                                           or "scalar" in d.fields):
                        # out = f(acc, x): the natural left fold
                        if d.group is Group.VV and vd == instr.vb:
                            raise TraceReject(f"slot {m}: {op} with "
                                              "vd == va == vb")
                        if d.group is Group.VV:
                            fetch_x = _fetch_vector(instr.vb)
                        else:
                            _a, fetch_x = _operand_fetchers(instr, flow,
                                                            m)
                    elif d.group is Group.VV and vd == instr.vb:
                        # out = f(x, acc): fold only if commutative
                        if suffix not in _COMMUTATIVE:
                            raise TraceReject(f"slot {m}: {op} "
                                              "non-commutative vd==vb")
                        fetch_x = _fetch_vector(instr.va)
                    else:
                        raise TraceReject(f"slot {m}: {op} carried vd "
                                          "not an operand")
                    steps.append(_make_acc_binop(vd, fetch_x, suffix))
                else:
                    fetch_a, fetch_b = _operand_fetchers(instr, flow, m)
                    steps.append(_make_binop(vd, fetch_a, fetch_b,
                                             suffix))
            else:                            # unary
                if carried_acc:
                    raise TraceReject(f"slot {m}: carried unary {op}")
                steps.append(_make_unary(vd, _fetch_vector(instr.va),
                                         op))
            written_vregs.append(vd)

    # symbolic disjointness with the *compile-time* bases; re-checked
    # against live registers at every entry (see runtime)
    if not check_disjoint(mem_slots, state.sregs, vl, vs,
                          max(region.reps - 1, 1)):
        raise TraceReject("memory slots not provably disjoint")

    counts_inc = OperationCounts()
    for instr in slots:
        # nothing batched is masked, so every op covers all vl elements
        counts_inc.add(instr, vl)
    seen: set = set()
    written_vregs = [r for r in written_vregs
                     if not (r in seen or seen.add(r))]
    seen = set()
    written_sregs = [r for r in written_sregs
                     if not (r in seen or seen.add(r))]
    return CompiledTrace(
        period=p, vl=vl, vs=vs,
        steps=[s for s in steps if s is not None],
        scheds=[sched_for(i) for i in slots],
        mem_slots=mem_slots,
        written_vregs=tuple(written_vregs),
        written_sregs=tuple(written_sregs),
        counts_inc=counts_inc)
