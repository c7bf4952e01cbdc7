"""Address generators: turn one memory instruction into slices.

Each of the 16 lanes has an address generator (Fig. 3); collectively
they emit 16 addresses per cycle.  The generators pick one of three
paths per instruction (section 3.4):

* **pump** — stride-1 (``vs`` == 8): emit the starting addresses of the
  16 (17 when misaligned) cache lines covered, set the pump bit;
* **reordered** — other strides whose bank histogram is uniform: emit
  the ROM-scheduled 8 conflict-free slices, paying the full 8 cycles of
  address generation regardless of ``vl`` (the paper's stated downside);
* **CR box** — gathers, scatters and self-conflicting strides: feed the
  conflict-resolution tournament.

Every path first translates through the vector TLB.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.isa.instructions import Group, Instruction
from repro.isa.registers import MVL, ArchState
from repro.isa.semantics import indexed_addresses, strided_addresses
from repro.utils.bitops import line_address
from repro.utils.stats import Counter
from repro.vbox.crbox import ConflictResolutionBox
from repro.vbox.reorder import BANK_PERIOD, conflict_free_schedule, \
    is_reorderable
from repro.vbox.slices import SLICE_SIZE, Slice
from repro.vbox.vtlb import VectorTLB

LINE_BYTES = 64

_M64 = (1 << 64) - 1
#: plan-kind -> the counter the build path bumps (replayed on cache hits)
_KIND_COUNTER = {"pump": "pump_plans", "reordered": "reordered_plans"}
#: plan-cache entry bound; cleared wholesale when exceeded (hot keys
#: repopulate within one loop iteration).  Sized so a whole blocked
#: kernel's working set fits: the key includes vl and base % BANK_PERIOD,
#: and e.g. linpack's column sweep walks ~2.5k distinct (vl, residue)
#: pairs — with the trace JIT batching the functional work, plan
#: *replays* dominate the remaining timing cost, so thrashing here is
#: directly visible in wall-clock.
_PLAN_CACHE_MAX = 8192


@dataclass
class AccessPlan:
    """Everything the memory pipeline needs to time one instruction.

    Besides its slices, a plan carries a *line view* of them, computed
    once when the plan is built (:func:`_line_view`): the distinct line
    addresses in first-reference order (``lines``), the position of
    each one's last reference in slice order (``last_ref``), the total
    number of line references (``n_refs``) and the widest slice's line
    count (``widest``).  The L2 times a whole instruction from it
    (:meth:`~repro.mem.l2cache.BankedL2.access_plan`).

    A plan replayed from the plan cache shares the cached template's
    ``slices``, which hold the addresses of the base the template was
    built at; ``delta`` is the byte offset from those to this plan's
    addresses.  ``touched`` and ``lines`` are already rebased.  Read a
    slice's lines through :meth:`slice_lines`, which adds ``delta``;
    the L2's per-slice fallback walk is its only caller.
    """

    kind: str                      # 'pump' | 'reordered' | 'cr' | 'empty'
    is_write: bool
    is_prefetch: bool
    slices: list[Slice] = field(default_factory=list)
    #: total address-generation (+ CR tournament) cycles
    addr_gen_cycles: float = 1.0
    #: PALcode TLB refill penalty, cycles
    tlb_penalty: float = 0.0
    #: data quadwords moved (valid elements)
    quadwords: int = 0
    #: physical quadword addresses touched (for memory-dependence checks)
    touched: tuple = ()
    #: distinct line addresses over all slices, first-reference order
    lines: list[int] = field(default_factory=list)
    #: int64 position of each line's last reference, in slice order
    last_ref: np.ndarray | None = None
    #: line references over all slices (each slice's distinct lines)
    n_refs: int = 0
    #: distinct lines of the widest slice
    widest: int = 0
    #: bytes to add to the addresses ``slices`` hold (nonzero on replay)
    delta: int = 0

    def slice_lines(self, k: int) -> list[int]:
        """Slice ``k``'s distinct line addresses at this plan's base."""
        lines = self.slices[k].line_addresses()
        if self.delta:
            return [line + self.delta for line in lines]
        return lines


def _line_view(slices: list[Slice]) -> tuple[list[int], np.ndarray, int, int]:
    """``(lines, last_ref, n_refs, widest)`` of :class:`AccessPlan`."""
    last: dict[int, int] = {}
    n_refs = widest = 0
    for s in slices:
        lines = s.line_addresses()
        if len(lines) > widest:
            widest = len(lines)
        for line in lines:
            # re-assigning a key keeps its first-insertion position
            last[line] = n_refs
            n_refs += 1
    last_ref = np.fromiter(last.values(), dtype=np.int64, count=len(last))
    return list(last), last_ref, n_refs, widest


@dataclass
class _CachedPlan:
    """A reusable strided plan, rebased on hit by ``base - entry.base``.

    Only fast-path translations are cached (identity mapping, zero TLB
    penalty), and only pump/reordered kinds (the CR box is stateful).
    The slice/bank structure of a strided access depends on the base
    only through ``base % BANK_PERIOD`` (which is part of the cache
    key), so a hit at a different base shifts every address by a
    multiple of the bank period — line splits, bank schedule and
    full-line-write classification are all preserved.
    """

    kind: str
    is_write: bool
    is_prefetch: bool
    base: int                       # virtual base the entry was built at
    n_valid: int                    # active elements (vtlb hit replication)
    addr_gen_cycles: float
    quadwords: int
    touched: np.ndarray             # uint64 copy of plan.touched
    touched_tuple: tuple            # the original tuple (delta == 0 reuse)
    slices: list                    # template Slice objects at `base`
    lines: list                     # the line view at `base` ...
    last_ref: np.ndarray            # ... and its base-independent parts
    n_refs: int
    widest: int


class AddressGenerators:
    """The 16 per-lane address generators plus the CR box front end."""

    def __init__(self, vtlb: VectorTLB | None = None,
                 crbox: ConflictResolutionBox | None = None,
                 pump_enabled: bool = True) -> None:
        self.vtlb = vtlb or VectorTLB()
        self.crbox = crbox or ConflictResolutionBox()
        self.pump_enabled = pump_enabled
        self.counters = Counter()
        self._next_slice_id = 0
        #: keyed plan cache for strided accesses (see _CachedPlan);
        #: invalidated explicitly on setvl/setvs/setvm
        self._plan_cache: dict[tuple, _CachedPlan] = {}
        #: keys pre-loaded from a compiled trace's plan store rather
        #: than built here: their *first* replay counts as the miss the
        #: build path would have produced, so plan-cache telemetry is
        #: independent of whether an earlier run harvested the plans
        self._seeded: set = set()
        #: when set to a list, plan() appends ``(instr, plan.touched)``
        #: for every planned access (build and cache-replay paths alike);
        #: the vmem soundness suite uses this as the timing-side trace
        self.trace: list[tuple[Instruction, tuple]] | None = None

    # -- helpers ---------------------------------------------------------

    def _new_slice(self, elements, addresses, **kw) -> Slice:
        s = Slice(self._next_slice_id, elements, addresses, **kw)
        self._next_slice_id += 1
        return s

    @staticmethod
    def _valid_elements(instr: Instruction, state: ArchState) -> np.ndarray:
        return state.active_indices(instr.masked)

    # -- the three paths ----------------------------------------------------

    def _plan_pump(self, instr, valid, paddrs, is_write, tlb_penalty,
                   tag: str) -> AccessPlan:
        addrs = paddrs[valid]
        # addresses ascend (stride-1, valid indices ascending), so a
        # single python walk yields the sorted distinct lines + counts
        line_list: list[int] = []
        counts: list[int] = []
        prev = -1
        for a in addrs.tolist():
            ln = a >> 6
            if ln != prev:
                line_list.append(ln << 6)
                counts.append(1)
                prev = ln
            else:
                counts[-1] += 1
        per_line = LINE_BYTES // 8
        slices: list[Slice] = []
        # misaligned stride-1 spans 17 lines -> two pump slices (note 3)
        for start in range(0, len(line_list), SLICE_SIZE):
            group = line_list[start:start + SLICE_SIZE]
            group_counts = counts[start:start + SLICE_SIZE]
            qw = sum(group_counts)
            full = is_write and all(c == per_line for c in group_counts)
            s = self._new_slice(
                np.arange(len(group)), np.array(group, dtype=np.uint64),
                pump=True, full_line_write=full, quadwords=qw, tag=tag)
            # pump addresses *are* sorted distinct line starts
            s._line_addrs = group
            slices.append(s)
        self.counters.add("pump_plans")
        return AccessPlan("pump", is_write, False, slices,
                          addr_gen_cycles=float(len(slices)),
                          tlb_penalty=tlb_penalty, quadwords=len(addrs))

    def _plan_reordered(self, instr, state, valid, paddrs, is_write,
                        tlb_penalty, tag: str) -> AccessPlan:
        base = int(paddrs[0])
        stride = state.ctrl.vs
        schedule = conflict_free_schedule(base, stride)
        valid_mask = np.zeros(MVL, dtype=bool)
        valid_mask[valid] = True
        slices = []
        for group in schedule:
            keep = group[valid_mask[group]]
            if len(keep) == 0:
                continue
            slices.append(self._new_slice(keep, paddrs[keep],
                                          quadwords=len(keep), tag=tag))
        self.counters.add("reordered_plans")
        # short vectors still pay the full 8 address-generation cycles
        return AccessPlan("reordered", is_write, False, slices,
                          addr_gen_cycles=float(MVL // SLICE_SIZE),
                          tlb_penalty=tlb_penalty, quadwords=len(valid))

    def _plan_cr(self, instr, valid, paddrs, is_write, tlb_penalty,
                 tag: str) -> AccessPlan:
        slices, cr_cycles = self.crbox.pack(valid, paddrs[valid], tag=tag)
        # renumber to keep slice ids unique across both allocators
        for s in slices:
            s.slice_id = self._next_slice_id
            self._next_slice_id += 1
        self.counters.add("cr_plans")
        return AccessPlan("cr", is_write, False, slices,
                          addr_gen_cycles=max(cr_cycles, 1.0),
                          tlb_penalty=tlb_penalty, quadwords=len(valid))

    # -- the plan cache ---------------------------------------------------------

    def invalidate_plans(self) -> None:
        """Drop every cached plan (setvl/setvs/setvm executed).

        The cache key includes vl/vs/vm so stale hits are impossible
        even without this, but explicit invalidation keeps the cache
        from accumulating dead keys across control-register phases.
        """
        if self._plan_cache:
            self._plan_cache.clear()
            self._seeded.clear()
            self.counters.add("plan_cache_invalidations")

    def _plan_key(self, instr: Instruction, state: ArchState,
                  base: int) -> tuple:
        return (instr.op, instr.tag, instr.is_prefetch, instr.masked,
                state.ctrl.vl, state.ctrl.vs, base % BANK_PERIOD,
                state.ctrl.vm.tobytes() if instr.masked else None)

    def _replay_plan(self, entry: _CachedPlan, base: int) -> AccessPlan | None:
        """Rebase a cached plan to ``base``; None if no longer valid.

        Validity is exactly the vtlb fast-path condition the entry was
        built under: every page the rebased access touches must still be
        identity-mapped and resident in every lane.  Anything else (TLB
        shootdown, page-table holes) falls back to the build path.

        Only ``touched`` and the line view's ``lines`` depend on the
        base, so a replay rebases those two and builds no slices: the
        plan shares the entry's template slices and records the byte
        ``delta`` from them (see :class:`AccessPlan`).
        """
        hot = self.vtlb._hot_identity_vpns
        if not hot:
            return None
        delta = base - entry.base
        if delta == 0:
            touched_arr = entry.touched
        else:
            touched_arr = entry.touched + np.uint64(delta & _M64)
        shift = self.vtlb.page_table.page_shift
        lo_page = int(touched_arr[0]) >> shift
        hi_page = int(touched_arr[-1]) >> shift
        if lo_page == hi_page:
            # strided addresses are monotonic, so first/last bound the
            # span; one page (512 MB pages!) is the overwhelming case
            if lo_page not in hot:
                return None
        elif not {a >> shift for a in touched_arr.tolist()} <= hot:
            return None
        # replicate the counters the build path would have produced
        # (hit/miss accounting happens in plan(), which knows whether
        # the entry was seeded)
        self.counters.add(_KIND_COUNTER[entry.kind])
        self.vtlb.counters.add("hits", entry.n_valid)
        if delta == 0:
            touched = entry.touched_tuple
            lines = entry.lines
        else:
            touched = tuple(touched_arr.tolist())
            lines = [line + delta for line in entry.lines]
        return AccessPlan(entry.kind, entry.is_write, entry.is_prefetch,
                          entry.slices, addr_gen_cycles=entry.addr_gen_cycles,
                          tlb_penalty=0.0, quadwords=entry.quadwords,
                          touched=touched, lines=lines,
                          last_ref=entry.last_ref, n_refs=entry.n_refs,
                          widest=entry.widest, delta=delta)

    def _store_plan(self, key: tuple, plan: AccessPlan, base: int,
                    n_valid: int) -> None:
        if len(self._plan_cache) >= _PLAN_CACHE_MAX:
            self._plan_cache.clear()
            self._seeded.clear()
        self._seeded.discard(key)
        self._plan_cache[key] = _CachedPlan(
            plan.kind, plan.is_write, plan.is_prefetch, base, n_valid,
            plan.addr_gen_cycles, plan.quadwords,
            np.array(plan.touched, dtype=np.uint64), plan.touched,
            list(plan.slices), plan.lines, plan.last_ref, plan.n_refs,
            plan.widest)

    # -- entry point ------------------------------------------------------------

    def plan(self, instr: Instruction, state: ArchState) -> AccessPlan:
        """Build (or replay) the slice plan for one SM/RM instruction."""
        d = instr.definition
        if not d.is_memory or d.group not in (Group.SM, Group.RM):
            raise ValueError(f"plan() needs a vector memory instruction, "
                             f"got {instr.op}")
        key = None
        if not d.is_indexed:
            base = (state.sregs.read(instr.rb) + instr.disp) & _M64
            key = self._plan_key(instr, state, base)
            entry = self._plan_cache.get(key)
            if entry is not None:
                plan = self._replay_plan(entry, base)
                if plan is not None:
                    if key in self._seeded:
                        # first use of a cross-run seeded entry: count
                        # the miss the build path would have produced
                        self._seeded.discard(key)
                        self.counters.add("plan_cache_misses")
                    else:
                        self.counters.add("plan_cache_hits")
                    if self.trace is not None:
                        self.trace.append((instr, plan.touched))
                    return plan
            self.counters.add("plan_cache_misses")
        valid = self._valid_elements(instr, state)
        is_write = d.is_store
        if len(valid) == 0:
            if self.trace is not None:
                self.trace.append((instr, ()))
            return AccessPlan("empty", is_write, instr.is_prefetch)

        if d.is_indexed:
            vaddrs = indexed_addresses(instr, state)
        else:
            vaddrs = strided_addresses(instr, state)
        # only the active elements' addresses are generated and translated;
        # page size (512 MB) >> bank period, so translation never changes
        # bank bits and the reorder classification can use virtual addresses
        paddrs = vaddrs.copy()
        translated, tlb_penalty = self.vtlb.translate_elements(
            valid, vaddrs[valid], ignore_misses=instr.is_prefetch)
        paddrs[valid] = translated

        tag = instr.tag
        if d.is_indexed:
            plan = self._plan_cr(instr, valid, paddrs, is_write,
                                 tlb_penalty, tag)
        elif state.ctrl.vs == 8 and self.pump_enabled:
            plan = self._plan_pump(instr, valid, paddrs, is_write,
                                   tlb_penalty, tag)
        elif is_reorderable(int(vaddrs[0]), state.ctrl.vs):
            plan = self._plan_reordered(instr, state, valid, paddrs,
                                        is_write, tlb_penalty, tag)
        else:
            # self-conflicting stride: run through the CR box like a gather
            self.counters.add("self_conflicting_strides")
            plan = self._plan_cr(instr, valid, paddrs, is_write,
                                 tlb_penalty, tag)
        plan.is_prefetch = instr.is_prefetch
        plan.touched = tuple(paddrs[valid].tolist())
        plan.lines, plan.last_ref, plan.n_refs, plan.widest = \
            _line_view(plan.slices)
        if key is not None and plan.kind in _KIND_COUNTER \
                and plan.tlb_penalty == 0.0 and self.vtlb.last_fast_path:
            self._store_plan(key, plan, base, len(valid))
        if self.trace is not None:
            self.trace.append((instr, plan.touched))
        return plan
