"""Banked L2 cache: the heart of Tarantula's memory system (section 3.4).

The Vbox talks to the L2 in *slices* — groups of up to 16 addresses that
are bank-conflict-free, so the 16 banks can cycle in parallel and return
one quadword each per cycle.  Stride-1 slices set the "pump" bit and
move whole cache lines through the PUMP streaming registers instead.
A vector instruction hands over all of its (at most 8) slices in one
call, :meth:`BankedL2.access_plan`.

This model tracks real tag state (so hit ratios, evictions, writebacks
and P-bit traffic are all emergent), and schedules time with resource
reservation:

* one slice lookup per cycle through the L2 pipe (``slice_port``);
* misses allocate a MAF entry, sleep until the Zbox delivers every
  missing line, then *retry* down the pipe (second tag walk);
* full-line pump stores take the directory Invalid->Dirty path instead
  of a read fill (the ``wh64``-style allocation STREAMS copy depends on);
* vector touches to P-bit lines trigger L1 invalidates (scalar-vector
  coherency, section 3.4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from repro.errors import ConfigError, SimulationError
from repro.mem.banks import make_tag_cache
from repro.mem.l1cache import L1DataCache
from repro.mem.maf import MissAddressFile
from repro.mem.pump import PumpUnit
from repro.mem.zbox import Zbox
from repro.utils.bitops import line_address
from repro.utils.stats import Counter
from repro.utils.timeline import CalendarTimeline

#: Hard bound on replay loops; the paper's panic mode guarantees forward
#: progress, so exceeding this means a model bug, not a workload property.
MAX_REPLAYS = 64


@dataclass
class L2Config:
    """L2 geometry and pipe latencies (Table 3 derived)."""

    capacity_bytes: int = 16 << 20
    ways: int = 8
    line_bytes: int = 64
    n_banks: int = 16
    #: cycles from slice lookup to data at the Vbox (hit)
    hit_latency: float = 20.0
    #: extra pipe cycles for the second (retry) tag walk
    retry_penalty: float = 4.0
    #: cycles to invalidate / write-through an L1 line on a P-bit hit
    l1_invalidate_penalty: float = 6.0
    maf_entries: int = 32
    replay_threshold: int = 8

    def __post_init__(self) -> None:
        if self.capacity_bytes % (self.ways * self.line_bytes):
            raise ConfigError("L2 capacity not divisible by ways*line")


class BankedL2:
    """The 16-bank L2 with MAF, PUMP and P-bit coherency."""

    def __init__(self, config: L2Config | None = None,
                 zbox: Zbox | None = None,
                 pump: PumpUnit | None = None,
                 l1: Optional[L1DataCache] = None) -> None:
        self.config = config or L2Config()
        self.zbox = zbox or Zbox()
        self.pump = pump or PumpUnit()
        self.l1 = l1
        self.tags = make_tag_cache(self.config.capacity_bytes, self.config.ways,
                                   self.config.line_bytes, name="L2")
        self.maf = MissAddressFile(self.config.maf_entries,
                                   self.config.replay_threshold)
        # slice lookups arrive out of order (retry walks wake long after
        # younger first walks), so the port must be able to backfill
        self.slice_port = CalendarTimeline("l2-slice-port")
        #: line address -> time its in-flight fill arrives; accesses that
        #: "hit" such a line sleep in the MAF until then (miss merging)
        self._fill_ready: dict[int, float] = {}
        #: latest arrival ever recorded in _fill_ready; once the clock
        #: passes it no entry can delay anything, so the per-line probe
        #: short-circuits (the steady state between miss bursts)
        self._fill_watermark = 0.0
        #: amortized pruning bound for _fill_ready; doubles whenever a
        #: prune fails to reclaim half the dict, so a large steady-state
        #: working set never degrades into an O(n) rebuild per slice
        self._fill_prune_threshold = 1 << 15
        #: bound fast-probe of the numpy tag model (None on the
        #: reference model, which then always takes the general path)
        self._tags_all_hit = getattr(self.tags, "access_all_hit", None)
        self.counters = Counter()

    # -- warmup helpers (no timing effects) ----------------------------------

    def warm(self, addrs: Iterable[int], dirty: bool = False,
             from_core: bool = False) -> None:
        """Preload lines into the tags (e.g. 'prefetched into L2')."""
        lines = np.fromiter((line_address(a) for a in addrs),
                            dtype=np.uint64)
        # chunked batched walk: consecutive-line warms stay conflict-free
        # inside a 4K chunk, anything stranger falls back sequentially
        # inside access_many
        chunk = 4096
        for start in range(0, lines.size, chunk):
            self.tags.access_many(lines[start:start + chunk],
                                  is_write=dirty, from_core=from_core)

    def warm_range(self, base: int, nbytes: int) -> None:
        """Warm every line overlapping [base, base+nbytes).

        Both bounds are line-aligned explicitly, so a non-line-aligned
        end still warms the final partially-covered line.
        """
        if nbytes <= 0:
            return
        line = self.config.line_bytes
        end = line_address(base + nbytes - 1) + line
        self.warm(range(line_address(base), end, line))

    # -- internal pieces -------------------------------------------------------

    def _handle_eviction(self, eviction, now: float) -> None:
        if eviction is None:
            return
        if eviction.pbit and self.l1 is not None:
            # evicting a P-bit line sends an invalidate to the EV8 core
            self.l1.invalidate(eviction.addr)
            self.counters.add("evict_invalidates")
        if eviction.dirty:
            self.zbox.writeback_line(eviction.addr, now)

    def _pbit_coherency(self, lines: list[int], now: float) -> float:
        """Vector touch of P-bit lines: L1 invalidate / write-through.

        Returns the extra delay added to this slice.
        """
        hot = self.tags.pbit_lines(lines)
        if not hot:
            return 0.0
        for addr in hot:
            self.counters.add("pbit_hits")
            if self.l1 is not None:
                self.l1.invalidate(addr)
        self.tags.clear_pbits(hot)
        return self.config.l1_invalidate_penalty

    def _probe(self, lines: list[int], is_write: bool,
               from_core: bool, now: float) -> list[int]:
        """Tag-walk all lines, allocating on miss; returns missing lines."""
        hits, evictions = self.tags.access_many(lines, is_write=is_write,
                                                from_core=from_core)
        for eviction in evictions:
            if eviction is not None:
                self._handle_eviction(eviction, now)
        missing = [addr for addr, hit in zip(lines, hits) if not hit]
        n_hits = len(lines) - len(missing)
        if n_hits:
            self.counters.add("line_hits", n_hits)
        if missing:
            self.counters.add("line_misses", len(missing))
        return missing

    def _fetch_missing(self, missing: list[int], full_line_write: bool,
                       earliest: float) -> float:
        """Schedule Zbox traffic for the missing lines; returns wake time.

        Each line's individual arrival time is recorded so later slices
        that touch a still-in-flight line sleep until it lands (the MAF
        miss-merge behavior) instead of hitting for free.
        """
        wake = earliest
        fills = self._fill_ready
        if full_line_write:
            for addr in missing:
                ready = self.zbox.dirty_transition(addr, earliest)
                fills[addr] = ready
                if ready > wake:
                    wake = ready
        else:
            for addr in missing:
                ready = self.zbox.fill_line(addr, earliest)
                fills[addr] = ready
                if ready > wake:
                    wake = ready
        if wake > self._fill_watermark:
            self._fill_watermark = wake
        if len(self._fill_ready) > self._fill_prune_threshold:
            before = len(self._fill_ready)
            self._fill_ready = {a: t for a, t in self._fill_ready.items()
                                if t > earliest}
            pruned = before - len(self._fill_ready)
            if pruned:
                self.counters.add("fill_ready_pruned", pruned)
            if len(self._fill_ready) > self._fill_prune_threshold >> 1:
                self._fill_prune_threshold <<= 1
        return wake

    def _pending_fills(self, lines: list[int], now: float) -> float:
        """Latest in-flight fill among ``lines`` arriving after ``now``."""
        fills = self._fill_ready
        if not fills or self._fill_watermark <= now:
            return now
        latest = now
        for addr in lines:
            t = fills.get(addr)
            if t is not None and t > latest:
                latest = t
        return latest

    # -- the vector slice path --------------------------------------------------

    def access_slice(self, line_addrs: Iterable[int], quadwords: int,
                     is_write: bool, earliest: float,
                     pump_bit: bool = False,
                     full_line_write: bool = False,
                     canonical: bool = False) -> float:
        """One slice walks the L2 pipe; returns data-delivered time.

        ``line_addrs`` are the (<=16, bank-conflict-free) line addresses
        the slice touches; ``quadwords`` is the element count it moves
        (used for PUMP streaming occupancy).  ``full_line_write`` marks
        pump stores that overwrite whole lines and may therefore take
        the directory-transition path instead of a read fill.
        ``canonical=True`` promises ``line_addrs`` is already a sorted
        list of distinct line-aligned addresses (what
        :meth:`~repro.vbox.slices.Slice.line_addresses` returns) and
        skips re-canonicalizing it.

        This is the general walk: misses, miss merges into in-flight
        fills, P-bit invalidates and MAF retries all happen here.  A
        vector instruction reaches it through :meth:`access_plan`,
        whose fallback calls it once per slice.
        """
        if canonical:
            lines = line_addrs
        else:
            lines = sorted({line_address(a) for a in line_addrs})
        if len(lines) > self.config.n_banks:
            raise SimulationError(
                f"slice touches {len(lines)} lines > {self.config.n_banks} banks")
        self.counters.add("slices")
        if pump_bit:
            self.counters.add("pump_slices")

        t_lookup = self.slice_port.reserve(earliest, 1.0)
        # steady-state fast lane: no P-bit among these lines, no fill
        # still in flight, every line resident — one fused probe replaces
        # the pbit/probe/pending walk (bit-identical state and counters)
        fast = self._tags_all_hit
        if (fast is not None and self._fill_watermark <= t_lookup
                and not self.tags.pbit_lines(lines)
                and fast(lines, is_write)):
            self.counters.add("line_hits", len(lines))
            t_data = t_lookup + self.config.hit_latency
            if pump_bit and self.pump.enabled:
                return self.pump.stream(quadwords, is_write, t_data)
            return t_data
        delay = self._pbit_coherency(lines, t_lookup)
        missing = self._probe(lines, is_write, False, t_lookup)

        pending_until = self._pending_fills(lines, t_lookup)
        if missing or pending_until > t_lookup:
            t_entry = self.maf.earliest_entry(t_lookup)
            if t_entry > t_lookup:
                self.counters.add("maf_stalls")
            entry = self.maf.allocate(t_entry, set(missing))
            wake = self._fetch_missing(missing, full_line_write and is_write,
                                       t_entry)
            # merge with fills already in flight for lines we "hit"
            if pending_until > wake:
                wake = pending_until
            if not missing:
                self.counters.add("miss_merges")
            self.maf.sleep_until(entry, wake)
            # retry walk: the slice goes to the Retry Queue and looks up
            # the tags a second time (section 3.4)
            replays = 0
            t_retry = self.slice_port.reserve(wake, 1.0)
            while True:
                refetch = self.tags.missing_of(missing)
                if not refetch:
                    break
                # a competing access evicted one of our lines before the
                # retry: replay (and possibly panic)
                replays += 1
                if replays > MAX_REPLAYS:
                    raise SimulationError("slice replayed past hard bound")
                self.maf.record_replay(entry)
                for addr in refetch:
                    _, ev = self.tags.access(addr, is_write=is_write)
                    self._handle_eviction(ev, t_retry)
                wake = self._fetch_missing(refetch, False, t_retry)
                t_retry = self.slice_port.reserve(wake, 1.0)
            t_data = t_retry + self.config.retry_penalty + \
                self.config.hit_latency + delay
            self.maf.release(entry, t_data)
        else:
            t_data = t_lookup + self.config.hit_latency + delay

        if pump_bit and self.pump.enabled:
            return self.pump.stream(quadwords, is_write, t_data)
        return t_data

    def access_plan(self, plan, gen_start: float, per_slice: float) -> float:
        """Time one vector memory instruction's slices; returns the
        latest data-delivered time (``gen_start`` if that is later).

        ``plan`` is a :class:`~repro.vbox.address_gen.AccessPlan`.  Its
        slice ``k`` issues at ``gen_start + (k + 1) * per_slice``.

        The *plan path* times every slice with one tag probe over the
        plan's line view.  It runs only when all of these hold at the
        first slice's issue time ``gen_start + per_slice``:

        * the tag model has the all-hit probe;
        * the plan touches a line, and no slice more than ``n_banks``;
        * no plan line has its P-bit set;
        * no plan line has a fill arriving after that time;
        * every plan line is resident.

        While every slice hits, no slice changes residency, P-bits or
        fill times, so checks made once at plan start hold for every
        slice, and the per-slice walk would take its hit path on each.
        The probe leaves each line the LRU stamp that walk leaves, and
        the counters grow by the same totals.  Port and PUMP
        reservations never read tag state; they are still made one
        slice at a time, in slice order, with the walk's arithmetic.

        Otherwise (a miss, a merge into an in-flight fill, a P-bit, an
        over-wide slice) the checks have changed nothing, and the
        per-slice walk (:meth:`access_slice`) runs from slice 0.  Cycles
        and counters are bit-identical either way.
        """
        slices = plan.slices
        lines = plan.lines
        is_write = plan.is_write
        first = gen_start + per_slice
        probe = self._tags_all_hit
        if (probe is not None and 0 < plan.widest <= self.config.n_banks
                and not self.tags.pbit_lines(lines)
                and self._pending_fills(lines, first) <= first
                and probe(lines, is_write, plan.last_ref, plan.n_refs)):
            reserve = self.slice_port.reserve
            hit_latency = self.config.hit_latency
            pump = self.pump if self.pump.enabled else None
            completion = gen_start
            n_pump = 0
            for k, s in enumerate(slices):
                t_data = reserve(gen_start + (k + 1) * per_slice, 1.0) + \
                    hit_latency
                if s.pump:
                    n_pump += 1
                    if pump is not None:
                        t_data = pump.stream(s.quadwords, is_write, t_data)
                if t_data > completion:
                    completion = t_data
            counters = self.counters
            counters.add("slices", len(slices))
            if n_pump:
                counters.add("pump_slices", n_pump)
            counters.add("line_hits", plan.n_refs)
            return completion
        completion = gen_start
        for k, s in enumerate(slices):
            done = self.access_slice(
                plan.slice_lines(k), s.quadwords, is_write,
                gen_start + (k + 1) * per_slice, pump_bit=s.pump,
                full_line_write=s.full_line_write, canonical=True)
            if done > completion:
                completion = done
        return completion

    # -- the scalar (EV8 core) path ------------------------------------------------

    def scalar_access(self, addr: int, is_write: bool,
                      earliest: float) -> tuple[bool, float]:
        """EV8-core load/store probe; sets the P-bit; returns (hit, ready)."""
        line = line_address(addr)
        t_lookup = self.slice_port.reserve(earliest, 1.0)
        hit, eviction = self.tags.access(line, is_write=is_write, from_core=True)
        self._handle_eviction(eviction, t_lookup)
        self.counters.add("scalar_hits" if hit else "scalar_misses")
        if hit:
            ready = max(t_lookup + self.config.hit_latency,
                        self._pending_fills([line], t_lookup))
            return True, ready
        ready = self.zbox.fill_line(line, t_lookup)
        self._fill_ready[line] = ready
        if ready > self._fill_watermark:
            self._fill_watermark = ready
        return False, ready

    def set_pbits(self, line_addrs: Iterable[int]) -> None:
        """DrainM path: mark drained store lines as core-touched."""
        for addr in line_addrs:
            resident = self.tags.lookup(line_address(addr))
            if resident is not None:
                resident.pbit = True
            else:
                # allocate through the normal path so state stays consistent
                _, ev = self.tags.access(line_address(addr), is_write=True,
                                         from_core=True)
                self._handle_eviction(ev, 0.0)
        self.counters.add("drain_pbit_updates")
