"""Span tracing from outside the program: wrap layer entry points by name.

A :class:`Tracer` replaces a function with a wrapper that records one
span per call.  Spans nest through a stack, so each span's *self time*
is its duration minus the time its child spans cover, and the self
times of all spans partition the traced wall time without double
counting.  Aggregates (calls, total, self) are kept in memory per span
name and read out when the run ends.

:data:`TARGETS` lists every wrapped entry point at the site its callers
look it up: a module global for functions called by bare name (the
engine's ``execute``, the JIT runtime's ``compile_region``), the class
attribute for methods, and each registered workload object for
``build``.  A target that no longer exists (a refactor renamed it) is
reported as absent and the run goes on without it.
"""

from __future__ import annotations

import functools
import importlib
import time

#: span -> (module, attribute path, workload the span matters most on);
#: ``*`` in a path means "every value of this dict"
TARGETS = {
    "engine.execute": ("repro.harness.engine", "execute", "sweep-dense"),
    "engine.cache_key": ("repro.harness.engine", "cache_key",
                         "report-warm"),
    "engine.spec_digest": ("repro.harness.engine", "spec_digest",
                           "report-warm"),
    "engine.cache_get": ("repro.harness.engine", "ResultCache.get",
                         "report-warm"),
    "engine.cache_put": ("repro.harness.engine", "ResultCache.put",
                         "report-cold"),
    "workloads.build": ("repro.workloads.registry", "REGISTRY.*.build",
                        "report-warm"),
    "core.step": ("repro.core.processor", "TarantulaProcessor.step",
                  "sweep-irregular"),
    "core.functional_step": ("repro.core.functional",
                             "FunctionalSimulator.step", "sweep-irregular"),
    "core.functional_run": ("repro.core.functional",
                            "FunctionalSimulator.run", "report-cold"),
    "jit.run_timing": ("repro.jit.runtime", "run_timing", "sweep-dense"),
    "jit.compile_region": ("repro.jit.runtime", "compile_region",
                           "sweep-dense"),
    "vbox.plan": ("repro.vbox.address_gen", "AddressGenerators.plan",
                  "sweep-dense"),
    "vbox.crbox_pack": ("repro.vbox.crbox", "ConflictResolutionBox.pack",
                        "sweep-irregular"),
    "vbox.tlb_translate": ("repro.vbox.vtlb",
                           "VectorTLB.translate_elements", "sweep-dense"),
    "vbox.issue_arithmetic": ("repro.vbox.issue",
                              "VboxIssue.issue_arithmetic", "sweep-dense"),
    "mem.l2_access_slice": ("repro.mem.l2cache", "BankedL2.access_slice",
                            "sweep-dense"),
    "mem.l2_scalar_access": ("repro.mem.l2cache", "BankedL2.scalar_access",
                             "sweep-irregular"),
    "mem.tags_access_many": ("repro.mem.banks",
                             "SetAssocCache.access_many", "sweep-dense"),
    "mem.zbox_fill": ("repro.mem.zbox", "Zbox.fill_line", "sweep-dense"),
    "mem.zbox_writeback": ("repro.mem.zbox", "Zbox.writeback_line",
                           "sweep-irregular"),
    "mem.rambus_transaction": ("repro.mem.rambus", "RambusSystem.transaction",
                               "sweep-dense"),
    "scalar.ev8_run": ("repro.scalar.ev8", "EV8Model.run", "report-cold"),
}

#: the child's own import of the package, recorded as a span so the
#: traced wall time is attributed from the first line on
IMPORT_SPAN = "setup.import"

SPANS = (IMPORT_SPAN,) + tuple(TARGETS)


class Tracer:
    """In-memory span aggregates with nesting-aware self time."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        #: span name -> [calls, total seconds, self seconds]
        self.spans: dict[str, list] = {}
        #: per open span, the seconds its finished children covered
        self._open: list[float] = []

    def record(self, name: str, seconds: float) -> None:
        """Add a leaf span measured by the caller (e.g. an import)."""
        agg = self.spans.setdefault(name, [0, 0.0, 0.0])
        agg[0] += 1
        agg[1] += seconds
        agg[2] += seconds
        if self._open:
            self._open[-1] += seconds

    def wrap(self, name: str, fn):
        """``fn`` wrapped so each call records one ``name`` span."""
        agg = self.spans.setdefault(name, [0, 0.0, 0.0])
        open_spans = self._open
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            open_spans.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                children = open_spans.pop()
                agg[0] += 1
                agg[1] += duration
                agg[2] += duration - children
                if open_spans:
                    open_spans[-1] += duration

        return traced

    def install(self, names) -> list:
        """Wrap each named target of :data:`TARGETS`; returns the names
        whose target could not be found (absent, not wrapped)."""
        absent = []
        for name in names:
            module, path, _ = TARGETS[name]
            try:
                sites = _resolve(importlib.import_module(module),
                                 path.split("."))
            except (ImportError, AttributeError):
                absent.append(name)
                continue
            if not sites:
                absent.append(name)
            for owner, attr in sites:
                self._wrap_attr(name, owner, attr)
        return absent

    def _wrap_attr(self, name: str, owner, attr: str) -> None:
        original = getattr(owner, attr)
        if isinstance(owner, type):
            # wrap the plain function so the wrapper binds like a method
            original = owner.__dict__.get(attr, original)
        setattr(owner, attr, self.wrap(name, original))

    def as_dict(self) -> dict:
        return {name: {"calls": calls, "total_s": total, "self_s": own}
                for name, (calls, total, own) in self.spans.items()}


def _resolve(obj, parts) -> list:
    """``(owner, attribute)`` pairs a dotted path names; a ``*`` part
    fans out over a dict's values.  Raises AttributeError when a part
    is missing."""
    head, rest = parts[0], parts[1:]
    if head == "*":
        return [site for value in obj.values()
                for site in _resolve(value, rest)]
    if not rest:
        getattr(obj, head)
        return [(obj, head)]
    return _resolve(getattr(obj, head), rest)
