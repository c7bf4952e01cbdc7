"""Suite x Instance matrix: the declarative shape of an evaluation.

The paper's evaluation is one fixed set of 19 kernels run on a handful
of machines.  This module lifts that shape into first-class objects so
new benchmark families and machine families compose without forking the
harness (ROADMAP item 4, mirroring the ``target.py``/``instance.py``
split of instrumentation-infra):

* :class:`Suite` — a named, ordered, duplicate-free collection of
  workload *names* with provenance metadata.  It subclasses ``tuple``,
  so every consumer of the old module-level name tuples
  (``FIGURE_SUITE``, ``TABLE4_SUITE``) keeps working unchanged.
* :class:`Instance` — one named machine point: a base
  :class:`~repro.core.config.MachineConfig` name plus overrides and a
  problem-scale factor.
* :class:`InstanceFamily` — a named, ordered collection of instances
  (the machine axis of a sweep: baselines, frequency scaling, ...).
* :class:`Matrix` — suite x family, expanded into the frozen
  :class:`~repro.harness.engine.ExperimentSpec` grid the engine
  already executes, in deterministic workload-major order.

Registries (:data:`SUITES`, :data:`FAMILIES`) let the CLI enumerate
what exists (``repro list-suites``) and resolve ``--suite``/
``--instances`` flags; ``repro.workloads.registry`` registers the
shipped suites at import time.  docs/WORKLOADS.md documents the model.
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Optional, Union

from repro.core.config import CONFIGURATIONS
from repro.errors import ConfigError


class Suite(tuple):
    """A named, ordered collection of workload names.

    ``Suite`` *is* a tuple of names — iteration, indexing, ``in``,
    ``len`` and equality all behave exactly like the bare tuples the
    harness used to hard-code, which is what keeps the refactor
    byte-identical — plus a name, a human title and provenance (where
    the suite's composition comes from).
    """

    name: str
    title: str
    source: str

    def __new__(cls, name: str, workloads: Iterable[str],
                title: str = "", source: str = "") -> "Suite":
        names = tuple(workloads)
        seen: set[str] = set()
        for w in names:
            if w in seen:
                raise ConfigError(f"suite {name!r}: duplicate workload {w!r}")
            seen.add(w)
        if not names:
            raise ConfigError(f"suite {name!r}: no workloads")
        self = super().__new__(cls, names)
        self.name = name
        self.title = title or name
        self.source = source
        return self

    @property
    def workloads(self) -> tuple[str, ...]:
        return tuple(self)

    def validate(self, registry: Mapping[str, object]) -> "Suite":
        """Check every member is a registered workload; returns self."""
        for w in self:
            if w not in registry:
                raise ConfigError(
                    f"suite {self.name!r}: unknown workload {w!r}")
        return self

    def __repr__(self) -> str:
        return f"<Suite {self.name}: {len(self)} workload(s)>"

    def __reduce__(self):
        return (Suite, (self.name, tuple(self), self.title, self.source))


@dataclass(frozen=True)
class Instance:
    """One machine/config/scale point of the instance axis.

    ``config`` names a base :class:`MachineConfig`; ``overrides`` are
    ``(field, value)`` replacements (the engine's only sanctioned way to
    vary a machine); ``scale_factor`` multiplies every workload's
    problem scale, so one family can hold e.g. an L2-resident and a
    4x memory-resident point of the same machine.
    """

    name: str
    config: str = "T"
    scale_factor: float = 1.0
    overrides: tuple = ()
    apply_l2_hint: bool = True

    def __post_init__(self) -> None:
        if self.config not in CONFIGURATIONS:
            known = ", ".join(sorted(CONFIGURATIONS))
            raise ConfigError(
                f"instance {self.name!r}: unknown configuration "
                f"{self.config!r}; known: {known}")
        if self.scale_factor <= 0:
            raise ConfigError(
                f"instance {self.name!r}: scale_factor must be positive")


class InstanceFamily(tuple):
    """A named, ordered collection of :class:`Instance` points."""

    name: str
    description: str

    def __new__(cls, name: str, instances: Iterable[Instance],
                description: str = "") -> "InstanceFamily":
        members = tuple(instances)
        if not members:
            raise ConfigError(f"instance family {name!r}: no instances")
        seen: set[str] = set()
        for inst in members:
            if not isinstance(inst, Instance):
                raise ConfigError(
                    f"instance family {name!r}: {inst!r} is not an Instance")
            if inst.name in seen:
                raise ConfigError(
                    f"instance family {name!r}: duplicate instance "
                    f"{inst.name!r}")
            seen.add(inst.name)
        self = super().__new__(cls, members)
        self.name = name
        self.description = description
        return self

    @classmethod
    def of_configs(cls, name: str, configs: Iterable[str],
                   description: str = "") -> "InstanceFamily":
        """A family with one default instance per named configuration."""
        return cls(name, (Instance(cfg, config=cfg) for cfg in configs),
                   description=description)

    @property
    def instance_names(self) -> tuple[str, ...]:
        return tuple(inst.name for inst in self)

    def __repr__(self) -> str:
        return f"<InstanceFamily {self.name}: {self.instance_names}>"

    def __reduce__(self):
        return (InstanceFamily, (self.name, tuple(self), self.description))


#: per-kernel problem scale, a uniform scale, or None (workload default)
Scales = Union[None, float, Mapping[str, float]]


@dataclass
class Matrix:
    """Suite x InstanceFamily, expanded to the engine's spec grid.

    Expansion is deterministic and workload-major: all instances of the
    suite's first workload, then all instances of the second, ... — the
    exact order the figure generators have always used, so parallel and
    serial grid runs stay byte-identical.

    ``scales`` resolves each workload's problem scale: a mapping gives
    per-kernel scales (missing names fall back to the workload's
    ``default_scale``), a float applies uniformly, ``None`` uses every
    workload's default.  The instance's ``scale_factor`` and the
    ``quick`` quarter-factor multiply on top.
    """

    suite: Suite
    family: InstanceFamily
    scales: Scales = None
    quick: bool = False
    check: bool = False
    mode: str = "auto"
    #: optional per-cell spec customization: ``(spec, workload, instance)
    #: -> spec`` applied after expansion (Table 4 uses it for drain
    #: accounting and footprint-ratio overrides)
    adjust: Optional[Callable] = field(default=None, repr=False)

    def scale_for(self, workload: str, instance: Instance) -> float:
        if isinstance(self.scales, Mapping):
            base = self.scales.get(workload)
        elif self.scales is not None:
            base = float(self.scales)
        else:
            base = None
        if base is None:
            from repro.workloads.registry import get

            base = get(workload).default_scale
        return base * instance.scale_factor * (0.25 if self.quick else 1.0)

    def cells(self) -> list[tuple[str, Instance, "ExperimentSpec"]]:
        """The expanded grid: ``(workload, instance, spec)`` triples."""
        from repro.harness.engine import ExperimentSpec

        out = []
        for workload in self.suite:
            for instance in self.family:
                spec = ExperimentSpec(
                    workload, instance.config,
                    self.scale_for(workload, instance),
                    overrides=instance.overrides, check=self.check,
                    apply_l2_hint=instance.apply_l2_hint, mode=self.mode)
                if self.adjust is not None:
                    spec = self.adjust(spec, workload, instance)
                out.append((workload, instance, spec))
        return out

    def specs(self) -> list["ExperimentSpec"]:
        return [spec for _, _, spec in self.cells()]

    def run(self, jobs: int = 1, cache=None,
            pool=None) -> dict[str, dict[str, object]]:
        """Execute the grid; returns ``outcome[workload][instance.name]``.

        Dispatches through :func:`repro.harness.engine.execute_many`,
        so deduplication, process fan-out, caching and cell-failure
        capture all apply.  ``pool`` passes straight through: a
        prebuilt backend (chaos drills).
        """
        from repro.harness.engine import execute_many

        cells = self.cells()
        outcomes = execute_many([spec for _, _, spec in cells],
                                jobs=jobs, cache=cache, pool=pool)
        table: dict[str, dict[str, object]] = {}
        for (workload, instance, _), outcome in zip(cells, outcomes):
            table.setdefault(workload, {})[instance.name] = outcome
        return table


# -- registries ------------------------------------------------------------


#: every registered suite, keyed by name (registration order preserved)
SUITES: dict[str, Suite] = {}

#: every registered instance family, keyed by name
FAMILIES: dict[str, InstanceFamily] = {}


def register_suite(suite: Suite) -> Suite:
    """Add ``suite`` to :data:`SUITES`; re-registering a name is an error."""
    if suite.name in SUITES:
        raise ConfigError(f"suite {suite.name!r} already registered")
    SUITES[suite.name] = suite
    return suite


def register_family(family: InstanceFamily) -> InstanceFamily:
    if family.name in FAMILIES:
        raise ConfigError(f"instance family {family.name!r} already registered")
    FAMILIES[family.name] = family
    return family


def _suggest(name: str, known: Iterable[str], kind: str) -> KeyError:
    lines = [f"unknown {kind} {name!r}"]
    close = difflib.get_close_matches(name, sorted(known), n=3)
    if close:
        lines.append(f"did you mean: {', '.join(close)}?")
    lines.append(f"known {kind}s: " + ", ".join(sorted(known)))
    return KeyError("; ".join(lines))


def get_suite(name: str) -> Suite:
    """Look up one registered suite; misses suggest close matches."""
    try:
        return SUITES[name]
    except KeyError:
        raise _suggest(name, SUITES, "suite") from None


def get_family(name: str) -> InstanceFamily:
    """Look up one registered instance family, with suggestions."""
    try:
        return FAMILIES[name]
    except KeyError:
        raise _suggest(name, FAMILIES, "instance family") from None


def list_suites() -> list[Suite]:
    """Every registered suite, in registration order."""
    return list(SUITES.values())


def list_families() -> list[InstanceFamily]:
    return list(FAMILIES.values())


# -- the shipped instance families -----------------------------------------

register_family(InstanceFamily(
    "default", (Instance("T", config="T"),),
    description="the Tarantula machine at each workload's default scale"))

register_family(InstanceFamily.of_configs(
    "baselines", ("T", "EV8", "EV8+"),
    description="Tarantula vs the scalar EV8/EV8+ baselines (Figure 7)"))

register_family(InstanceFamily.of_configs(
    "scaling", ("T", "T4", "T10"),
    description="frequency scaling: 2.13 / 4.8 / 10.66 GHz (Figure 8)"))

register_family(InstanceFamily.of_configs(
    "pump", ("T", "T-nopump"),
    description="stride-1 double-bandwidth PUMP ablation (Figure 9)"))
