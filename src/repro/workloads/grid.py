"""Scenario grids: the unit of work of the parallel sweep runner.

The paper's results are all *sweeps* — RBER vs. read counts, Vpass
sweeps, refresh/reclaim ablations — i.e. many independent simulations
that differ only in workload, geometry, policy, or seed.  This module
gives that campaign shape a first-class, picklable description:

- a :class:`Scenario` is one fully specified engine run (trace x
  geometry x policy x backend x seed), identified by a stable
  human-readable :attr:`~Scenario.scenario_id`;
- a :class:`ScenarioGrid` is the cartesian product of the swept axes,
  expanded deterministically into scenarios.

Every field is a frozen dataclass of plain values, so a scenario can be
shipped to a worker process unchanged, and every RNG stream a scenario
consumes is derived from the grid's root seed and the scenario id via
:func:`repro.rng.spawn_key` — never from worker identity or execution
order.  That is what makes ``workers=N`` sweeps bit-identical to serial
execution (see :mod:`repro.parallel`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from repro.rng import spawn_key
from repro.units import VPASS_NOMINAL
from repro.workloads.synthetic import WorkloadSpec


def _non_default(spec, name: str) -> bool:
    """True when field *name* differs from its dataclass default.

    Axis labels suffix exactly the non-default knobs; comparing against
    the dataclass defaults themselves (not restated literals) keeps
    labels — and the scenario ids and RNG seeds derived from them —
    from silently drifting if a default ever changes.
    """
    default = next(f.default for f in fields(spec) if f.name == name)
    return getattr(spec, name) != default


# SsdConfig lives in the controller layer; importing it here would invert
# the layering (controller already imports workloads), so geometry rides
# through the grid as plain numbers and the engine factory
# (repro.controller.factory) turns them into an SsdConfig.


@dataclass(frozen=True)
class GeometrySpec:
    """Drive geometry axis of a grid (mirrors ``SsdConfig``)."""

    blocks: int = 256
    pages_per_block: int = 256
    overprovision: float = 0.07
    gc_threshold_blocks: int = 2

    @property
    def label(self) -> str:
        """Stable axis label used inside scenario ids.

        Every field that distinguishes two specs appears in the label
        (non-default knobs as suffixes), so distinct geometries can
        never produce colliding scenario ids.
        """
        label = f"{self.blocks}x{self.pages_per_block}"
        if _non_default(self, "overprovision"):
            label += f"-op{self.overprovision:g}"
        if _non_default(self, "gc_threshold_blocks"):
            label += f"-gc{self.gc_threshold_blocks}"
        return label


@dataclass(frozen=True)
class PolicySpec:
    """Maintenance-policy axis of a grid.

    *name* is the human-readable prefix of the axis label; two specs
    with the same knobs but different names are distinct scenarios
    (useful for ablation rows that should keep their table labels), and
    two specs with the same name but different knobs are *also*
    distinct — every non-default knob appears in :attr:`label`.
    """

    name: str = "baseline"
    refresh_interval_days: float = 7.0
    read_reclaim_threshold: int | None = None
    maintenance_period_days: float = 1.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("policy needs a non-empty name")

    @property
    def label(self) -> str:
        """Stable, collision-free axis label (name + non-default knobs)."""
        label = self.name
        if _non_default(self, "refresh_interval_days"):
            label += f"-rf{self.refresh_interval_days:g}"
        if self.read_reclaim_threshold is not None:
            label += f"-rc{self.read_reclaim_threshold}"
        if _non_default(self, "maintenance_period_days"):
            label += f"-mp{self.maintenance_period_days:g}"
        return label


@dataclass(frozen=True)
class BackendSpec:
    """Physics-backend axis of a grid.

    ``kind="counter"`` is the fast bookkeeping-only backend;
    ``kind="flash_chip"`` binds every touched block to a Monte-Carlo
    :class:`~repro.flash.block.FlashBlock` (ECC + RDR in the loop; the
    one ECC rule is the 1e-3 envelope of :mod:`repro.ecc`).  The
    flash-chip knobs are ignored by the counter backend.
    """

    kind: str = "counter"
    bitlines_per_block: int = 2048
    initial_pe_cycles: int = 0
    vpass: float = VPASS_NOMINAL

    _KINDS = ("counter", "flash_chip")

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise ValueError(
                f"unknown backend kind {self.kind!r}; expected one of {self._KINDS}"
            )

    @property
    def label(self) -> str:
        """Stable axis label: kind, plus the flash-chip knobs when they
        differ from the defaults (the counter backend ignores them, so
        they never enter a counter label)."""
        if self.kind == "counter":
            return self.kind
        label = self.kind
        if _non_default(self, "bitlines_per_block"):
            label += f"-bl{self.bitlines_per_block}"
        if _non_default(self, "initial_pe_cycles"):
            label += f"-pe{self.initial_pe_cycles}"
        if _non_default(self, "vpass"):
            label += f"-vp{self.vpass:g}"
        return label


@dataclass(frozen=True)
class Scenario:
    """One fully specified simulation: the sweep runner's unit of work.

    A scenario is pure data (picklable, hashable) and carries everything
    a worker needs to rebuild the run from scratch: the workload spec,
    trace duration, geometry, policy, backend, and the seed derivation
    inputs.  Execution lives in :func:`repro.controller.factory.run_scenario`.
    """

    workload: WorkloadSpec
    duration_days: float = 1.0
    geometry: GeometrySpec = field(default_factory=GeometrySpec)
    policy: PolicySpec = field(default_factory=PolicySpec)
    backend: BackendSpec = field(default_factory=BackendSpec)
    #: position on the grid's seed axis (replicas of the same cell).
    seed_index: int = 0
    #: the grid's root seed; all RNG streams derive from it + scenario_id.
    root_seed: int = 0
    #: record a per-maintenance-window trajectory in the result.
    record_trajectory: bool = False

    def __post_init__(self) -> None:
        if self.duration_days <= 0:
            raise ValueError("scenario duration must be positive")
        if self.seed_index < 0:
            raise ValueError("seed index cannot be negative")

    @property
    def scenario_id(self) -> str:
        """Stable identifier: one axis label per grid dimension.

        The id is what failures report, what results are keyed and
        merged by, and one of the inputs every derived seed mixes in —
        so it must (and does) not depend on grid order or worker
        placement.  Axis labels include every distinguishing spec field
        (non-default knobs as suffixes), so two scenarios that can
        behave differently always carry different ids — a Vpass or
        overprovision sweep keys as cleanly as a workload sweep.
        """
        return "/".join(
            (
                self.workload.name,
                f"d{self.duration_days:g}",
                self.geometry.label,
                self.policy.label,
                self.backend.label,
                f"s{self.seed_index}",
            )
        )

    def derived_seed(self, component: str) -> int:
        """Deterministic seed for one of the scenario's RNG consumers.

        Mixes ``(root_seed, scenario_id, component)`` through
        :func:`repro.rng.spawn_key`; independent scenarios (and
        independent components of one scenario) get independent streams
        regardless of where or in which order they execute.
        """
        return spawn_key(self.root_seed, self.scenario_id, component)

    @property
    def workload_seed(self) -> int:
        """Seed of the synthetic trace generator."""
        return self.derived_seed("workload")

    @property
    def backend_seed(self) -> int:
        """Seed of the physics backend (cell arrays, programmed data)."""
        return self.derived_seed("backend")


@dataclass(frozen=True)
class ScenarioGrid:
    """Cartesian scenario product: workloads x geometry x policy x backend x seeds.

    Expansion order is deterministic (workload-major, seed-minor), but
    nothing downstream depends on it: results are merged by scenario id,
    so a shuffled scenario list produces an identical report.
    """

    workloads: tuple[WorkloadSpec, ...]
    geometries: tuple[GeometrySpec, ...] = (GeometrySpec(),)
    policies: tuple[PolicySpec, ...] = (PolicySpec(),)
    backends: tuple[BackendSpec, ...] = (BackendSpec(),)
    seeds: int = 1
    duration_days: float = 1.0
    root_seed: int = 0
    record_trajectory: bool = False

    def __post_init__(self) -> None:
        if not self.workloads:
            raise ValueError("grid needs at least one workload")
        if not self.geometries or not self.policies or not self.backends:
            raise ValueError("every grid axis needs at least one entry")
        if self.seeds < 1:
            raise ValueError("grid needs at least one seed")
        # Axis labels are what scenario ids (and derived seeds) key on,
        # so entries on one axis must label distinctly.  Catch the
        # collision here, at construction, rather than as a late
        # duplicate-id error from the runner.
        for axis, labels in (
            ("workloads", [w.name for w in self.workloads]),
            ("geometries", [g.label for g in self.geometries]),
            ("policies", [p.label for p in self.policies]),
            ("backends", [b.label for b in self.backends]),
        ):
            if len(set(labels)) != len(labels):
                raise ValueError(
                    f"{axis} axis entries must have distinct labels, got {labels}"
                )

    def __len__(self) -> int:
        return (
            len(self.workloads)
            * len(self.geometries)
            * len(self.policies)
            * len(self.backends)
            * self.seeds
        )

    def scenarios(self) -> list[Scenario]:
        """Expand the grid into its scenario list (ids are unique)."""
        out = []
        for workload in self.workloads:
            for geometry in self.geometries:
                for policy in self.policies:
                    for backend in self.backends:
                        for seed_index in range(self.seeds):
                            out.append(
                                Scenario(
                                    workload=workload,
                                    duration_days=self.duration_days,
                                    geometry=geometry,
                                    policy=policy,
                                    backend=backend,
                                    seed_index=seed_index,
                                    root_seed=self.root_seed,
                                    record_trajectory=self.record_trajectory,
                                )
                            )
        return out

    def __iter__(self):
        return iter(self.scenarios())
