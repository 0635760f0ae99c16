"""Build and run engines from scenario descriptions.

This is the controller half of the sweep subsystem: it turns a pure-data
:class:`~repro.workloads.grid.Scenario` into a live
:class:`~repro.controller.engine.SimulationEngine` and extracts a
picklable :class:`~repro.parallel.results.ScenarioResult` from the run.
Everything here is deterministic given the scenario: seeds come from the
scenario's spawn keys, never from ambient state, so the same scenario
produces a bit-identical result in any process (the property the sweep
runner's ``workers=1`` vs ``workers=N`` equivalence suite pins).
"""

from __future__ import annotations

from dataclasses import asdict

from repro import obs
from repro.units import SECONDS_PER_DAY
from repro.controller.backends import CounterBackend, FlashChipBackend, PhysicsBackend
from repro.controller.engine import SimulationEngine
from repro.controller.ftl import SsdConfig
from repro.parallel.results import ScenarioResult
from repro.testing.faults import maybe_inject
from repro.workloads.grid import BackendSpec, GeometrySpec, Scenario
from repro.workloads.trace_cache import scenario_trace


def build_backend(spec: BackendSpec, seed: int) -> PhysicsBackend:
    """Instantiate the physics backend a scenario asked for."""
    if spec.kind == "counter":
        return CounterBackend()
    return FlashChipBackend(
        bitlines_per_block=spec.bitlines_per_block,
        initial_pe_cycles=spec.initial_pe_cycles,
        vpass=spec.vpass,
        seed=seed,
    )


def ssd_config(geometry: GeometrySpec) -> SsdConfig:
    """The :class:`SsdConfig` a grid geometry describes.

    Raises ``ValueError`` for a geometry the FTL cannot run (too few
    blocks, overprovisioning outside ``(0, 0.5)`` or too small for the
    GC threshold), so a grid can be checked before any scenario runs.
    """
    return SsdConfig(
        blocks=geometry.blocks,
        pages_per_block=geometry.pages_per_block,
        overprovision=geometry.overprovision,
        gc_threshold_blocks=geometry.gc_threshold_blocks,
    )


def build_engine(scenario: Scenario) -> SimulationEngine:
    """Fresh engine for *scenario* (geometry, policy, backend, seeds)."""
    policy = scenario.policy
    return SimulationEngine(
        ssd_config(scenario.geometry),
        refresh_interval_days=policy.refresh_interval_days,
        read_reclaim_threshold=policy.read_reclaim_threshold,
        maintenance_period_days=policy.maintenance_period_days,
        backend=build_backend(scenario.backend, scenario.backend_seed),
    )


def _measure_backend_rber(engine: SimulationEngine) -> float | None:
    """Worst current RBER across the backend's bound, programmed blocks.

    Counter scenarios have no cells to measure and report ``None``;
    measurement is the backend's own non-recording
    :meth:`~repro.controller.backends.FlashChipBackend.worst_block_rber`,
    so taking a trajectory does not perturb the run it observes.
    """
    backend = engine.backend
    if not isinstance(backend, FlashChipBackend):
        return None
    return backend.worst_block_rber(engine.now)


def extract_result(
    scenario: Scenario,
    engine: SimulationEngine,
    stats,
    trajectory: list[dict] | None,
) -> ScenarioResult:
    """Fold a finished run into the picklable result record."""
    ftl = engine.ftl
    return ScenarioResult(
        scenario_id=scenario.scenario_id,
        stats=asdict(stats),
        backend=engine.backend.summary(),
        per_block={
            "pe_cycles": ftl.pe_cycles.tolist(),
            "reads_since_program": ftl.reads_since_program.tolist(),
            "valid_count": ftl.valid_count.tolist(),
        },
        trajectory=trajectory,
    )


def run_scenario(
    scenario: Scenario, span_parent: str | None = None
) -> ScenarioResult:
    """Execute one scenario from scratch and return its result.

    This is the pure function the sweep runner fans out: trace
    generation, engine construction, and every RNG stream derive from
    the scenario alone, so the result is bit-identical wherever it runs.
    The trace comes through the per-process cache
    (:mod:`repro.workloads.trace_cache`): repeated runs of one scenario
    in one process reuse a single frozen trace.  The engine runs
    batched; the per-op reference loop (``batch=False``) is reached
    through :class:`~repro.controller.engine.SimulationEngine`
    directly.

    *span_parent* (telemetry only — never touches the result) links this
    run's ``scenario.run`` span under another process's span, e.g. the
    campaign scheduler's per-attempt span.
    """
    tracer = obs.tracer()
    span = tracer.begin(
        "scenario.run", parent=span_parent, scenario=scenario.scenario_id
    )
    try:
        result = _run_scenario_inner(scenario)
    except BaseException as exc:
        tracer.end(span, error=type(exc).__name__)
        raise
    tracer.end(span)
    return result


def _run_scenario_inner(scenario: Scenario) -> ScenarioResult:
    # The one fault-injection hook of the execution path: a no-op unless
    # a test armed a fault for exactly this scenario id (see
    # repro.testing.faults) — it is how the campaign layer's crash, hang
    # and resume recovery is exercised deterministically.
    maybe_inject(scenario.scenario_id)
    trace = scenario_trace(scenario)
    engine = build_engine(scenario)
    trajectory: list[dict] | None = None
    on_window = None
    if scenario.record_trajectory:
        trajectory = []

        def on_window(eng: SimulationEngine) -> None:
            record = {
                "window": len(trajectory),
                "now_days": eng.now / SECONDS_PER_DAY,
                "host_reads": eng.ftl.host_reads,
                "gc_runs": eng.ftl.gc_runs,
                "refreshed_blocks": eng.refresh.refreshed_blocks,
                "reclaimed_blocks": (
                    eng.reclaim.reclaimed_blocks if eng.reclaim is not None else 0
                ),
                "max_reads_since_program": int(eng.ftl.reads_since_program.max()),
            }
            rber = _measure_backend_rber(eng)
            if rber is not None:
                record["worst_block_rber"] = rber
            trajectory.append(record)

    stats = engine.run_trace(trace, on_window=on_window)
    return extract_result(scenario, engine, stats, trajectory)
