"""Determinism suite for the sharded sweep runner.

The contract under test: for the same scenario list, the merged report
is bit-identical for ``workers=1`` (serial in-process reference),
``workers=N`` (multi-process), and any shuffle of the scenario order —
and a failing scenario surfaces its scenario id, not a bare worker
traceback.
"""

import multiprocessing
import os
import pickle
import random
import signal

import pytest

from repro.controller.factory import run_scenario
from repro.parallel import (
    ScenarioFailure,
    SweepRunner,
    SweepWorkerLost,
    default_workers,
    run_sweep,
)
from repro.parallel.results import ScenarioResult, SweepReport
from repro.workloads.grid import BackendSpec, GeometrySpec, PolicySpec, ScenarioGrid
from repro.workloads.suites import WORKLOAD_SUITE

SMALL_GEOMETRY = GeometrySpec(blocks=64, pages_per_block=64)
PHYSICS_GEOMETRY = GeometrySpec(blocks=16, pages_per_block=32, overprovision=0.2)


def counter_grid(seeds=2, **kwargs):
    return ScenarioGrid(
        workloads=(WORKLOAD_SUITE["web_0"], WORKLOAD_SUITE["prxy_0"]),
        geometries=(SMALL_GEOMETRY,),
        seeds=seeds,
        duration_days=0.03,
        **kwargs,
    )


def physics_grid():
    return ScenarioGrid(
        workloads=(WORKLOAD_SUITE["webmail"],),
        geometries=(PHYSICS_GEOMETRY,),
        policies=(PolicySpec(name="reclaim", read_reclaim_threshold=5_000),),
        backends=(
            BackendSpec(
                kind="flash_chip", bitlines_per_block=256, initial_pe_cycles=8000
            ),
        ),
        seeds=2,
        duration_days=0.03,
        record_trajectory=True,
    )


def test_counter_sweep_workers_equivalence():
    grid = counter_grid()
    serial = SweepRunner(workers=1).run(grid)
    parallel = SweepRunner(workers=4).run(grid)
    assert serial.results == parallel.results
    assert len(serial) == len(grid)


def test_counter_sweep_shuffled_order_equivalence():
    grid = counter_grid()
    scenarios = grid.scenarios()
    shuffled = scenarios.copy()
    random.Random(13).shuffle(shuffled)
    assert shuffled != scenarios
    assert SweepRunner(workers=1).run(scenarios).results == (
        SweepRunner(workers=2).run(shuffled).results
    )


def test_physics_sweep_workers_equivalence():
    """Flash-chip scenarios (Monte-Carlo cells, ECC, RDR, trajectory)
    are bit-identical across worker counts: every RNG stream is derived
    from the scenario, never from the process running it."""
    grid = physics_grid()
    serial = SweepRunner(workers=1).run(grid)
    parallel = SweepRunner(workers=2).run(grid)
    assert serial.results == parallel.results
    result = serial.results[0]
    assert result.backend["backend"] == "flash_chip"
    assert result.trajectory, "record_trajectory should produce windows"
    assert "worst_block_rber" in result.trajectory[-1]


def test_seed_replicas_differ():
    """The seed axis produces genuinely different runs (not clones)."""
    report = SweepRunner(workers=1).run(counter_grid(seeds=2))
    by_seed = {}
    for result in report:
        workload, *_, seed = result.scenario_id.split("/")
        by_seed.setdefault(workload, []).append(result.stats["host_reads"])
    for workload, reads in by_seed.items():
        assert reads[0] != reads[1], f"{workload} replicas should differ"


def test_result_records_are_picklable_and_plain():
    result = run_scenario(counter_grid(seeds=1).scenarios()[0])
    clone = pickle.loads(pickle.dumps(result))
    assert clone == result
    as_dict = result.as_dict()
    assert as_dict["scenario_id"] == result.scenario_id
    assert isinstance(as_dict["per_block"]["pe_cycles"], list)


def test_failure_surfaces_scenario_id_serial_and_parallel():
    # 32x32 at 7% overprovision fails SsdConfig validation inside the run.
    bad = ScenarioGrid(
        workloads=(WORKLOAD_SUITE["web_0"],),
        geometries=(GeometrySpec(blocks=32, pages_per_block=32), SMALL_GEOMETRY),
        duration_days=0.01,
    )
    expected_id = "web_0/d0.01/32x32/baseline/counter/s0"
    for workers in (1, 2):
        with pytest.raises(ScenarioFailure) as excinfo:
            SweepRunner(workers=workers).run(bad)
        assert excinfo.value.scenario_id == expected_id
        assert expected_id in str(excinfo.value)


def test_scenario_failure_pickles_across_process_boundary():
    failure = ScenarioFailure("grid/cell/s0", "ValueError: boom")
    clone = pickle.loads(pickle.dumps(failure))
    assert clone.scenario_id == "grid/cell/s0"
    assert "boom" in str(clone)


def test_duplicate_scenario_ids_rejected():
    scenario = counter_grid(seeds=1).scenarios()[0]
    with pytest.raises(ValueError, match="unique"):
        SweepRunner(workers=1).run([scenario, scenario])


def test_report_lookup_and_json():
    report = run_sweep(counter_grid(seeds=1), workers=1)
    first = report.results[0]
    assert report[first.scenario_id] == first
    with pytest.raises(KeyError):
        report["missing"]
    payload = report.to_json()
    assert first.scenario_id in payload
    assert report.scenario_ids == sorted(report.scenario_ids)


def test_report_requires_sorted_unique_ids():
    a = ScenarioResult(scenario_id="b", stats={}, backend={})
    b = ScenarioResult(scenario_id="a", stats={}, backend={})
    with pytest.raises(ValueError):
        SweepReport(results=(a, b), workers=1)
    with pytest.raises(ValueError):
        SweepReport(results=(a, a), workers=1)


# ----------------------------------------------------------------------
# The generic map substrate (used by the migrated ablation benches)
# ----------------------------------------------------------------------


def _square(x):
    return x * x


def _explode(x):
    raise RuntimeError(f"boom {x}")


def test_map_preserves_item_order_across_workers():
    items = list(range(20))
    assert SweepRunner(workers=1).map(_square, items) == [x * x for x in items]
    assert SweepRunner(workers=3).map(_square, items) == [x * x for x in items]
    assert multiprocessing.active_children() == []  # no worker outlives map


def test_map_failure_carries_label():
    # Serial: deterministically the first failing item by input order.
    with pytest.raises(ScenarioFailure) as excinfo:
        SweepRunner(workers=1).map(_explode, [1, 2], labels=["one", "two"])
    assert excinfo.value.scenario_id == "one"
    # Parallel: the first *observed* failure stops the pool early; with
    # several failing items, which one reports depends on scheduling.
    with pytest.raises(ScenarioFailure) as excinfo:
        SweepRunner(workers=2).map(_explode, [1, 2], labels=["one", "two"])
    assert excinfo.value.scenario_id in ("one", "two")
    assert multiprocessing.active_children() == []  # the abort killed all


def test_map_rejects_mismatched_labels():
    with pytest.raises(ValueError):
        SweepRunner(workers=1).map(_square, [1, 2], labels=["only-one"])


def test_runner_validation():
    with pytest.raises(ValueError):
        SweepRunner(workers=0)
    assert SweepRunner(workers=None).workers >= 1


# ----------------------------------------------------------------------
# Worker loss, env parsing, and the spawn start method
# ----------------------------------------------------------------------


def _die_or_square(x):
    if x == "die":
        os.kill(os.getpid(), signal.SIGKILL)
    return x * x


def test_sigkilled_map_worker_raises_worker_lost_not_hang():
    """A SIGKILL'd pool worker used to stall the sweep forever (a plain
    multiprocessing.Pool never detects the death); now it raises a
    SweepWorkerLost naming exactly the label in flight on that worker."""
    with pytest.raises(SweepWorkerLost) as excinfo:
        SweepRunner(workers=2).map(
            _die_or_square, [1, "die", 2, 3], labels=["a", "die", "b", "c"]
        )
    lost = excinfo.value
    assert lost.scenario_ids == ("die",)
    assert lost.scenario_id == "die"  # base-class anchor
    assert multiprocessing.active_children() == []  # survivors were killed
    assert "died without reporting" in str(lost)
    # It is a ScenarioFailure subclass: existing handlers keep working.
    assert isinstance(lost, ScenarioFailure)


def test_crashed_scenario_worker_names_unfinished_scenarios():
    """End-to-end through run(): a worker hard-crashing mid-scenario
    (os._exit — what an OOM kill looks like) surfaces the in-flight
    scenario id instead of hanging the sweep."""
    from repro.testing.faults import FaultSpec, injected_faults

    grid = counter_grid()
    target = grid.scenarios()[0].scenario_id
    with injected_faults(FaultSpec("crash", None, target)):
        with pytest.raises(SweepWorkerLost) as excinfo:
            SweepRunner(workers=2).run(grid)
    assert excinfo.value.scenario_ids == (target,)


def test_worker_lost_pickles_across_process_boundary():
    lost = SweepWorkerLost(("grid/a", "grid/b"), "exit code -9")
    clone = pickle.loads(pickle.dumps(lost))
    assert clone.scenario_ids == ("grid/a", "grid/b")
    assert clone.scenario_id == "grid/a"
    assert "exit code -9" in str(clone)


def test_sweep_workers_env_rejects_non_integers(monkeypatch):
    monkeypatch.setenv("REPRO_SWEEP_WORKERS", "many")
    with pytest.raises(ValueError, match="REPRO_SWEEP_WORKERS"):
        default_workers()
    monkeypatch.setenv("REPRO_SWEEP_WORKERS", "3")
    assert default_workers() == 3


def test_default_worker_counts_honour_the_cpu_affinity_mask(monkeypatch):
    """Under taskset or a container CPU mask both defaults count the CPUs
    this process may run on, not every CPU of the machine."""
    from repro.controller.executor import default_executor_workers

    monkeypatch.delenv("REPRO_SWEEP_WORKERS", raising=False)
    monkeypatch.delenv("REPRO_EXECUTOR_WORKERS", raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert default_workers() == 1
    assert default_executor_workers() == 1


def test_executor_workers_env_rejects_non_integers(monkeypatch):
    from repro.controller.executor import default_executor_workers

    monkeypatch.setenv("REPRO_EXECUTOR_WORKERS", "4.5")
    with pytest.raises(ValueError, match="REPRO_EXECUTOR_WORKERS"):
        default_executor_workers()
    monkeypatch.setenv("REPRO_EXECUTOR_WORKERS", "2")
    assert default_executor_workers() == 2


def test_scenario_failure_round_trips_under_spawn(monkeypatch):
    """Under the spawn start method every boundary crossing pickles —
    the scenario out, the ScenarioFailure back.  The failure must
    arrive intact, still naming its scenario id."""
    import multiprocessing

    import repro.parallel.runner as runner_module

    monkeypatch.setattr(
        runner_module,
        "_pool_context",
        lambda: multiprocessing.get_context("spawn"),
    )
    bad = ScenarioGrid(
        workloads=(WORKLOAD_SUITE["web_0"],),
        geometries=(GeometrySpec(blocks=32, pages_per_block=32), SMALL_GEOMETRY),
        duration_days=0.01,
    )
    expected_id = "web_0/d0.01/32x32/baseline/counter/s0"
    with pytest.raises(ScenarioFailure) as excinfo:
        SweepRunner(workers=2).run(bad)
    assert excinfo.value.scenario_id == expected_id


def test_spawn_sweep_matches_fork_report(monkeypatch):
    """Start method is an implementation detail: spawn workers rebuild
    everything from the pickled scenario and report identical bits."""
    import multiprocessing

    import repro.parallel.runner as runner_module

    grid = counter_grid(seeds=1)
    fork_report = SweepRunner(workers=2).run(grid)
    monkeypatch.setattr(
        runner_module,
        "_pool_context",
        lambda: multiprocessing.get_context("spawn"),
    )
    spawn_report = SweepRunner(workers=2).run(grid)
    assert spawn_report.results == fork_report.results
