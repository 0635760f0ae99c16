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
import time

import pytest

from repro.controller.factory import run_scenario
from repro.parallel import (
    Campaign,
    ScenarioFailure,
    SweepRunner,
    default_workers,
    run_sweep,
)
from repro.parallel.results import ScenarioResult, SweepReport
from repro.parallel.runner import run_tasks
from repro.testing.faults import ENV_FAULTS, FaultSpec, injected_faults
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
    grid = counter_grid(seeds=1)
    expected_id = grid.scenarios()[1].scenario_id
    with injected_faults(FaultSpec("raise", None, expected_id)):
        for workers in (1, 2):
            with pytest.raises(ScenarioFailure) as excinfo:
                SweepRunner(workers=workers).run(grid)
            assert excinfo.value.scenario_id == expected_id
            assert expected_id in str(excinfo.value)
            assert "InjectedFault" in excinfo.value.detail


@pytest.mark.parametrize(
    "geometry, message",
    [
        # 7% overprovision leaves too few spare blocks for the GC threshold.
        (GeometrySpec(blocks=32, pages_per_block=32), "geometry 32x32: over"),
        (GeometrySpec(blocks=2, pages_per_block=64), "at least 4 blocks"),
    ],
    ids=["gc-threshold", "too-few-blocks"],
)
def test_unrunnable_geometry_is_rejected_before_anything_runs(
    tmp_path, geometry, message
):
    """Both front doors, the runner's and the campaign's, reject a grid
    the FTL cannot run with a ValueError before any worker starts or
    any store is bound."""
    grid = ScenarioGrid(
        workloads=(WORKLOAD_SUITE["web_0"],),
        geometries=(SMALL_GEOMETRY, geometry),
        duration_days=0.01,
    )
    for workers in (1, 2):
        with pytest.raises(ValueError, match=message):
            SweepRunner(workers=workers).run(grid)
    store = tmp_path / "store"
    with pytest.raises(ValueError, match=message):
        Campaign(grid, store, workers=1, on_failure="continue").run()
    assert not (store / "manifest.json").exists()
    assert multiprocessing.active_children() == []


def test_scenario_failure_pickles_across_process_boundary():
    failure = ScenarioFailure("grid/cell/s0", "ValueError: boom")
    clone = pickle.loads(pickle.dumps(failure))
    assert clone.scenario_id == "grid/cell/s0"
    assert "boom" in str(clone)


def test_duplicate_scenario_ids_rejected(tmp_path):
    scenario = counter_grid(seeds=1).scenarios()[0]
    with pytest.raises(ValueError, match="unique"):
        SweepRunner(workers=1).run([scenario, scenario])
    with pytest.raises(ValueError, match="unique"):
        Campaign([scenario, scenario], tmp_path / "store")
    assert not (tmp_path / "store" / "manifest.json").exists()


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
# The pool's scheduling loop: worker loss, timeouts, ticks
# ----------------------------------------------------------------------


def _die_or_square(x):
    if x == "die":
        os.kill(os.getpid(), signal.SIGKILL)
    return x * x


def worker_death_detail(exitcode):
    """What the loop reports for a worker that died without reporting:
    the same text a campaign ledgers for a ``worker-death``."""
    return (
        f"worker process died with exit code {exitcode} before reporting "
        f"a result (crash, os._exit, or kill)"
    )


def test_sigkilled_map_worker_raises_worker_lost_not_hang():
    """A SIGKILL'd pool worker used to stall the sweep forever (a plain
    multiprocessing.Pool never detects the death); now it raises a
    ScenarioFailure naming exactly the label in flight on that worker."""
    with pytest.raises(ScenarioFailure) as excinfo:
        SweepRunner(workers=2).map(
            _die_or_square, [1, "die", 2, 3], labels=["a", "die", "b", "c"]
        )
    lost = excinfo.value
    assert lost.scenario_id == "die"
    assert lost.detail == worker_death_detail(-signal.SIGKILL)
    assert multiprocessing.active_children() == []  # survivors were killed


def test_crashed_scenario_worker_names_unfinished_scenarios(tmp_path):
    """End-to-end through run(): a worker hard-crashing mid-scenario
    (os._exit — what an OOM kill looks like) surfaces the in-flight
    scenario id instead of hanging the sweep, with the detail a
    campaign ledgers for the same crash."""
    from repro.testing.faults import CRASH_EXIT_CODE

    grid = counter_grid()
    target = grid.scenarios()[0].scenario_id
    with injected_faults(FaultSpec("crash", None, target)):
        with pytest.raises(ScenarioFailure) as excinfo:
            SweepRunner(workers=2).run(grid)
        campaign = Campaign(
            grid, tmp_path / "store", workers=2, on_failure="continue"
        )
        campaign.run()
    assert excinfo.value.scenario_id == target
    assert excinfo.value.detail == worker_death_detail(CRASH_EXIT_CODE)
    (entry,) = campaign.ledger
    assert entry["kind"] == "worker-death"
    assert entry["detail"] == excinfo.value.detail


def test_timed_out_task_is_killed_and_the_next_task_runs():
    """One worker: the first task hangs past the timeout, its worker is
    killed, and the loop goes on to launch the second task in a fresh
    worker.  Ticks keep firing while nothing lands."""
    outcomes, ticks = [], []
    run_tasks(
        [("hang", time.sleep, (60,)), ("square", _square, (7,))],
        1,
        lambda key, kind, payload, seconds: outcomes.append(
            (key, kind, payload, seconds)
        ),
        timeout=0.5,
        on_tick=lambda: ticks.append(time.monotonic()),
        tick_seconds=0.05,
    )
    assert [(key, kind) for key, kind, _, _ in outcomes] == [
        ("hang", "timeout"), ("square", "ok"),
    ]
    assert outcomes[0][2] == "exceeded the 0.5s wall-clock timeout; worker killed"
    assert outcomes[0][3] >= 0.5
    assert outcomes[1][2] == 49
    assert len(ticks) >= 5  # while the hung task held the only worker
    assert multiprocessing.active_children() == []


def test_default_worker_counts_honour_the_cpu_affinity_mask(monkeypatch):
    """Under taskset or a container CPU mask the default count of sweep
    workers is the CPUs this process may run on, not every CPU of the
    machine."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert default_workers() == 1


def test_scenario_failure_round_trips_under_spawn(monkeypatch):
    """Under the spawn start method every boundary crossing pickles —
    the scenario out, the ScenarioFailure back.  The failure must
    arrive intact, still naming its scenario id."""
    import repro.parallel.runner as runner_module

    monkeypatch.setattr(
        runner_module,
        "_pool_context",
        lambda: multiprocessing.get_context("spawn"),
    )
    grid = counter_grid(seeds=1)
    expected_id = grid.scenarios()[0].scenario_id
    # Spawn workers share no memory: arm the fault through the env.
    monkeypatch.setenv(ENV_FAULTS, f"raise:*:{expected_id}")
    with pytest.raises(ScenarioFailure) as excinfo:
        SweepRunner(workers=2).run(grid)
    assert excinfo.value.scenario_id == expected_id
    assert "InjectedFault" in excinfo.value.detail


def test_spawn_sweep_matches_fork_report(monkeypatch):
    """Start method is an implementation detail: spawn workers rebuild
    everything from the pickled scenario and report identical bits."""
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
