"""Serial vs. threaded block-group executors are bit-identical.

The contract under test (docs/architecture.md, "The block-group
executor"): `FlashChipBackend.on_reads` splits every flush into pure
per-block tasks plus a deterministic ordered merge, so the executor
choice — `"serial"` or `"threaded[:N]"` — cannot change a single bit of
the engine summary, the backend counters, the per-block device state,
the relocation order, or the RDR escalation bookkeeping.  The
worn/relaxed-Vpass configuration drives the uncorrectable-page path
(including the skip of later pages of a failing block's flush), so the
equivalence covers escalation, not just the happy path.  Writes run the
one serial path under every executor, so a wordline is programmed when
its first page is appended.  A threaded executor's thread pool never
outlives the engine, even when the run fails.
"""

import threading

import numpy as np
import pytest

from repro.controller import (
    BlockExecutor,
    CounterBackend,
    FlashChipBackend,
    SimulationEngine,
    SsdConfig,
)
from repro.controller.factory import run_scenario
from repro.parallel import SweepRunner, default_workers
from repro.parallel.results import ScenarioFailure
from repro.units import days
from repro.workloads import IoTrace, OP_READ, OP_WRITE
from repro.workloads.grid import (
    BackendSpec,
    GeometrySpec,
    PolicySpec,
    ScenarioGrid,
    parse_executor_spec,
)
from repro.workloads.suites import WORKLOAD_SUITE

CONFIG = SsdConfig(blocks=12, pages_per_block=16, overprovision=0.25)
#: fresh cells at nominal Vpass: the failure-free decode path.
FRESH = dict(bitlines_per_block=512, seed=5)
#: heavy wear + relaxed Vpass: uncorrectable pages, RDR escalation, and
#: the skip of later pages of a failing block's flush.
WORN = dict(bitlines_per_block=512, seed=5, initial_pe_cycles=12000, vpass=500.0)


def _traces(footprint=300, n_ops=12_000, seed=11, read_fraction=0.97, span_days=3.0):
    rng = np.random.default_rng(seed)
    precondition = IoTrace(
        np.zeros(footprint),
        np.full(footprint, OP_WRITE, dtype=np.int64),
        rng.permutation(footprint).astype(np.int64),
        "precondition",
    )
    trace = IoTrace(
        np.sort(rng.uniform(days(0.05), days(span_days), n_ops)),
        np.where(rng.random(n_ops) < read_fraction, OP_READ, OP_WRITE).astype(
            np.int64
        ),
        rng.integers(0, footprint, n_ops).astype(np.int64),
        "hot-read",
    )
    return precondition, trace


def _run(backend_kwargs, executor, batch=True):
    backend = FlashChipBackend(**backend_kwargs, executor=executor)
    relocation_log: list[int] = []
    inner_drain = backend.drain_relocations

    def logging_drain():
        pending = inner_drain()
        relocation_log.extend(pending)
        return pending

    backend.drain_relocations = logging_drain
    engine = SimulationEngine(
        CONFIG, read_reclaim_threshold=20_000, backend=backend, batch=batch
    )
    precondition, trace = _traces()
    engine.run_trace(precondition)
    stats = engine.run_trace(trace)
    return engine, stats, relocation_log


def _per_block_state(backend):
    """Every per-block observable the executor could possibly perturb."""
    return {
        block_id: (
            fb.pe_cycles,
            fb.total_reads,
            fb.reads_targeted.tolist(),
            fb.disturb_exposure().tolist(),
            fb.programmed.tolist(),
            fb.voltage_epoch,
        )
        for block_id, fb in sorted(backend._blocks.items())
    }


@pytest.mark.parametrize("backend_kwargs", [FRESH, WORN], ids=["fresh", "worn"])
@pytest.mark.parametrize("executor", ["threaded", "threaded:2"])
def test_parallel_executor_bit_identical_to_serial(backend_kwargs, executor):
    serial_engine, serial_stats, serial_relocs = _run(backend_kwargs, "serial")
    threaded_engine, threaded_stats, threaded_relocs = _run(
        backend_kwargs, executor
    )
    assert threaded_engine.backend.summary() == serial_engine.backend.summary()
    assert threaded_stats == serial_stats
    # Relocation *order* (not just count): the merge queues escalated
    # blocks in ascending-block flush order, executor-independent.
    assert threaded_relocs == serial_relocs
    assert (
        threaded_engine.recovery_relocations == serial_engine.recovery_relocations
    )
    assert _per_block_state(threaded_engine.backend) == _per_block_state(
        serial_engine.backend
    )


def test_worn_path_actually_escalates():
    """The equivalence above must cover the uncorrectable/RDR/skip path,
    not vacuously pass on a failure-free run."""
    engine, _, relocs = _run(WORN, "threaded:2")
    summary = engine.backend.summary()
    assert summary["uncorrectable_pages"] > 0
    assert summary["rdr_attempts"] > 0
    assert relocs, "escalation should queue relocations"
    # Skip path: a failing block's later pages are not decoded that
    # flush, so fewer pages are checked than a failure-free run checks.
    fresh_engine, _, _ = _run(FRESH, "threaded:2")
    assert summary["pages_checked"] < fresh_engine.backend.summary()["pages_checked"]


@pytest.mark.parametrize("executor", ["threaded:2"])
def test_per_op_reference_loop_supports_executors(executor):
    serial_engine, serial_stats, _ = _run(WORN, "serial", batch=False)
    parallel_engine, parallel_stats, _ = _run(WORN, executor, batch=False)
    assert parallel_engine.backend.summary() == serial_engine.backend.summary()
    assert parallel_stats == serial_stats


def test_executor_equivalence_through_scenarios_both_backends():
    """Grid-level equivalence: a flash-chip scenario produces the same
    ScenarioResult under both executors (same scenario id, same seeds —
    the executor never enters the id), and the counter backend is
    executor-oblivious by construction."""
    workload = WORKLOAD_SUITE["webmail"]
    geometry = GeometrySpec(blocks=16, pages_per_block=32, overprovision=0.2)
    policy = PolicySpec(name="reclaim", read_reclaim_threshold=5_000)

    def scenario(backend_spec):
        return ScenarioGrid(
            workloads=(workload,),
            geometries=(geometry,),
            policies=(policy,),
            backends=(backend_spec,),
            duration_days=0.03,
            record_trajectory=True,
        ).scenarios()[0]

    flash = dict(kind="flash_chip", bitlines_per_block=256, initial_pe_cycles=8000)
    serial_result = run_scenario(scenario(BackendSpec(**flash)))
    threaded_result = run_scenario(
        scenario(BackendSpec(**flash, executor="threaded:2"))
    )
    assert serial_result == threaded_result
    counter_serial = run_scenario(scenario(BackendSpec(kind="counter")))
    counter_threaded = run_scenario(
        scenario(BackendSpec(kind="counter", executor="threaded:2"))
    )
    assert counter_serial == counter_threaded


# ----------------------------------------------------------------------
# Executor plumbing
# ----------------------------------------------------------------------


def test_parse_executor_spec():
    assert parse_executor_spec("serial") == ("serial", None)
    assert parse_executor_spec("threaded") == ("threaded", None)
    assert parse_executor_spec("threaded:3") == ("threaded", 3)
    for bad in ("serial:2", "serial:", "threaded:", "threaded:0", "threaded:x",
                "process", "process:2", "fibers"):
        with pytest.raises(ValueError):
            parse_executor_spec(bad)


def test_block_executor_from_spec():
    assert BlockExecutor.from_spec("serial").workers == 1
    assert BlockExecutor.from_spec("threaded").workers == default_workers()
    assert BlockExecutor.from_spec("threaded:3").workers == 3


def test_threaded_executor_maps_in_order_and_reuses_pool():
    serial = BlockExecutor.from_spec("serial")
    assert serial.map(lambda x: x * x, [1, 2, 3]) == [1, 4, 9]
    assert serial._pool is None, "one worker runs the in-place loop"
    executor = BlockExecutor(workers=3)
    try:
        items = list(range(25))
        assert executor.map(lambda x: x * x, items) == [x * x for x in items]
        pool = executor._pool
        assert pool is not None
        assert executor.map(lambda x: -x, items) == [-x for x in items]
        assert executor._pool is pool, "pool should persist across flushes"
        # Single-task flushes bypass the pool (the per-op loop's shape).
        assert executor.map(lambda x: x + 1, [41]) == [42]
    finally:
        executor.close()
    assert executor._pool is None
    executor.close()  # idempotent


#: executor specs and whether they are valid.
EXECUTOR_SPECS = [
    ("serial", True),
    ("threaded", True),
    ("threaded:1", True),
    ("threaded:4", True),
    ("serial:2", False),
    ("serial:", False),
    ("threaded:", False),
    ("threaded:0", False),
    ("threaded:-1", False),
    ("threaded:+2", False),
    ("threaded: 2", False),
    ("threaded:x", False),
    ("process", False),
    ("process:2", False),
    ("pool", False),
    ("", False),
]


def test_backend_spec_validates_executor():
    """The grid and the backend accept and reject exactly the same specs
    — a spec that passes grid construction but fails in a worker would
    surface as a mid-sweep ScenarioFailure instead."""
    assert BackendSpec(executor="threaded:4").executor == "threaded:4"
    for spec, valid in EXECUTOR_SPECS:
        accepted = []
        for build in (BackendSpec, FlashChipBackend):
            try:
                build(executor=spec)
            except ValueError:
                accepted.append(False)
            else:
                accepted.append(True)
        assert accepted == [valid, valid], spec


def test_executor_is_excluded_from_labels_and_ids():
    """The executor is an execution knob: it must never perturb scenario
    ids (and therefore derived seeds) — that is exactly what makes the
    serial/threaded results comparable bit-for-bit."""
    base = BackendSpec(kind="flash_chip", initial_pe_cycles=500)
    threaded = BackendSpec(
        kind="flash_chip", initial_pe_cycles=500, executor="threaded:2"
    )
    assert base.label == threaded.label
    with pytest.raises(ValueError, match="distinct labels"):
        ScenarioGrid(
            workloads=(WORKLOAD_SUITE["webmail"],),
            backends=(base, threaded),
        )


# ----------------------------------------------------------------------
# Writes and executor lifetime
# ----------------------------------------------------------------------

SMALL = dict(bitlines_per_block=128, seed=7)
#: a mixed 90%-read day over 200 lpns.
MIXED = dict(footprint=200, n_ops=3_000, seed=13, read_fraction=0.9, span_days=1.0)


def test_programs_land_at_append_time():
    """Every executor programs a wordline when its first page is
    appended: after a write-only run, before any summary(), read or
    erase observes the chip, a threaded backend's blocks equal the
    serial backend's."""
    footprint = 40
    precondition, _ = _traces(footprint=footprint, seed=13)
    states = []
    for executor in ("serial", "threaded:2"):
        backend = FlashChipBackend(bitlines_per_block=64, seed=1, executor=executor)
        engine = SimulationEngine(CONFIG, backend=backend)
        engine.run_trace(precondition)  # write-only, too short for GC
        states.append(_per_block_state(backend))
        engine.close()
    serial, threaded = states
    programmed = sum(sum(state[4]) for state in serial.values())
    assert programmed == footprint // 2
    assert threaded == serial


def test_scenario_equivalence_with_write_heavy_workload():
    """A write-heavy workload (GC relocations included) between the
    read flushes; a threaded run must still match serial bits."""
    geometry = GeometrySpec(blocks=12, pages_per_block=16, overprovision=0.25)

    def scenario(executor):
        return ScenarioGrid(
            workloads=(WORKLOAD_SUITE["wdev_0"],),
            geometries=(geometry,),
            backends=(
                BackendSpec(
                    kind="flash_chip",
                    bitlines_per_block=128,
                    initial_pe_cycles=6000,
                    executor=executor,
                ),
            ),
            duration_days=0.02,
            record_trajectory=True,
        ).scenarios()[0]

    assert run_scenario(scenario("serial")) == run_scenario(scenario("threaded:2"))


def _pool_threads() -> set[threading.Thread]:
    """The live threads of every block executor's pool."""
    return {
        thread
        for thread in threading.enumerate()
        if thread.name.startswith("repro-block-group")
    }


def test_no_pool_thread_leak_on_exception_mid_run():
    before = _pool_threads()
    backend = FlashChipBackend(**SMALL, executor="threaded:2")
    engine = SimulationEngine(CONFIG, backend=backend)
    precondition, trace = _traces(**MIXED)
    engine.run_trace(precondition)
    inner_drain = backend.drain_relocations
    threads_at_failure = []

    def exploding_drain():
        # Fail only once a multi-block flush has started the pool.
        if backend.executor._pool is None:
            return inner_drain()
        threads_at_failure.append(_pool_threads() - before)
        raise RuntimeError("mid-run failure")

    backend.drain_relocations = exploding_drain
    with pytest.raises(RuntimeError, match="mid-run failure"):
        engine.run_trace(trace)
    assert threads_at_failure[0], "the failing run must have started its pool"
    # The engine surface contract: whoever drives the engine closes it
    # on the way out (run_scenario does this in a finally).
    engine.close()
    assert _pool_threads() - before == set()


def test_no_pool_thread_leak_on_scenario_failure_in_sweep(monkeypatch):
    before = _pool_threads()
    scenarios = ScenarioGrid(
        workloads=(WORKLOAD_SUITE["webmail"],),
        geometries=(GeometrySpec(blocks=12, pages_per_block=16, overprovision=0.25),),
        backends=(
            BackendSpec(kind="flash_chip", bitlines_per_block=128, executor="threaded:2"),
        ),
        duration_days=0.01,
    ).scenarios()
    runner = SweepRunner(workers=1)
    assert len(runner.run(scenarios).results) == 1
    assert _pool_threads() - before == set()
    # Fail the same scenario mid-run, while its pool is running.
    inner_drain = FlashChipBackend.drain_relocations
    threads_at_failure = []

    def exploding_drain(self):
        if self.executor._pool is None:
            return inner_drain(self)
        threads_at_failure.append(_pool_threads() - before)
        raise RuntimeError("mid-scenario failure")

    monkeypatch.setattr(FlashChipBackend, "drain_relocations", exploding_drain)
    with pytest.raises(ScenarioFailure, match="mid-scenario failure"):
        runner.run(scenarios)
    assert threads_at_failure[0], "the failing scenario must have started its pool"
    assert _pool_threads() - before == set()
