"""Engine throughput: batched vs. per-op execution, both backends.

The unified engine's acceptance target is a >=10x speedup of the batched
windowed path over the per-op reference loop on a 1M-operation synthetic
hot-read trace with the counter backend, with bit-identical run stats.
This bench tracks that number (and the full-fidelity flash-chip
backend's throughput, vectorized in PR 2) from PR to PR; the flash-chip
row's ops/sec also lands in the machine-readable ``BENCH_physics.json``
at the repo root.

Two more counter rows run the write-heavy side: the Figure-8 workload
suite at the campaign benchmark's shape (all fourteen workloads, 0.05
days, 64x64 drives), in-process, batched and per-op, with equal stats
asserted.  There host writes and the GC they trigger are most of the
work, which batched windows replay as block-bounded runs.

Set ``BENCH_SMOKE=1`` to run a seconds-scale smoke of every row — the
perf-path APIs still execute end to end, but the counter-path speedup
ratio is not asserted (window batching cannot amortize at toy scale).
"""

import os
import statistics
import tempfile
import time

import numpy as np

from repro import obs
from repro.analysis.reporting import format_table
from repro.controller import (
    FlashChipBackend,
    SimulationEngine,
    SsdConfig,
)
from repro.controller.factory import build_engine
from repro.units import days
from repro.workloads import IoTrace, OP_READ, OP_WRITE, suite_grid
from repro.workloads.grid import GeometrySpec
from repro.workloads.trace_cache import scenario_trace

SMOKE = bool(int(os.environ.get("BENCH_SMOKE", "0")))
#: CPUs this process may run on (its affinity mask), not every CPU of
#: the host: tools/check_bench.py arms core-gated floors from it.
CPUS = (
    len(os.sched_getaffinity(0))
    if hasattr(os, "sched_getaffinity")
    else os.cpu_count() or 1
)

N_OPS = 30_000 if SMOKE else 1_000_000
FOOTPRINT = 5_000 if SMOKE else 100_000
READ_FRACTION = 0.99
CONFIG = (
    SsdConfig(blocks=64, pages_per_block=64)
    if SMOKE
    else SsdConfig(blocks=512, pages_per_block=256)
)
#: much smaller drive/trace for the flash-chip row: every read there
#: drives Monte-Carlo physics, which targets fidelity, not sweeps.
PHYSICS_OPS = 5_000 if SMOKE else 200_000
PHYSICS_FOOTPRINT = 500 if SMOKE else 2_000
PHYSICS_CONFIG = SsdConfig(blocks=16, pages_per_block=32, overprovision=0.2)
PHYSICS_BITLINES = 512 if SMOKE else 2048
#: the telemetry-overhead comparison reruns the flash-chip row twice per
#: round; half-length traces keep the paired rounds affordable.
OVERHEAD_OPS = 2_000 if SMOKE else 100_000
OVERHEAD_ROUNDS = 1 if SMOKE else 5
#: the write-heavy counter row: perfbench's ``suite_campaign`` shape.
SUITE_NAMES = ["web_0", "hm_0", "postmark"] if SMOKE else None
SUITE_DAYS = 0.005 if SMOKE else 0.05
SUITE_GEOMETRY = GeometrySpec(blocks=64, pages_per_block=64)
SUITE_REPEATS = 1 if SMOKE else 3


def _traces(footprint, n_ops):
    rng = np.random.default_rng(7)
    precondition = IoTrace(
        np.zeros(footprint),
        np.full(footprint, OP_WRITE, dtype=np.int64),
        rng.permutation(footprint).astype(np.int64),
        "precondition",
    )
    trace = IoTrace(
        np.sort(rng.uniform(days(0.1), days(6.0), n_ops)),
        np.where(rng.random(n_ops) < READ_FRACTION, OP_READ, OP_WRITE).astype(
            np.int64
        ),
        rng.integers(0, footprint, n_ops).astype(np.int64),
        "hot-read",
    )
    return precondition, trace


def _timed_run(config, backend_factory, batch, footprint, n_ops, repeats=1):
    """Best-of-*repeats* timing (fresh engine per repeat, identical stats).

    The batched counter row finishes in ~0.1s, where one-shot timing on a
    shared machine is mostly scheduler noise; best-of keeps the recorded
    trajectory meaningful without changing what is measured.
    """
    best_elapsed = None
    stats = None
    for _ in range(repeats):
        precondition, trace = _traces(footprint, n_ops)
        engine = SimulationEngine(
            config,
            read_reclaim_threshold=50_000,
            backend=backend_factory(),
            batch=batch,
        )
        engine.run_trace(precondition)
        start = time.perf_counter()
        run_stats = engine.run_trace(trace)
        elapsed = time.perf_counter() - start
        assert stats is None or run_stats == stats, "repeat runs must be identical"
        stats = run_stats
        if best_elapsed is None or elapsed < best_elapsed:
            best_elapsed = elapsed
    return stats, best_elapsed, n_ops / best_elapsed


def _suite_run(batch):
    """Best-of-``SUITE_REPEATS`` in-process pass over the suite.

    Times only ``run_trace`` (fresh engines, traces generated once and
    cached); returns every scenario's stats, the trace ops and seconds.
    """
    grid = suite_grid(
        SUITE_NAMES,
        duration_days=SUITE_DAYS,
        geometries=(SUITE_GEOMETRY,),
    )
    best = None
    stats = None
    for _ in range(SUITE_REPEATS):
        run_stats, ops, elapsed = [], 0, 0.0
        for scenario in grid:
            trace = scenario_trace(scenario)
            engine = build_engine(scenario)
            engine.batch = batch  # batched windows or the per-op loop
            start = time.perf_counter()
            run_stats.append(engine.run_trace(trace))
            elapsed += time.perf_counter() - start
            ops += len(trace)
        assert stats is None or run_stats == stats, "repeat runs must be identical"
        stats = run_stats
        best = elapsed if best is None else min(best, elapsed)
    return stats, ops, best


def _physics_cpu_run(trace_dir):
    """One flash-chip run timed in CPU seconds; traced iff *trace_dir*.

    ``time.process_time`` instead of wall-clock: the overhead gate
    compares two runs whose difference is pure in-process work (handle
    lookups, span writes), and CPU time is blind to the scheduler noise
    of a shared machine that dwarfs a 2% wall-clock margin.
    """
    if trace_dir is not None:
        obs.configure(trace_dir, label="bench")
    try:
        precondition, trace = _traces(PHYSICS_FOOTPRINT, OVERHEAD_OPS)
        engine = SimulationEngine(
            PHYSICS_CONFIG,
            read_reclaim_threshold=50_000,
            backend=FlashChipBackend(
                bitlines_per_block=PHYSICS_BITLINES, seed=3
            ),
            batch=True,
        )
        engine.run_trace(precondition)
        start = time.process_time()
        stats = engine.run_trace(trace)
        return stats, time.process_time() - start
    finally:
        if trace_dir is not None:
            obs.reset()


def _telemetry_overhead():
    """Median of paired traced/untraced CPU-time ratios.

    Pairing each traced run with an immediately preceding untraced run
    cancels slow machine drift; the median over rounds shrugs off the
    odd preempted round that best-of timing cannot.  The runs are
    asserted bit-identical either way — telemetry is out-of-band.
    """
    ratios = []
    with tempfile.TemporaryDirectory() as tmp:
        for index in range(OVERHEAD_ROUNDS):
            stats_off, t_off = _physics_cpu_run(None)
            stats_on, t_on = _physics_cpu_run(os.path.join(tmp, f"r{index}"))
            assert stats_on == stats_off, "telemetry must not perturb results"
            ratios.append(t_on / t_off)
    return statistics.median(ratios)


def _sweep():
    rows = []
    stats_serial, t_serial, ops_serial = _timed_run(
        CONFIG, lambda: None, False, FOOTPRINT, N_OPS
    )
    rows.append(["counter / per-op", N_OPS, f"{t_serial:.2f}", f"{ops_serial:,.0f}", "1.0x"])
    stats_batched, t_batched, ops_batched = _timed_run(
        CONFIG, lambda: None, True, FOOTPRINT, N_OPS, repeats=1 if SMOKE else 3
    )
    rows.append(
        [
            "counter / batched",
            N_OPS,
            f"{t_batched:.2f}",
            f"{ops_batched:,.0f}",
            f"{t_serial / t_batched:.1f}x",
        ]
    )
    assert stats_batched == stats_serial, "batched run must be bit-identical"
    suite_serial, suite_ops, t_suite_serial = _suite_run(batch=False)
    suite_batched, _, t_suite = _suite_run(batch=True)
    assert suite_batched == suite_serial, "batched suite must be bit-identical"
    rows.append(
        [
            "counter / suite per-op",
            suite_ops,
            f"{t_suite_serial:.2f}",
            f"{suite_ops / t_suite_serial:,.0f}",
            "1.0x",
        ]
    )
    rows.append(
        [
            "counter / suite batched",
            suite_ops,
            f"{t_suite:.2f}",
            f"{suite_ops / t_suite:,.0f}",
            f"{t_suite_serial / t_suite:.2f}x",
        ]
    )
    _, t_physics, ops_physics = _timed_run(
        PHYSICS_CONFIG,
        lambda: FlashChipBackend(bitlines_per_block=PHYSICS_BITLINES, seed=3),
        True,
        PHYSICS_FOOTPRINT,
        PHYSICS_OPS,
        repeats=1 if SMOKE else 2,
    )
    rows.append(
        ["flash-chip / batched", PHYSICS_OPS, f"{t_physics:.2f}", f"{ops_physics:,.0f}", "-"]
    )
    # Telemetry overhead: the same flash-chip row with tracing armed
    # (every read flush writes its physics.flush span and phase spans),
    # gated <= 1.02x by check_bench.py — observability must stay out of
    # the hot path's way.
    overhead = _telemetry_overhead()
    rows.append(
        [
            "flash-chip / traced",
            OVERHEAD_OPS,
            "-",
            "-",
            f"{overhead:.3f}x",
        ]
    )
    payload = {
        "smoke": SMOKE,
        "cpu_count": CPUS,
        "counter_per_op_ops_per_sec": round(ops_serial, 1),
        "counter_batched_ops_per_sec": round(ops_batched, 1),
        "counter_batched_speedup": round(t_serial / t_batched, 2),
        "counter_suite_ops_per_sec": round(suite_ops / t_suite, 1),
        "counter_suite_speedup": round(t_suite_serial / t_suite, 2),
        "counter_suite_trace_ops": suite_ops,
        "flash_chip_ops_per_sec": round(ops_physics, 1),
        "flash_chip_trace_ops": PHYSICS_OPS,
        "flash_chip_seconds": round(t_physics, 3),
        "telemetry_overhead_ratio": round(overhead, 4),
        "telemetry_overhead_rounds": OVERHEAD_ROUNDS,
    }
    return rows, t_serial / t_batched, payload


def bench_engine_throughput(benchmark, emit, emit_json):
    (rows, speedup, payload) = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    table = format_table(
        ["engine", "trace ops", "seconds", "ops/sec", "speedup"],
        rows,
        title=(
            f"Engine throughput ({READ_FRACTION:.0%} reads, preconditioned "
            f"{FOOTPRINT:,}-page footprint, daily maintenance + read reclaim; "
            f"suite rows: Figure-8 suite, {SUITE_DAYS} days, "
            f"{SUITE_GEOMETRY.blocks}x{SUITE_GEOMETRY.pages_per_block}"
            f"{', SMOKE' if SMOKE else ''})"
        ),
    )
    emit("engine_throughput", table)
    emit_json("engine_throughput", payload)
    if not SMOKE:
        assert speedup >= 10.0, f"batched speedup regressed to {speedup:.1f}x"
