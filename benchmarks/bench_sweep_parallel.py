"""Sweep-runner throughput: sharded workers vs. serial execution.

The flash-chip engine sits ~2s from its single-core floor (see
ROADMAP/BENCH_physics.json), so the lever for the paper's sweep-shaped
campaigns is scenario-level parallelism.  This bench runs one
flash-chip ablation grid (workload x reclaim-policy x seed) through
``SweepRunner`` at increasing worker counts, asserts every report is
bit-identical to the serial reference, and records the wall-clock
trajectory in ``BENCH_physics.json``.

The >=1.5x speedup assertion at ``workers=4`` only fires on a machine
with >= 4 CPUs (and not under ``BENCH_SMOKE``); single-core CI boxes
still exercise the full sharded path and the bit-identity assertions,
and the recorded payload carries ``cpu_count`` so trajectory numbers
are read in context.
"""

import os
import time

from repro.analysis.reporting import format_table
from repro.parallel import SweepRunner
from repro.workloads.grid import BackendSpec, GeometrySpec, PolicySpec, ScenarioGrid
from repro.workloads.suites import WORKLOAD_SUITE

SMOKE = bool(int(os.environ.get("BENCH_SMOKE", "0")))
#: CPUs this process may run on (its affinity mask), not every CPU of
#: the host: tools/check_bench.py arms core-gated floors from it.
CPUS = (
    len(os.sched_getaffinity(0))
    if hasattr(os, "sched_getaffinity")
    else os.cpu_count() or 1
)

DURATION_DAYS = 0.01 if SMOKE else 0.05
SEEDS = 1
BITLINES = 128 if SMOKE else 512
WORKER_LEVELS = (1, 2) if SMOKE else (1, 2, 4)

#: the ablation grid: hot-read suite workloads, with and without reclaim.
GRID = ScenarioGrid(
    workloads=(WORKLOAD_SUITE["webmail"],) if SMOKE else (
        WORKLOAD_SUITE["webmail"], WORKLOAD_SUITE["web_0"],
    ),
    geometries=(GeometrySpec(blocks=16, pages_per_block=32, overprovision=0.2),),
    policies=(
        PolicySpec(name="baseline"),
        PolicySpec(name="reclaim", read_reclaim_threshold=20_000),
    ),
    backends=(
        BackendSpec(kind="flash_chip", bitlines_per_block=BITLINES,
                    initial_pe_cycles=8000),
    ),
    seeds=SEEDS,
    duration_days=DURATION_DAYS,
)


def _total_ops(report) -> int:
    return sum(
        r.stats["host_reads"] + r.stats["host_writes"] + r.stats["unmapped_reads"]
        for r in report
    )


def _sweep():
    rows = []
    timings = {}
    reference = None
    for workers in WORKER_LEVELS:
        start = time.perf_counter()
        report = SweepRunner(workers=workers).run(GRID)
        elapsed = time.perf_counter() - start
        timings[workers] = elapsed
        if reference is None:
            reference = report
        else:
            assert report.results == reference.results, (
                f"workers={workers} sweep diverged from serial execution"
            )
        rows.append(
            [
                f"workers={workers}",
                len(report),
                f"{_total_ops(report):,}",
                f"{elapsed:.2f}",
                f"{timings[1] / elapsed:.2f}x",
            ]
        )
    payload = {
        "smoke": SMOKE,
        "cpu_count": CPUS,
        "scenarios": len(reference),
        "trace_ops_total": _total_ops(reference),
        "backend": "flash_chip",
        **{f"seconds_workers_{w}": round(t, 3) for w, t in timings.items()},
        **{
            f"speedup_workers_{w}": round(timings[1] / t, 2)
            for w, t in timings.items()
            if w != 1
        },
    }
    return rows, timings, payload


def bench_sweep_parallel(benchmark, emit, emit_json):
    rows, timings, payload = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    table = format_table(
        ["sweep", "scenarios", "trace ops", "seconds", "speedup"],
        rows,
        title=(
            f"Sharded sweep wall clock (flash-chip ablation grid, "
            f"{CPUS} CPUs{', SMOKE' if SMOKE else ''})"
        ),
    )
    emit("sweep_parallel", table)
    emit_json("sweep_parallel", payload)
    if not SMOKE and CPUS >= 4 and 4 in timings:
        speedup = timings[1] / timings[4]
        assert speedup >= 1.5, (
            f"workers=4 speedup regressed to {speedup:.2f}x on {CPUS} CPUs"
        )
