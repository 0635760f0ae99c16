"""Intra-scenario parallelism: what the threaded executor buys.

The sweep runner shards at scenario granularity; this bench measures the
*next* parallelism level — one flash-chip scenario whose read flushes
run their per-block sense and decode tasks on the threaded block
executor (:mod:`repro.controller.executor`).  Every other step runs the
backend's one serial code path under every executor, so the bench times
two phases of one run separately, on 16,384-bitline blocks (16x32
blocks at 8000 P/E):

- a **write phase**: 2,000 host writes after a fill — wordline programs,
  GC relocation and erase, where ``threaded`` runs serial's code;
- a **read phase**: 40k ops at 99% reads — the work the threads split.

It runs the identical scenario under ``serial`` and ``threaded:N``,
asserts every run is bit-identical (same engine stats after each phase,
same backend summary — the executor contract), and records both phases'
wall clocks into ``BENCH_physics.json``: ``speedup_threaded_N`` is the
read-phase ratio, ``write_speedup_threaded_N`` the write-phase ratio
(recorded, never floored).

The per-block numpy kernels release the GIL, so threads need real cores
to overlap.  ``tools/check_bench.py`` floors the two-thread read speedup
at 1.1x on a recording from >= 2 CPUs, and this bench asserts the
>= 1.5x four-thread read speedup on a machine with >= 4 CPUs (not under
``BENCH_SMOKE``).  ``cpu_count`` in the payload counts the CPUs this
process may run on (its affinity mask), which is what arms those floors.
"""

import os
import time

import numpy as np

from repro.analysis.reporting import format_table
from repro.controller import FlashChipBackend, SimulationEngine, SsdConfig
from repro.units import days
from repro.workloads import IoTrace, OP_READ, OP_WRITE

SMOKE = bool(int(os.environ.get("BENCH_SMOKE", "0")))
#: CPUs this process may run on (its affinity mask), not every CPU of
#: the host: tools/check_bench.py arms core-gated floors from it.
CPUS = (
    len(os.sched_getaffinity(0))
    if hasattr(os, "sched_getaffinity")
    else os.cpu_count() or 1
)

N_WRITES = 200 if SMOKE else 2_000
N_READS = 4_000 if SMOKE else 40_000
BITLINES = 256 if SMOKE else 16_384
CONFIG = SsdConfig(blocks=16, pages_per_block=32, overprovision=0.2)
EXECUTORS = ("serial", "threaded:2") if SMOKE else (
    "serial", "threaded:2", "threaded:4",
)


def _traces():
    """The fill, the write phase and the 99%-read phase."""
    rng = np.random.default_rng(23)
    logical = CONFIG.logical_pages
    fill = IoTrace(
        np.zeros(logical),
        np.full(logical, OP_WRITE, dtype=np.int64),
        rng.permutation(logical).astype(np.int64),
        "fill",
    )
    writes = IoTrace(
        np.sort(rng.uniform(days(0.01), days(0.1), N_WRITES)),
        np.full(N_WRITES, OP_WRITE, dtype=np.int64),
        rng.integers(0, logical, N_WRITES).astype(np.int64),
        "writes",
    )
    reads = IoTrace(
        np.sort(rng.uniform(days(0.1), days(6.0), N_READS)),
        np.where(rng.random(N_READS) < 0.99, OP_READ, OP_WRITE).astype(np.int64),
        rng.integers(0, logical, N_READS).astype(np.int64),
        "hot-read",
    )
    return fill, writes, reads


def _run(executor):
    """(write seconds, read seconds, everything the executor must not change)."""
    backend = FlashChipBackend(
        bitlines_per_block=BITLINES, initial_pe_cycles=8000, seed=3,
        executor=executor,
    )
    engine = SimulationEngine(
        CONFIG, read_reclaim_threshold=50_000, backend=backend
    )
    fill, writes, reads = _traces()
    try:
        engine.run_trace(fill)
        start = time.perf_counter()
        write_stats = engine.run_trace(writes)
        write_seconds = time.perf_counter() - start
        start = time.perf_counter()
        read_stats = engine.run_trace(reads)
        read_seconds = time.perf_counter() - start
        return write_seconds, read_seconds, (write_stats, read_stats, backend.summary())
    finally:
        engine.close()


def _sweep():
    rows = []
    writes, reads = {}, {}
    reference = None
    for executor in EXECUTORS:
        writes[executor], reads[executor], result = _run(executor)
        if reference is None:
            reference = result
        else:
            assert result == reference, (
                f"executor={executor} diverged from the serial reference"
            )
        rows.append(
            [
                executor,
                f"{writes[executor]:.2f}",
                f"{writes['serial'] / writes[executor]:.2f}x",
                f"{reads[executor]:.2f}",
                f"{N_READS / reads[executor]:,.0f}",
                f"{reads['serial'] / reads[executor]:.2f}x",
            ]
        )
    threaded = [executor for executor in EXECUTORS if executor != "serial"]
    payload = {
        "smoke": SMOKE,
        "cpu_count": CPUS,
        "bitlines_per_block": BITLINES,
        "trace_ops": N_READS,
        "seconds_serial": round(reads["serial"], 3),
        "serial_ops_per_sec": round(N_READS / reads["serial"], 1),
        "write_ops": N_WRITES,
        "write_seconds_serial": round(writes["serial"], 3),
    }
    for executor in threaded:
        n = executor.split(":")[1]
        payload[f"seconds_threaded_{n}"] = round(reads[executor], 3)
        payload[f"speedup_threaded_{n}"] = round(reads["serial"] / reads[executor], 2)
        payload[f"write_seconds_threaded_{n}"] = round(writes[executor], 3)
        payload[f"write_speedup_threaded_{n}"] = round(
            writes["serial"] / writes[executor], 2
        )
    return rows, reads, payload


def bench_intra_scenario(benchmark, emit, emit_json):
    rows, reads, payload = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    table = format_table(
        ["executor", "write s", "write speedup", "read s", "read ops/sec",
         "read speedup"],
        rows,
        title=(
            f"Intra-scenario executor (flash-chip, {BITLINES} bitlines, "
            f"{N_WRITES:,} writes then {N_READS:,} ops at 99% reads, "
            f"{CPUS} CPUs{', SMOKE' if SMOKE else ''})"
        ),
    )
    emit("intra_scenario", table)
    emit_json("intra_scenario", payload)
    if not SMOKE and CPUS >= 4 and "threaded:4" in reads:
        speedup = reads["serial"] / reads["threaded:4"]
        assert speedup >= 1.5, (
            f"threaded:4 intra-scenario read speedup regressed to "
            f"{speedup:.2f}x on {CPUS} CPUs"
        )
