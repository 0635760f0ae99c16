"""A thousands-of-blocks drive on the out-of-core block arena.

Every other example sizes its chip so the Monte-Carlo cell state fits
comfortably in RAM.  This one goes the other way: a 4096-block drive
whose full per-cell state is hundreds of megabytes, simulated with a
small ``resident_blocks`` budget, so block state lives in a file-backed
arena and only an LRU window of blocks occupies memory at any moment.
Evicted blocks are flushed to the arena's backing file and dropped from
residency (``madvise(MADV_DONTNEED)``); touching one again simply
refaults it — the spill schedule can never change a result, only the
peak RSS.

The script preconditions the whole logical space, runs a read-heavy
workload across it, and reports peak RSS against the size of the full
block state it simulated.

Run:  PYTHONPATH=src python examples/full_drive.py
"""

import resource

import numpy as np

from repro.controller import FlashChipBackend, SimulationEngine, SsdConfig
from repro.units import days
from repro.workloads import IoTrace, OP_READ, OP_WRITE

BLOCKS = 4096
PAGES_PER_BLOCK = 16
BITLINES = 2048
RESIDENT_BLOCKS = 32  # LRU window: ~1.6% of the drive in memory
N_READ_OPS = 30_000


def _peak_rss_mb() -> float:
    # ru_maxrss is KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main() -> None:
    config = SsdConfig(
        blocks=BLOCKS, pages_per_block=PAGES_PER_BLOCK, overprovision=0.2
    )
    backend = FlashChipBackend(
        bitlines_per_block=BITLINES,
        seed=11,
        resident_blocks=RESIDENT_BLOCKS,
    )
    engine = SimulationEngine(config, backend=backend)
    store = backend._store
    slab_mb = store.layout.slab_bytes / 2**20
    print(
        f"drive: {BLOCKS} blocks x {PAGES_PER_BLOCK} pages x {BITLINES} "
        f"bitlines -> {BLOCKS * slab_mb:,.0f} MB of block state on disk, "
        f"{RESIDENT_BLOCKS * slab_mb:,.1f} MB resident budget"
    )

    logical_pages = int(BLOCKS * PAGES_PER_BLOCK * (1 - config.overprovision))
    rng = np.random.default_rng(7)
    precondition = IoTrace(
        np.zeros(logical_pages),
        np.full(logical_pages, OP_WRITE, dtype=np.int64),
        rng.permutation(logical_pages).astype(np.int64),
        "precondition",
    )
    print(f"preconditioning {logical_pages:,} logical pages...")
    engine.run_trace(precondition)
    print(
        f"  bound blocks: {backend.summary()['bound_blocks']:,}, "
        f"evictions so far: {store.evictions:,}, "
        f"peak RSS {_peak_rss_mb():,.0f} MB"
    )

    trace = IoTrace(
        np.sort(rng.uniform(days(0.05), days(2.0), N_READ_OPS)),
        np.where(rng.random(N_READ_OPS) < 0.98, OP_READ, OP_WRITE).astype(
            np.int64
        ),
        rng.integers(0, logical_pages, N_READ_OPS).astype(np.int64),
        "full-drive-reads",
    )
    print(f"reading across the whole drive ({N_READ_OPS:,} ops)...")
    stats = engine.run_trace(trace)
    summary = backend.summary()
    engine.close()

    print(
        f"  host reads {stats.host_reads:,}, "
        f"pages checked {summary['pages_checked']:,}, "
        f"uncorrectable {summary['uncorrectable_pages']}"
    )
    print(
        f"arena evictions: {store.evictions:,} "
        f"(residency capped at {RESIDENT_BLOCKS} blocks throughout)"
    )
    peak = _peak_rss_mb()
    full_state = BLOCKS * slab_mb
    print(
        f"peak RSS: {peak:,.0f} MB for {full_state:,.0f} MB of simulated "
        f"block state ({full_state / peak:.1f}x larger than the process "
        f"ever was)"
    )


if __name__ == "__main__":
    main()
