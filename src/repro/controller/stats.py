"""Trace and drive statistics feeding the lifetime studies.

The quantity that couples a workload to read-disturb damage is the read
pressure on the *hottest* block: disturb accumulates per block, refresh
clears it every interval, so endurance is set by the block that absorbs
the most reads per interval.  These helpers compute per-block pressure
from a trace with static logical-to-block binning — a fast, deterministic
proxy for the placement a page-mapping FTL produces (hot logical pages
land in some block either way; the FTL path in
:mod:`repro.controller.engine` measures the same quantity with full
mapping dynamics).
"""

from __future__ import annotations

import numpy as np

from repro.units import SECONDS_PER_DAY
from repro.workloads.trace import IoTrace, OP_READ


def per_block_read_counts(
    ppns: np.ndarray, pages_per_block: int, blocks: int
) -> np.ndarray:
    """Per-block read counts from a batch of physical-page reads.

    The ``bincount`` grouping shared by the static-binning helpers below
    and the batched engine's read flush (:meth:`PageMappingFtl.read_many`).
    """
    if pages_per_block < 1 or blocks < 1:
        raise ValueError("pages_per_block and blocks must be positive")
    return np.bincount(np.asarray(ppns) // pages_per_block, minlength=blocks)


def block_read_pressure(trace: IoTrace, pages_per_block: int) -> np.ndarray:
    """Reads per block over the whole trace (static striping)."""
    if pages_per_block < 1:
        raise ValueError("pages_per_block must be positive")
    reads = trace.lpns[trace.ops == OP_READ]
    if reads.size == 0:
        return np.zeros(1, dtype=np.int64)
    blocks = reads // pages_per_block
    return np.bincount(blocks)


def hottest_block_reads_per_day(trace: IoTrace, pages_per_block: int) -> float:
    """Daily read pressure on the hottest block of the trace."""
    duration_days = trace.duration_seconds / SECONDS_PER_DAY
    if duration_days <= 0:
        raise ValueError("trace must span a positive duration")
    pressure = block_read_pressure(trace, pages_per_block)
    return float(pressure.max()) / duration_days


def read_pressure_percentiles(
    trace: IoTrace, pages_per_block: int, percentiles=(50.0, 90.0, 99.0, 100.0)
) -> dict[float, float]:
    """Distribution summary of per-block total reads."""
    pressure = block_read_pressure(trace, pages_per_block)
    return {p: float(np.percentile(pressure, p)) for p in percentiles}
