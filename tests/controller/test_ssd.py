"""The simulation engine's SSD controller loop end to end on small traces
(default counter backend)."""

import numpy as np
import pytest

from repro.controller.ftl import SsdConfig
from repro.controller.engine import SimulationEngine
from repro.units import days
from repro.workloads import IoTrace, OP_READ, OP_WRITE

SMALL = SsdConfig(blocks=16, pages_per_block=32, overprovision=0.2)


def _trace(n_ops: int, read_fraction: float, duration_days: float, pages: int, seed=0):
    rng = np.random.default_rng(seed)
    ts = np.sort(rng.uniform(0, days(duration_days), n_ops))
    ops = np.where(rng.random(n_ops) < read_fraction, OP_READ, OP_WRITE).astype(np.int64)
    lpns = rng.integers(0, pages, n_ops)
    return IoTrace(ts, ops, lpns.astype(np.int64), "test")


def test_run_trace_accounts_operations():
    sim = SimulationEngine(SMALL)
    trace = _trace(5000, 0.6, 2.0, SMALL.logical_pages // 2)
    stats = sim.run_trace(trace)
    # Reads of never-written pages touch no flash; they are accounted
    # separately so they cannot inflate disturb pressure.
    assert stats.host_reads + stats.host_writes + stats.unmapped_reads == 5000
    assert stats.unmapped_reads > 0
    assert stats.write_amplification >= 1.0
    sim.ftl.check_invariants()


def test_refresh_runs_on_old_data():
    """Data written once and then only read must get refreshed at 7 days."""
    sim = SimulationEngine(SMALL, refresh_interval_days=7)
    n_writes, n_reads = 100, 2000
    write_ts = np.linspace(0.0, days(0.1), n_writes)
    read_ts = np.linspace(days(0.2), days(10.0), n_reads)
    rng = np.random.default_rng(2)
    trace = IoTrace(
        np.concatenate([write_ts, read_ts]),
        np.concatenate(
            [np.full(n_writes, OP_WRITE), np.full(n_reads, OP_READ)]
        ).astype(np.int64),
        np.concatenate(
            [np.arange(n_writes), rng.integers(0, n_writes, n_reads)]
        ).astype(np.int64),
        "write-once-read-many",
    )
    stats = sim.run_trace(trace)
    assert stats.refreshed_blocks > 0


def test_read_reclaim_engages_for_hot_reads():
    sim = SimulationEngine(SMALL, read_reclaim_threshold=200)
    rng = np.random.default_rng(1)
    n = 4000
    ts = np.sort(rng.uniform(0, days(4), n))
    ops = np.full(n, OP_READ, dtype=np.int64)
    ops[:10] = OP_WRITE
    lpns = np.zeros(n, dtype=np.int64)  # hammer one page
    ts.sort()
    stats = sim.run_trace(IoTrace(ts, ops, lpns, "hot"))
    assert stats.reclaimed_blocks >= 3
    # Reclaim caps the exposure at the threshold plus at most one day's
    # reads (~1000/day here) accumulated between maintenance passes.
    assert stats.peak_block_reads_per_interval <= 200 + 1100


def test_peak_interval_reads_tracked():
    sim = SimulationEngine(SMALL, refresh_interval_days=7)
    trace = _trace(3000, 0.9, 3.0, SMALL.logical_pages // 8)
    stats = sim.run_trace(trace)
    assert stats.peak_block_reads_per_interval > 0


def test_invalid_maintenance_period():
    with pytest.raises(ValueError):
        SimulationEngine(SMALL, maintenance_period_days=0.0)
