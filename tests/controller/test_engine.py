"""Unified simulation engine: backends, batching, and exact equivalence."""

import numpy as np
import pytest

from repro.controller import (
    CounterBackend,
    FlashChipBackend,
    FtlObserver,
    PhysicsBackend,
    SimulationEngine,
    SsdConfig,
)
from repro.controller.engine import _stable_argsort
from repro.units import days
from repro.workloads import IoTrace, OP_READ, OP_WRITE

SMALL = SsdConfig(blocks=16, pages_per_block=32, overprovision=0.2)


def _mixed_trace(n_ops, read_fraction, duration_days, pages, seed=0):
    rng = np.random.default_rng(seed)
    ts = np.sort(rng.uniform(0, days(duration_days), n_ops))
    ops = np.where(rng.random(n_ops) < read_fraction, OP_READ, OP_WRITE).astype(
        np.int64
    )
    lpns = rng.integers(0, pages, n_ops).astype(np.int64)
    return IoTrace(ts, ops, lpns, "mixed")


def test_backends_satisfy_protocol():
    assert isinstance(CounterBackend(), PhysicsBackend)
    assert isinstance(FlashChipBackend(), PhysicsBackend)


def test_engine_defaults_to_batched_counter_backend():
    engine = SimulationEngine(SMALL)
    assert isinstance(engine.backend, CounterBackend)
    assert engine.batch


@pytest.mark.parametrize(
    "read_fraction,pages_frac,reclaim,seed",
    [
        (0.6, 0.5, None, 0),
        (0.9, 0.1, 150, 1),
        (0.5, 1.0, 100, 2),
        (0.99, 0.05, None, 3),
        (0.0, 0.7, None, 4),
    ],
)
def test_batched_counter_backend_reproduces_serial_stats_exactly(
    read_fraction, pages_frac, reclaim, seed
):
    """The windowed/vectorized path is bit-for-bit the per-op loop."""
    pages = max(1, int(SMALL.logical_pages * pages_frac))
    trace = _mixed_trace(20_000, read_fraction, 9.0, pages, seed)
    serial = SimulationEngine(
        SMALL, read_reclaim_threshold=reclaim, batch=False
    ).run_trace(trace)
    batched = SimulationEngine(
        SMALL, read_reclaim_threshold=reclaim, batch=True
    ).run_trace(trace)
    assert batched == serial


def test_dirty_reads_resolve_in_op_order():
    """Reads of a page written in the same window charge the pre-write
    block before the write, and the new block after it."""
    cfg = SsdConfig(blocks=8, pages_per_block=4, overprovision=0.45)
    ts = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
    ops = np.array([OP_WRITE, OP_READ, OP_WRITE, OP_READ, OP_READ], dtype=np.int64)
    lpns = np.zeros(5, dtype=np.int64)
    trace = IoTrace(ts, ops, lpns, "dirty")
    serial = SimulationEngine(cfg, batch=False)
    batched = SimulationEngine(cfg, batch=True)
    s = serial.run_trace(trace)
    b = batched.run_trace(trace)
    assert b == s
    assert np.array_equal(
        serial.ftl.reads_since_program, batched.ftl.reads_since_program
    )


def test_unmapped_reads_charge_no_pressure():
    sim = SimulationEngine(SMALL)
    trace = IoTrace(
        np.array([0.0, 1.0, 2.0]),
        np.array([OP_READ, OP_READ, OP_WRITE], dtype=np.int64),
        np.array([5, 6, 7], dtype=np.int64),
        "unmapped",
    )
    stats = sim.run_trace(trace)
    assert stats.unmapped_reads == 2
    assert stats.host_reads == 0
    assert int(sim.ftl.reads_since_program.sum()) == 0


def test_on_window_callback_sees_consistent_state():
    trace = _mixed_trace(8_000, 0.7, 5.0, SMALL.logical_pages // 2, seed=9)
    windows = []

    def check(engine):
        engine.ftl.check_invariants()
        windows.append(engine.now)

    SimulationEngine(SMALL, read_reclaim_threshold=300).run_trace(
        trace, on_window=check
    )
    # One callback per daily maintenance pass plus the final pass.
    assert len(windows) == int(trace.timestamps[-1] // days(1)) + 1


def test_pure_read_windows_are_vectorized_and_exact():
    """A write-free window takes the all-at-once flush path."""
    n = 5_000
    rng = np.random.default_rng(3)
    write_ts = np.linspace(0.0, days(0.1), 50)
    read_ts = np.sort(rng.uniform(days(1.5), days(2.5), n))
    trace = IoTrace(
        np.concatenate([write_ts, read_ts]),
        np.concatenate(
            [np.full(50, OP_WRITE), np.full(n, OP_READ)]
        ).astype(np.int64),
        np.concatenate([np.arange(50), rng.integers(0, 50, n)]).astype(np.int64),
        "read-heavy",
    )
    serial = SimulationEngine(SMALL, batch=False).run_trace(trace)
    batched = SimulationEngine(SMALL, batch=True).run_trace(trace)
    assert batched == serial
    assert batched.host_reads == n


def test_engine_batched_matches_serial_on_preconditioned_read_heavy_trace():
    """Large preconditioned hot-read run: the shape the batched path is
    built for stays exact.  (The >=10x wall-clock gate lives in
    benchmarks/bench_engine_throughput.py, not the unit suite.)"""
    cfg = SsdConfig(blocks=64, pages_per_block=128, overprovision=0.2)
    footprint = 4_000
    rng = np.random.default_rng(11)
    n = 200_000
    pre = IoTrace(
        np.zeros(footprint),
        np.full(footprint, OP_WRITE, dtype=np.int64),
        rng.permutation(footprint).astype(np.int64),
        "precondition",
    )
    trace = IoTrace(
        np.sort(rng.uniform(days(0.1), days(6), n)),
        np.where(rng.random(n) < 0.99, OP_READ, OP_WRITE).astype(np.int64),
        rng.integers(0, footprint, n).astype(np.int64),
        "hot",
    )

    def run(batch):
        engine = SimulationEngine(cfg, read_reclaim_threshold=50_000, batch=batch)
        engine.run_trace(pre)
        return engine.run_trace(trace)

    assert run(True) == run(False)


FTL_STATE = (
    "l2p", "p2l", "valid_count", "block_state", "write_pointer", "pe_cycles",
    "reads_since_program", "program_time", "_free_blocks", "_active_block",
    "host_writes", "flash_writes", "host_reads", "unmapped_reads", "gc_runs",
)


class _Relocations(FtlObserver):
    """Relocated lpns with the host writes applied when they moved."""

    def __init__(self, ftl):
        self.ftl = ftl
        self.moves = []
        self.runs = 0

    def on_append_many(self, block, pages, lpns, old_ppns, now):
        self.moves.append((lpns.copy(), self.ftl.host_writes))

    def on_write_run(self, block, pages, lpns, old_ppns, times):
        self.runs += 1


def test_batched_matches_serial_on_a_drive_past_16_bit_lpns():
    """More than 65,536 logical pages, so the window join sorts 32-bit
    keys: after a full fill, two windows of mixed traffic over hot and
    random lpns hold host runs, GC relocations and reads of relocated
    lpns, and batched windows leave the stats and the whole FTL state,
    read counters included, exactly as the per-op loop does."""
    cfg = SsdConfig(blocks=20, pages_per_block=4096, overprovision=0.18)
    pages = cfg.logical_pages
    assert np.min_scalar_type(pages - 1) == np.uint32
    rng = np.random.default_rng(5)
    n = 24_000
    hot = rng.integers(0, pages, 2_000)
    mixed_lpns = np.where(
        rng.random(n) < 0.5,
        hot[rng.integers(0, hot.size, n)],
        rng.integers(0, pages, n),
    )
    trace = IoTrace(
        np.concatenate([np.zeros(pages), np.sort(rng.uniform(0, days(1.8), n))]),
        np.concatenate(
            [np.full(pages, OP_WRITE), np.where(rng.random(n) < 0.5, OP_READ, OP_WRITE)]
        ).astype(np.int64),
        np.concatenate([rng.permutation(pages), mixed_lpns]).astype(np.int64),
        "fill-then-mixed",
    )
    runs = []
    for batch in (False, True):
        engine = SimulationEngine(cfg, batch=batch)
        relocations = _Relocations(engine.ftl)
        engine.ftl.observer = relocations
        runs.append((engine.run_trace(trace), engine.ftl, relocations))
    (serial, ftl_s, _), (batched, ftl_b, relocations) = runs
    assert batched == serial
    for name in FTL_STATE:
        assert np.array_equal(getattr(ftl_b, name), getattr(ftl_s, name)), name
    assert serial.gc_runs > 0 and relocations.runs > 1
    # Reads later in the same window than a relocation of their lpn.
    write_positions = np.flatnonzero(trace.ops == OP_WRITE)
    boundary = np.searchsorted(trace.timestamps, days(1.0))
    later_reads = 0
    for lpns, host_writes in relocations.moves:
        moved_at = write_positions[host_writes - 1]
        end = boundary if moved_at < boundary else len(trace)
        window = slice(moved_at + 1, end)
        reads = trace.lpns[window][trace.ops[window] == OP_READ]
        later_reads += int(np.isin(reads, lpns).sum())
    assert later_reads > 1_000


def test_flash_chip_backend_binds_blocks_lazily():
    backend = FlashChipBackend(bitlines_per_block=256, seed=1)
    engine = SimulationEngine(SMALL, backend=backend, batch=True)
    trace = _mixed_trace(500, 0.5, 0.5, 40, seed=2)
    engine.run_trace(trace)
    assert 0 < len(backend._blocks) <= SMALL.blocks
    summary = backend.summary()
    assert summary["pages_checked"] > 0
    assert summary["data_loss_events"] == 0  # fresh blocks: nothing fails


def test_flash_chip_backend_serial_and_batched_agree_on_stats():
    """Physics decode granularity differs, but controller-visible stats
    (mapping, counters, maintenance) stay identical across modes."""
    trace = _mixed_trace(2_000, 0.8, 3.0, 60, seed=5)
    runs = []
    for batch in (False, True):
        backend = FlashChipBackend(bitlines_per_block=256, seed=3)
        engine = SimulationEngine(SMALL, backend=backend, batch=batch)
        runs.append(engine.run_trace(trace))
    assert runs[0] == runs[1]


def test_user_installed_observer_survives_batched_runs():
    """Batched window replay borrows the FTL observer hook; an observer
    the user installed keeps receiving events and stays installed."""
    from repro.controller import FtlObserver

    class Recorder(FtlObserver):
        def __init__(self):
            self.appends = 0
            self.erases = 0

        def on_append(self, block, page, lpn, old_ppn, now):
            self.appends += 1

        def on_erase(self, block, now):
            self.erases += 1

    trace = _mixed_trace(5_000, 0.5, 3.0, SMALL.logical_pages // 2, seed=8)
    counts = {}
    for batch in (False, True):
        engine = SimulationEngine(SMALL, batch=batch)
        recorder = Recorder()
        engine.ftl.observer = recorder
        engine.run_trace(trace)
        assert engine.ftl.observer is recorder
        counts[batch] = (recorder.appends, recorder.erases)
    assert counts[True] == counts[False]
    assert counts[True][0] > 0


def test_user_observer_does_not_disconnect_physics_backend():
    """Overwriting ftl.observer on a physics engine must not silently
    starve the backend of append events: the engine reclaims the hook
    and chains the user's observer."""
    from repro.controller import FtlObserver

    class Recorder(FtlObserver):
        def __init__(self):
            self.appends = 0

        def on_append(self, block, page, lpn, old_ppn, now):
            self.appends += 1

    backend = FlashChipBackend(bitlines_per_block=256, seed=1)
    engine = SimulationEngine(SMALL, backend=backend, batch=True)
    recorder = Recorder()
    engine.ftl.observer = recorder
    engine.run_trace(_mixed_trace(500, 0.5, 0.5, 40, seed=2))
    assert recorder.appends > 0
    assert backend.summary()["pages_checked"] > 0


def test_flash_chip_backend_rejects_odd_pages_per_block():
    backend = FlashChipBackend()
    with pytest.raises(ValueError):
        SimulationEngine(
            SsdConfig(blocks=16, pages_per_block=25, overprovision=0.3),
            backend=backend,
        )


@pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.uint32])
def test_stable_argsort_matches_numpy_stable_argsort(dtype):
    """The join's key sort equals numpy's stable argsort on every key
    width it meets, with heavy repeats, keys spanning both 16-bit halves
    of a 32-bit key, and the width's extreme values."""
    rng = np.random.default_rng(3)
    top = np.iinfo(dtype).max
    keys = np.concatenate([
        rng.integers(0, min(top, 120_000), 50_000),
        rng.integers(0, 40, 20_000),
        [0, top, top, 0],
    ]).astype(dtype)
    rng.shuffle(keys)
    assert np.array_equal(_stable_argsort(keys), np.argsort(keys, kind="stable"))
