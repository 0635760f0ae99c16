"""Property-based FTL invariants under random operation sequences."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.controller import SimulationEngine
from repro.controller.ftl import (
    BlockState,
    FtlObserver,
    GcStarvationError,
    PageMappingFtl,
    SsdConfig,
)
from repro.units import days
from repro.workloads import IoTrace, OP_READ, OP_WRITE

CONFIG = SsdConfig(blocks=6, pages_per_block=8, overprovision=0.45, gc_threshold_blocks=1)

operations = st.lists(
    st.tuples(st.booleans(), st.integers(0, CONFIG.logical_pages - 1)),
    min_size=1,
    max_size=300,
)


@settings(max_examples=50, deadline=None)
@given(operations)
def test_mapping_invariants_hold(ops):
    ftl = PageMappingFtl(CONFIG)
    written = set()
    for is_write, lpn in ops:
        if is_write:
            ftl.write(lpn)
            written.add(lpn)
        else:
            loc = ftl.read(lpn)
            # Reads of written pages always resolve; never-written don't.
            assert (loc is not None) == (lpn in written)
    ftl.check_invariants()
    # Every written page remains mapped and unique.
    assert ftl.valid_count.sum() == len(written)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    read_fraction=st.floats(0.0, 1.0),
    reclaim=st.one_of(st.none(), st.integers(5, 200)),
)
def test_invariants_hold_after_every_maintenance_window(seed, read_fraction, reclaim):
    """Randomized mixed traces through the batched engine, with refresh
    and read reclaim enabled, keep the mapping consistent at every
    maintenance boundary — not just at the end of the run."""
    rng = np.random.default_rng(seed)
    n_ops = int(rng.integers(50, 600))
    timestamps = np.sort(rng.uniform(0, days(rng.uniform(0.5, 12.0)), n_ops))
    ops = np.where(rng.random(n_ops) < read_fraction, OP_READ, OP_WRITE).astype(
        np.int64
    )
    lpns = rng.integers(0, CONFIG.logical_pages, n_ops).astype(np.int64)
    trace = IoTrace(timestamps, ops, lpns, "random-mixed")
    engine = SimulationEngine(
        CONFIG,
        refresh_interval_days=3.0,
        read_reclaim_threshold=reclaim,
        batch=True,
    )
    windows = []

    def check(e):
        e.ftl.check_invariants()
        windows.append(e.now)

    stats = engine.run_trace(trace, on_window=check)
    assert len(windows) >= 1
    reads = int((ops == OP_READ).sum())
    assert stats.host_reads + stats.unmapped_reads == reads
    assert stats.host_writes == n_ops - reads


@settings(max_examples=20, deadline=None)
@given(st.lists(st.integers(0, CONFIG.logical_pages - 1), min_size=50, max_size=400))
def test_write_amplification_bounded(lpns):
    ftl = PageMappingFtl(CONFIG)
    for lpn in lpns:
        ftl.write(lpn)
    assert ftl.write_amplification >= 1.0
    # With 30% overprovision WA stays moderate.
    assert ftl.write_amplification < 8.0


class _EventLog(FtlObserver):
    """Every observer event with its timestamp, per write and per page
    (batched hooks unroll through the FtlObserver defaults)."""

    def __init__(self):
        self.events = []

    def on_append(self, block, page, lpn, old_ppn, now):
        self.events.append(("append", block, page, lpn, old_ppn, now))

    def on_open(self, block, now):
        self.events.append(("open", block, now))

    def on_erase(self, block, now):
        self.events.append(("erase", block, now))

    def on_relocate_begin(self, block, now):
        self.events.append(("relocate", block, now))


FTL_STATE = (
    "l2p", "p2l", "valid_count", "block_state", "write_pointer", "pe_cycles",
    "reads_since_program", "program_time", "_free_blocks", "_active_block",
    "host_writes", "flash_writes", "host_reads", "unmapped_reads", "gc_runs",
)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    pages_per_block=st.integers(2, 16),
    gc_threshold=st.integers(1, 2),
    refresh_days=st.sampled_from([0.5, 2.0, 7.0]),
    reclaim=st.one_of(st.none(), st.integers(2, 60)),
    period_days=st.sampled_from([0.25, 1.0]),
    observe=st.booleans(),
    read_fraction=st.floats(0.0, 0.95),
)
def test_counter_run_replay_matches_per_op_loop(
    seed,
    pages_per_block,
    gc_threshold,
    refresh_days,
    reclaim,
    period_days,
    observe,
    read_fraction,
):
    """Write-heavy to read-heavy traces over a few hot lpns (so runs
    repeat lpns) on tiny drives: batched counter windows replay host
    writes as runs and join reads to the change log, and must leave the
    stats, the whole FTL state and the observer's event stream
    (timestamps included) exactly as the per-op loop does."""
    config = SsdConfig(
        blocks=8,
        pages_per_block=pages_per_block,
        overprovision=0.4,
        gc_threshold_blocks=gc_threshold,
    )
    rng = np.random.default_rng(seed)
    n_ops = int(rng.integers(20, 400))
    hot = rng.integers(0, config.logical_pages, int(rng.integers(1, 5)))
    lpns = np.where(
        rng.random(n_ops) < 0.7,
        hot[rng.integers(0, hot.size, n_ops)],
        rng.integers(0, config.logical_pages, n_ops),
    ).astype(np.int64)
    ops = np.where(rng.random(n_ops) < read_fraction, OP_READ, OP_WRITE)
    timestamps = np.sort(rng.uniform(0, days(rng.uniform(0.2, 6.0)), n_ops))
    trace = IoTrace(timestamps, ops.astype(np.int64), lpns, "hot-writes")
    runs = []
    for batch in (False, True):
        engine = SimulationEngine(
            config,
            refresh_interval_days=refresh_days,
            read_reclaim_threshold=reclaim,
            maintenance_period_days=period_days,
            batch=batch,
        )
        log = _EventLog() if observe else None
        engine.ftl.observer = log
        stats = engine.run_trace(trace)
        assert engine.ftl.observer is log
        runs.append((stats, engine.ftl, log))
    (serial, ftl_s, log_s), (batched, ftl_b, log_b) = runs
    assert batched == serial
    for name in FTL_STATE:
        assert np.array_equal(getattr(ftl_b, name), getattr(ftl_s, name)), name
    if observe:
        assert log_b.events == log_s.events


@st.composite
def _block_tables(draw):
    """Random per-block state, valid counts, wear and free list, drawn
    from narrow ranges so ties are common."""
    blocks = draw(st.integers(5, 24))
    pages_per_block = draw(st.integers(1, 6))
    states = draw(st.lists(st.sampled_from(list(BlockState)), min_size=blocks,
                           max_size=blocks))
    valid = draw(st.lists(st.integers(0, pages_per_block), min_size=blocks,
                          max_size=blocks))
    wear = draw(st.lists(st.integers(0, 3), min_size=blocks, max_size=blocks))
    free = draw(st.permutations(range(blocks)))[: draw(st.integers(1, blocks))]
    return blocks, pages_per_block, states, valid, wear, free


@settings(max_examples=200, deadline=None)
@given(_block_tables())
def test_victim_and_allocation_picks_match_their_definitions(tables):
    """GC's victim is the lowest-index closed block with the fewest valid
    pages (no closed block: GcStarvationError), and allocation takes the
    first free-list position with the least wear."""
    blocks, pages_per_block, states, valid, wear, free = tables
    ftl = PageMappingFtl(
        SsdConfig(blocks=blocks, pages_per_block=pages_per_block,
                  overprovision=0.45, gc_threshold_blocks=1)
    )
    ftl.block_state[:] = states
    ftl.valid_count[:] = valid
    ftl.pe_cycles[:] = wear
    picked = []
    ftl.relocate_block = lambda block, now: picked.append(block)
    closed = np.flatnonzero(ftl.block_state == int(BlockState.CLOSED))
    if closed.size:
        assert ftl.collect_garbage(1.0) == picked[0]
        assert picked == [int(closed[np.argmin(ftl.valid_count[closed])])]
    else:
        with pytest.raises(GcStarvationError):
            ftl.collect_garbage(1.0)
    ftl._free_blocks = list(free)
    position = min(range(len(free)), key=lambda i: wear[free[i]])
    assert ftl._allocate_block(2.0) == free[position]
    assert ftl._free_blocks == free[:position] + free[position + 1:]
