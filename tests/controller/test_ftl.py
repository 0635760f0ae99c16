"""Page-mapping FTL: mapping correctness, GC, wear leveling."""

import numpy as np
import pytest

from repro.controller.ftl import (
    BlockState,
    FtlObserver,
    GcStarvationError,
    PageMappingFtl,
    SsdConfig,
)

SMALL = SsdConfig(blocks=8, pages_per_block=16, overprovision=0.45, gc_threshold_blocks=2)


def test_write_then_read_maps_consistently():
    ftl = PageMappingFtl(SMALL)
    loc = ftl.write(5)
    assert ftl.read(5) == loc
    ftl.check_invariants()


def test_read_unwritten_returns_none():
    ftl = PageMappingFtl(SMALL)
    assert ftl.read(3) is None


def test_unmapped_reads_charge_no_disturb_pressure():
    """Reads of never-written pages touch no flash: they count in their
    own bucket (not host_reads) and charge no block's reclaim counter."""
    ftl = PageMappingFtl(SMALL)
    for _ in range(25):
        assert ftl.read(3) is None
    assert ftl.unmapped_reads == 25
    assert ftl.host_reads == 0
    assert int(ftl.reads_since_program.sum()) == 0
    ftl.write(3)
    ftl.read(3)
    assert ftl.host_reads == 1
    assert int(ftl.reads_since_program.sum()) == 1


def test_read_many_matches_per_op_reads():
    a, b = PageMappingFtl(SMALL), PageMappingFtl(SMALL)
    for lpn in range(6):
        a.write(lpn)
        b.write(lpn)
    lpns = np.array([0, 1, 1, 5, 30, 2, 30], dtype=np.int64)
    mapped = a.read_many(lpns)
    for lpn in lpns:
        b.read(int(lpn))
    assert a.host_reads == b.host_reads == 5
    assert a.unmapped_reads == b.unmapped_reads == 2
    assert np.array_equal(a.reads_since_program, b.reads_since_program)
    assert mapped.size == 5


def test_overwrite_invalidates_old_copy():
    ftl = PageMappingFtl(SMALL)
    first = ftl.write(7)
    second = ftl.write(7)
    assert first != second
    assert ftl.read(7) == second
    assert ftl.valid_count.sum() == 1
    ftl.check_invariants()


def test_lpn_bounds_checked():
    ftl = PageMappingFtl(SMALL)
    with pytest.raises(IndexError):
        ftl.write(ftl.config.logical_pages)
    with pytest.raises(IndexError):
        ftl.read(-1)


def test_gc_reclaims_space_under_sustained_writes(rng):
    ftl = PageMappingFtl(SMALL)
    for lpn in rng.integers(0, ftl.config.logical_pages, 2000):
        ftl.write(int(lpn))
    assert ftl.gc_runs > 0
    assert ftl.write_amplification >= 1.0
    ftl.check_invariants()
    # All logical data still readable.
    mapped = np.flatnonzero(ftl.l2p != ftl.INVALID)
    for lpn in mapped[:50]:
        assert ftl.read(int(lpn)) is not None


def test_read_counts_accumulate_per_block():
    ftl = PageMappingFtl(SMALL)
    ftl.write(1)
    block, _ = ftl.read(1)
    before = ftl.reads_since_program[block]
    for _ in range(9):
        ftl.read(1)
    assert ftl.reads_since_program[block] == before + 9


def test_relocate_block_preserves_data():
    ftl = PageMappingFtl(SMALL)
    for lpn in range(10):
        ftl.write(lpn)
    victim = ftl.read(0)[0]
    moved = ftl.relocate_block(victim, now=1.0)
    assert moved > 0
    assert ftl.block_state[victim] == int(BlockState.FREE)
    for lpn in range(10):
        assert ftl.read(lpn) is not None
    ftl.check_invariants()


def test_relocate_resets_read_counter():
    ftl = PageMappingFtl(SMALL)
    ftl.write(1)
    for _ in range(100):
        ftl.read(1)
    block = ftl.read(1)[0]
    ftl.relocate_block(block, now=2.0)
    new_block = ftl.read(1)[0]
    assert ftl.reads_since_program[new_block] <= 2


def test_relocate_free_block_rejected():
    ftl = PageMappingFtl(SMALL)
    free = [b for b in range(SMALL.blocks) if ftl.block_state[b] == int(BlockState.FREE)]
    with pytest.raises(ValueError):
        ftl.relocate_block(free[0], now=0.0)


def test_wear_leveling_prefers_least_worn(rng):
    ftl = PageMappingFtl(SMALL)
    for lpn in rng.integers(0, ftl.config.logical_pages, 4000):
        ftl.write(int(lpn))
    pe = ftl.pe_cycles
    # Greedy GC + least-worn allocation keep wear within a tight band.
    assert pe.max() - pe.min() <= max(4, int(0.5 * pe.max()))


def test_invalid_configs():
    with pytest.raises(ValueError):
        SsdConfig(blocks=2)
    with pytest.raises(ValueError):
        SsdConfig(overprovision=0.9)
    with pytest.raises(ValueError):
        SsdConfig(gc_threshold_blocks=0)


# ----------------------------------------------------------------------
# Batched relocation: bit-identical to the per-page append loop
# ----------------------------------------------------------------------


class _EventRecorder:
    """Observer recording every hook invocation, per-page granularity."""

    def __init__(self):
        self.events = []
        self.runs = []

    def on_append(self, block, page, lpn, old_ppn, now):
        self.events.append(("append", block, page, lpn, old_ppn, now))

    def on_open(self, block, now):
        self.events.append(("open", block, now))

    def on_erase(self, block, now):
        self.events.append(("erase", block, now))

    def on_relocate_begin(self, block, now):
        self.events.append(("relocate", block, now))

    def on_append_many(self, block, pages, lpns, old_ppns, now):
        # Deliberately rely on the FtlObserver default unrolling.
        from repro.controller.ftl import FtlObserver

        FtlObserver.on_append_many(self, block, pages, lpns, old_ppns, now)

    def on_write_run(self, block, pages, lpns, old_ppns, times):
        # Run lengths are kept apart so the event streams stay comparable.
        self.runs.append(len(lpns))
        from repro.controller.ftl import FtlObserver

        FtlObserver.on_write_run(self, block, pages, lpns, old_ppns, times)


def _relocate_per_page(ftl, block, now):
    """The historical per-page relocation loop (pre-batching reference)."""
    if ftl.block_state[block] == int(BlockState.FREE):
        raise ValueError(f"block {block} is free; nothing to relocate")
    if ftl.observer is not None:
        ftl.observer.on_relocate_begin(block, now)
    if block == ftl._active_block:
        ftl.block_state[block] = int(BlockState.CLOSED)
        ftl._active_block = ftl._allocate_block(now)
    start = block * ftl.config.pages_per_block
    lpns = ftl.p2l[start : start + ftl.config.pages_per_block]
    moved = 0
    for lpn in lpns[lpns != ftl.INVALID]:
        ftl._append(int(lpn), now)
        moved += 1
    ftl._erase(block, now)
    return moved


def _prepare_pair(seed=0, writes=600):
    """Two FTLs in an identical, GC-exercised state with recorders."""
    rng = np.random.default_rng(seed)
    lpns = rng.integers(0, SMALL.logical_pages, writes)
    pair = []
    for _ in range(2):
        ftl = PageMappingFtl(SMALL)
        recorder = _EventRecorder()
        ftl.observer = recorder
        for lpn in lpns:
            ftl.write(int(lpn), now=1.0)
        recorder.events.clear()
        pair.append((ftl, recorder))
    return pair


def _assert_same_state(a, b):
    assert np.array_equal(a.l2p, b.l2p)
    assert np.array_equal(a.p2l, b.p2l)
    assert np.array_equal(a.valid_count, b.valid_count)
    assert np.array_equal(a.block_state, b.block_state)
    assert np.array_equal(a.write_pointer, b.write_pointer)
    assert np.array_equal(a.pe_cycles, b.pe_cycles)
    assert np.array_equal(a.reads_since_program, b.reads_since_program)
    assert np.array_equal(a.program_time, b.program_time)
    assert a._free_blocks == b._free_blocks
    assert a._active_block == b._active_block
    assert a.flash_writes == b.flash_writes
    assert a.host_writes == b.host_writes
    assert a.host_reads == b.host_reads
    assert a.unmapped_reads == b.unmapped_reads
    assert a.gc_runs == b.gc_runs


def test_batched_relocation_matches_per_page_loop():
    """relocate_block's bulk path == the per-page reference: same final
    state and the same per-page observer event sequence."""
    (batched, rec_b), (reference, rec_r) = _prepare_pair()
    victims = np.flatnonzero(batched.block_state == int(BlockState.CLOSED))[:3]
    for victim in victims:
        moved_b = batched.relocate_block(int(victim), now=2.0)
        moved_r = _relocate_per_page(reference, int(victim), now=2.0)
        assert moved_b == moved_r
    _assert_same_state(batched, reference)
    assert rec_b.events == rec_r.events
    batched.check_invariants()


def test_batched_relocation_spanning_multiple_destinations():
    """A relocation that overflows the open block closes it mid-move and
    continues into freshly allocated blocks, exactly like the loop."""
    (batched, rec_b), (reference, rec_r) = _prepare_pair(seed=7)
    # Nearly fill the active block so the victim's pages must span it.
    fill = SMALL.pages_per_block - int(
        batched.write_pointer[batched._active_block]
    ) - 2
    for i in range(max(fill, 0)):
        batched.write(i % SMALL.logical_pages, now=1.5)
        reference.write(i % SMALL.logical_pages, now=1.5)
    rec_b.events.clear()
    rec_r.events.clear()
    closed = np.flatnonzero(batched.block_state == int(BlockState.CLOSED))
    victim = int(closed[np.argmax(batched.valid_count[closed])])
    assert batched.valid_count[victim] > 2
    batched.relocate_block(victim, now=2.0)
    _relocate_per_page(reference, victim, now=2.0)
    _assert_same_state(batched, reference)
    assert rec_b.events == rec_r.events
    # The relocation really did cross a block boundary.
    open_events = [e for e in rec_b.events if e[0] == "open"]
    assert open_events, "victim should have spanned into a new destination"
    batched.check_invariants()


def test_batched_relocation_of_active_block():
    (batched, rec_b), (reference, rec_r) = _prepare_pair(seed=3)
    active = batched._active_block
    assert reference._active_block == active
    if batched.valid_count[active] == 0:
        batched.write(0, now=1.5)
        reference.write(0, now=1.5)
        rec_b.events.clear()
        rec_r.events.clear()
        active = batched._active_block
    batched.relocate_block(int(active), now=2.0)
    _relocate_per_page(reference, int(active), now=2.0)
    _assert_same_state(batched, reference)
    assert rec_b.events == rec_r.events


# ----------------------------------------------------------------------
# Batched host writes: block-bounded runs == the write() loop
# ----------------------------------------------------------------------


def _write_both(batched, reference, lpns, t0=2.0):
    """write_many on *batched*, a write() loop on *reference*, with
    distinct per-write timestamps."""
    lpns = np.asarray(lpns, dtype=np.int64)
    times = t0 + 0.001 * np.arange(lpns.size)
    batched.write_many(lpns, times)
    for lpn, now in zip(lpns, times):
        reference.write(int(lpn), float(now))


def _assert_same_run(pair):
    (batched, rec_b), (reference, rec_r) = pair
    _assert_same_state(batched, reference)
    assert rec_b.events == rec_r.events
    batched.check_invariants()


def test_write_many_matches_write_loop_through_gc():
    """Many runs over a hot set (repeated lpns inside runs), with GC
    firing at run ends and relocations spanning blocks."""
    pair = _prepare_pair(seed=11)
    rng = np.random.default_rng(5)
    hot = rng.integers(0, SMALL.logical_pages, 6)
    lpns = np.where(
        rng.random(900) < 0.6,
        hot[rng.integers(0, hot.size, 900)],
        rng.integers(0, SMALL.logical_pages, 900),
    )
    _write_both(pair[0][0], pair[1][0], lpns)
    _assert_same_run(pair)
    (batched, rec_b), _ = pair
    assert batched.gc_runs > 0
    assert max(rec_b.runs) > 1
    assert sum(rec_b.runs) == lpns.size


def test_write_many_repeats_inside_one_run():
    """A run that rewrites an lpn several times, one whose first copy sits
    earlier in the open block, and a run that exactly fills the block."""
    pair = _prepare_pair(seed=2)
    (batched, rec_b), (reference, _) = pair
    # Advance until lpn 3's first copy can sit in an open block that still
    # has room for the whole run below.
    while SMALL.pages_per_block - int(batched.write_pointer[batched._active_block]) < 8:
        _write_both(batched, reference, [30], t0=1.4)
    _write_both(batched, reference, [3, 4], t0=1.5)
    room = SMALL.pages_per_block - int(batched.write_pointer[batched._active_block])
    assert room >= 6
    run = [3, 9, 3, 3, 9] + [20 + i for i in range(room - 5)]
    rec_b.runs.clear()
    _write_both(batched, reference, run)
    assert rec_b.runs == [room]
    _assert_same_run(pair)
    # The run filled the block exactly: it closed and the next one opened.
    assert any(e[0] == "open" for e in rec_b.events)


def test_write_many_single_write_runs():
    """One page of room left: the next run is a single write."""
    pair = _prepare_pair(seed=4)
    (batched, rec_b), (reference, _) = pair
    room = SMALL.pages_per_block - int(batched.write_pointer[batched._active_block])
    _write_both(batched, reference, np.arange(room - 1), t0=1.5)
    rec_b.runs.clear()
    _write_both(batched, reference, [7, 7, 8])
    assert rec_b.runs[0] == 1
    _assert_same_run(pair)


def test_write_many_shrinks_runs_while_free_pool_is_short():
    """With the free pool below the GC threshold every write runs GC, so
    runs shrink to single writes until GC refills the pool."""
    pair = _prepare_pair(seed=6)
    for ftl, _ in pair:
        # Hand-built short pool: park free blocks as closed, empty blocks
        # (GC reclaims them first, having no valid pages).
        while len(ftl._free_blocks) >= SMALL.gc_threshold_blocks:
            block = ftl._free_blocks.pop()
            ftl.block_state[block] = int(BlockState.CLOSED)
            ftl.write_pointer[block] = SMALL.pages_per_block
    (batched, rec_b), (reference, _) = pair
    _write_both(batched, reference, [1, 2, 1, 5])
    assert rec_b.runs[0] == 1
    _assert_same_run(pair)


def test_write_many_validates_lpns_before_writing():
    ftl = PageMappingFtl(SMALL)
    with pytest.raises(IndexError):
        ftl.write_many(np.array([0, SMALL.logical_pages]), np.zeros(2))
    assert ftl.host_writes == 0
    ftl.write_many(np.empty(0, dtype=np.int64), np.empty(0))
    assert ftl.flash_writes == 0


@pytest.mark.parametrize(
    "lpns,times",
    [
        # One timestamp for three writes: a zip over the pair would apply
        # all three writes but report one of them to an observer.
        (np.array([1, 2, 3]), np.array([5.0])),
        (np.array([1, 2]), np.array([5.0, 6.0, 7.0])),
        # A 2-D batch would otherwise fail mid-run with a bare TypeError.
        (np.array([[1, 2], [3, 4]]), np.zeros((2, 2))),
        (np.array([1, 2, 3, 4]), np.zeros((2, 2))),
    ],
    ids=["short-times", "long-times", "2d", "2d-times"],
)
def test_write_many_rejects_mismatched_inputs_before_writing(lpns, times):
    ftl = PageMappingFtl(SMALL)
    recorder = _EventRecorder()
    ftl.observer = recorder
    state = PageMappingFtl(SMALL)
    with pytest.raises(ValueError, match="1-D lpns and times of equal length"):
        ftl.write_many(lpns, times)
    assert ftl.host_writes == 0
    assert recorder.events == [] and recorder.runs == []
    _assert_same_state(ftl, state)


class _PageWriter(FtlObserver):
    """Writes into the ``pages`` a batched hook hands over."""

    def on_write_run(self, block, pages, lpns, old_ppns, times):
        pages[0] = 0

    def on_append_many(self, block, pages, lpns, old_ppns, now):
        pages[0] = 0


def test_observers_get_read_only_pages():
    """Batched hooks hand observers views of the FTL's page table: a
    write through one raises instead of corrupting later runs."""
    ftl = PageMappingFtl(SMALL)
    ftl.write_many(np.arange(20), np.zeros(20))
    ftl.observer = _PageWriter()
    with pytest.raises(ValueError, match="read-only"):
        ftl.write_many(np.array([1, 2]), np.ones(2))
    with pytest.raises(ValueError, match="read-only"):
        ftl.relocate_block(ftl.read(0)[0], now=2.0)
