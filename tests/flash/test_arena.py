"""The block arena: slab layout, bit-identity, spilling, and cleanup.

Contract under test (docs/architecture.md, "The block arena
(out-of-core block state)"): a :class:`BlockStore` slab carries every
piece of mutable per-block state at deterministic offsets, an
arena-backed :class:`FlashBlock` is bit-identical to a heap-backed one,
LRU eviction is a pure residency hint — data survives any spill
schedule — and the backing file never outlives the store.
"""

import os

import numpy as np
import pytest

from repro.flash.arena import BlockStore, META_I_SLOTS, SlabLayout
from repro.flash.block import FlashBlock
from repro.flash.geometry import FlashGeometry
from repro.rng import RngFactory

GEOMETRY = FlashGeometry(blocks=6, wordlines_per_block=8, bitlines_per_block=64)


def _block_state(fb):
    return (
        fb.pe_cycles,
        fb.total_reads,
        fb.voltage_epoch,
        float(fb._total_exposure),
        fb.program_time.tolist(),
        fb.programmed.tolist(),
        fb.reads_targeted.tolist(),
        fb._exposure_targeted.tolist(),
        fb.cells.true_states.tolist(),
        fb.cells.v0.tolist(),
        fb.cells.susceptibility.tolist(),
        fb.cells.leak.tolist(),
    )


def _exercise(fb, seed=0):
    """Drive a block through program/read/erase/program history."""
    rng = np.random.default_rng(seed)
    bits = fb.geometry.bitlines_per_block
    for wordline in (0, 3, 5):
        lsb = rng.integers(0, 2, bits, dtype=np.uint8)
        msb = rng.integers(0, 2, bits, dtype=np.uint8)
        fb.program_wordline_bits(wordline, lsb, msb, now=10.0)
    fb.record_reads(np.array([0, 3]), np.array([40, 7]), vpass=6.0)
    fb.erase(now=20.0)
    lsb = rng.integers(0, 2, bits, dtype=np.uint8)
    msb = rng.integers(0, 2, bits, dtype=np.uint8)
    fb.program_wordline_bits(1, lsb, msb, now=30.0)
    fb.record_reads(np.array([1]), np.array([11]), vpass=6.0)


# ----------------------------------------------------------------------
# Layout
# ----------------------------------------------------------------------


def test_slab_layout_is_aligned_and_page_rounded():
    layout = SlabLayout(GEOMETRY)
    for spec in layout.fields.values():
        assert spec.offset % 8 == 0, spec.name
    end = max(s.offset + s.nbytes for s in layout.fields.values())
    assert layout.slab_bytes % 4096 == 0
    assert layout.slab_bytes >= end
    # meta_i really holds all the scalar slots the block needs.
    assert layout.fields["meta_i"].shape == (META_I_SLOTS,)


def test_slab_views_do_not_alias_across_fields_or_blocks():
    store = BlockStore(GEOMETRY)
    try:
        a, b = store.slab(0), store.slab(1)
        a.v0.fill(1.0)
        a.leak.fill(2.0)
        a.meta_i[:] = 7
        assert (b.v0 == 0).all() and (b.meta_i == 0).all()
        assert (a.v0 == 1.0).all() and (a.leak == 2.0).all()
        with pytest.raises(IndexError):
            store.slab(GEOMETRY.blocks)
    finally:
        store.close()


# ----------------------------------------------------------------------
# Bit-identity
# ----------------------------------------------------------------------


def test_arena_backed_block_bit_identical_to_heap():
    heap = FlashBlock(GEOMETRY, RngFactory(9), block_id=2)
    _exercise(heap, seed=1)
    store = BlockStore(GEOMETRY)
    try:
        arena = FlashBlock(GEOMETRY, RngFactory(9), block_id=2, store=store)
        _exercise(arena, seed=1)
        assert _block_state(arena) == _block_state(heap)
        # And the physics downstream of the state agrees too.
        assert arena.measure_block_rber(40.0) == heap.measure_block_rber(40.0)
    finally:
        store.close()


# ----------------------------------------------------------------------
# Out-of-core spilling
# ----------------------------------------------------------------------


def test_mmap_lru_evicts_and_data_survives():
    evicted = []
    store = BlockStore(GEOMETRY, resident_limit=2, on_evict=evicted.append)
    try:
        blocks = [
            FlashBlock(GEOMETRY, RngFactory(4), block_id=i, store=store)
            for i in range(4)
        ]
        states = []
        for i, fb in enumerate(blocks):
            _exercise(fb, seed=i)
            states.append(_block_state(fb))
        assert store.evictions > 0
        assert evicted, "eviction callback must fire"
        assert len(store.resident_blocks) <= 2
        # Spilled state refaults intact: every block still reads back
        # exactly what it held before any eviction.
        for fb, state in zip(blocks, states):
            assert _block_state(fb) == state
    finally:
        store.close()


def test_store_rejects_non_positive_resident_limit():
    with pytest.raises(ValueError, match="at least 1"):
        BlockStore(GEOMETRY, resident_limit=0)


# ----------------------------------------------------------------------
# Lifecycle
# ----------------------------------------------------------------------


def test_mmap_close_deletes_backing_file():
    store = BlockStore(GEOMETRY)
    path = store.path
    assert os.path.exists(path)
    FlashBlock(GEOMETRY, RngFactory(0), block_id=0, store=store)
    store.close()
    assert not os.path.exists(path)
    store.close()  # idempotent


def test_mmap_close_with_live_views_deletes_file_immediately():
    store = BlockStore(GEOMETRY)
    path = store.path
    fb = FlashBlock(GEOMETRY, RngFactory(0), block_id=0, store=store)
    # Views are still alive (fb) — close must swallow the BufferError
    # and delete the file anyway.
    store.close()
    assert not os.path.exists(path)
    store.close()  # idempotent
    assert fb.cells.v0.shape  # views stay usable until they die


def test_finalizer_cleans_up_unclosed_store(tmp_path):
    store = BlockStore(GEOMETRY, dir=str(tmp_path))
    assert [p.name for p in tmp_path.iterdir()] == [os.path.basename(store.path)]
    del store  # never closed: the weakref.finalize backstop deletes
    assert list(tmp_path.iterdir()) == []
