"""Flash block lifecycle, disturb accounting, and measurement."""

import numpy as np
import pytest

from repro.rng import RngFactory
from repro.flash import FlashBlock, FlashGeometry
from repro.units import days


def test_program_then_read_returns_data(block):
    bits = block.geometry.bitlines_per_block
    rng = np.random.default_rng(0)
    lsb = rng.integers(0, 2, bits, dtype=np.uint8)
    msb = rng.integers(0, 2, bits, dtype=np.uint8)
    block.erase()
    block.program_wordline_bits(0, lsb, msb)
    read_lsb = block.read_page(0)
    read_msb = block.read_page(1)
    # Fresh block: error rate must be tiny (a few cells at most).
    assert (read_lsb != lsb).sum() <= 2
    assert (read_msb != msb).sum() <= 2


def test_double_program_without_erase_rejected(block):
    bits = np.zeros(block.geometry.bitlines_per_block, dtype=np.uint8)
    block.erase()
    block.program_wordline_bits(0, bits, bits)
    with pytest.raises(RuntimeError):
        block.program_wordline_bits(0, bits, bits)


def test_erase_counts_pe_cycle_and_clears_reads(programmed_block):
    blk = programmed_block
    blk.apply_read_disturb(1000)
    pe_before = blk.pe_cycles
    blk.erase()
    assert blk.pe_cycles == pe_before + 1
    assert blk.total_reads == 0
    assert blk.disturb_exposure(0) == 0.0


def test_cycle_wear_cannot_decrease(programmed_block):
    with pytest.raises(ValueError):
        programmed_block.cycle_wear_to(10)


def test_read_page_charges_one_read_to_its_wordline(small_geometry):
    factory = RngFactory(11)
    block = FlashBlock(small_geometry, factory, block_id=0)
    other = FlashBlock(small_geometry, factory, block_id=1)
    for blk in (block, other):
        blk.erase()
        blk.program_random()
    block.read_page(3)  # wordline 1's MSB page, at the default Vpass
    assert block.total_reads == 1
    expected = np.zeros(small_geometry.wordlines_per_block, dtype=np.int64)
    expected[1] = 1
    assert np.array_equal(block.reads_targeted, expected)
    assert other.total_reads == 0 and not other.reads_targeted.any()


def test_blocks_with_same_seed_identical():
    g = FlashGeometry(blocks=1, wordlines_per_block=4, bitlines_per_block=256)
    a, b = FlashBlock(g, RngFactory(5)), FlashBlock(g, RngFactory(5))
    for blk in (a, b):
        blk.erase()
        blk.program_random()
    assert np.array_equal(a.cells.v0, b.cells.v0)
    assert np.array_equal(a.cells.true_states, b.cells.true_states)


def test_blocks_with_different_seeds_differ():
    g = FlashGeometry(blocks=1, wordlines_per_block=4, bitlines_per_block=256)
    a, b = FlashBlock(g, RngFactory(5)), FlashBlock(g, RngFactory(6))
    assert not np.array_equal(a.cells.susceptibility, b.cells.susceptibility)


def test_read_disturbs_other_wordlines_only(block):
    block.erase()
    block.program_random()
    block.record_read(wordline=3, count=100)
    assert block.disturb_exposure(3) == 0.0
    for w in [0, 1, 2, 4]:
        assert block.disturb_exposure(w) == pytest.approx(100.0)


def test_uniform_disturb_spreads_exposure(block):
    block.erase()
    block.apply_read_disturb(800)
    w = block.geometry.wordlines_per_block
    expected = 800.0 * (w - 1) / w
    for wordline in range(w):
        assert block.disturb_exposure(wordline) == pytest.approx(expected)


def test_uniform_disturb_preserves_total_read_count(block):
    """The integer spread must not drop the remainder: reads_targeted
    always sums to total_reads, and the split is deterministic."""
    block.erase()
    w = block.geometry.wordlines_per_block
    reads = 7 * w + 3  # deliberately not a multiple of the wordline count
    block.apply_read_disturb(reads)
    assert int(block.reads_targeted.sum()) == block.total_reads == reads
    assert block.reads_targeted.max() - block.reads_targeted.min() == 1
    # The remainder lands on the lowest wordlines, deterministically.
    assert (block.reads_targeted[:3] == 8).all()
    assert (block.reads_targeted[3:] == 7).all()


def test_record_reads_batch_matches_loop(block):
    import copy

    block.erase()
    other = copy.deepcopy(block)
    wordlines = np.array([0, 2, 2, 4])
    counts = np.array([5, 1, 3, 7])
    block.record_reads(wordlines, counts, vpass=505.0)
    for wl, c in zip(wordlines, counts):
        other.record_read(int(wl), vpass=505.0, count=int(c))
    assert block.total_reads == other.total_reads == 16
    assert np.array_equal(block.reads_targeted, other.reads_targeted)
    assert np.allclose(block.disturb_exposure(), other.disturb_exposure())


def test_relaxed_vpass_reads_accumulate_less_exposure(block):
    block.erase()
    block.record_read(0, vpass=512.0, count=100)
    nominal = block.disturb_exposure(1)
    block2 = FlashBlock(block.geometry, RngFactory(9))
    block2.erase()
    block2.record_read(0, vpass=512.0 * 0.98, count=100)
    relaxed = block2.disturb_exposure(1)
    assert relaxed < 0.2 * nominal


def test_disturb_shifts_voltages_upward(programmed_block):
    blk = programmed_block
    before = blk.current_voltages(now=0.0).copy()
    blk.apply_read_disturb(500_000, target_wordline=0)
    after = blk.current_voltages(now=0.0)
    # Wordline 0 absorbed no disturb (reads targeted it).
    assert np.allclose(after[0], before[0])
    assert (after[1:] >= before[1:] - 1e-9).all()
    assert after[1:].mean() > before[1:].mean() + 0.5


def test_retention_lowers_programmed_voltages(programmed_block):
    blk = programmed_block
    fresh = blk.current_voltages(now=0.0)
    aged = blk.current_voltages(now=days(21))
    assert aged.mean() < fresh.mean() - 1.0
    assert (aged <= fresh + 1e-9).all()


def test_rber_grows_with_disturb(programmed_block):
    blk = programmed_block
    rber0 = blk.measure_block_rber(now=0.0)
    blk.apply_read_disturb(1_000_000)
    rber1 = blk.measure_block_rber(now=0.0)
    assert rber1 > rber0 + 1e-3


def test_relaxed_vpass_read_causes_cutoff_errors(programmed_block):
    blk = programmed_block
    errors_nominal = blk.page_error_count(0, record_disturb=False)
    # Deep relaxation so even this small block shows clear cutoffs.
    errors_relaxed = blk.page_error_count(0, vpass=430.0, record_disturb=False)
    assert errors_relaxed > errors_nominal + 10


def test_threshold_read_matches_voltages(programmed_block):
    blk = programmed_block
    voltages = blk.current_voltages(0.0, np.array([2]))[0]
    conducting = blk.threshold_read(2, threshold=200.0, record_disturb=False)
    assert np.array_equal(conducting, voltages <= 200.0)


def test_measure_rber_requires_programmed_pages(block):
    block.erase()
    with pytest.raises(RuntimeError):
        block.measure_block_rber()
