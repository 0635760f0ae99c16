"""Batched sensing primitives must match the scalar paths bit-for-bit.

The vectorized hot path (`page_error_counts`, `threshold_sweep_counts`,
the fused materialization kernel, and the epoch-keyed voltage cache)
exists purely for speed: every test here pins it to the per-page scalar
reference, including the low-Vpass cutoff-mask cases and cache
invalidation across disturb recording, erase, and reprogramming.
"""

import numpy as np
import pytest

from repro.ecc import EccDecoder
from repro.flash import FlashBlock, FlashGeometry
from repro.flash.sensing import sense_page
from repro.rng import RngFactory
from repro.units import days

#: nominal and deeply relaxed pass-through voltage (the latter activates
#: the cutoff-mask path).
VPASS_CASES = (512.0, 430.0)


def make_block(seed=7, pe=8000, reads=200_000, wordlines=8, bitlines=512):
    geometry = FlashGeometry(blocks=2, wordlines_per_block=wordlines, bitlines_per_block=bitlines)
    blk = FlashBlock(geometry, RngFactory(seed))
    blk.cycle_wear_to(pe)
    blk.program_random()
    if reads:
        blk.apply_read_disturb(reads, target_wordline=1)
    return blk


def scalar_error_counts(blk, pages, now, vpass):
    return np.array(
        [
            blk.page_error_count(int(p), now, vpass=vpass, record_disturb=False)
            for p in pages
        ],
        dtype=np.int64,
    )


@pytest.mark.parametrize("vpass", VPASS_CASES)
def test_page_error_counts_match_scalar_loop(vpass):
    blk = make_block()
    pages = np.arange(blk.geometry.pages_per_block)
    batched = blk.page_error_counts(pages, now=days(2), vpass=vpass)
    scalar = scalar_error_counts(blk, pages, days(2), vpass)
    assert np.array_equal(batched, scalar)
    # Unsorted input with duplicates takes the np.unique fallback path.
    shuffled = np.array([9, 1, 1, 14, 0, 9, 5])
    assert np.array_equal(
        blk.page_error_counts(shuffled, now=days(2), vpass=vpass),
        scalar_error_counts(blk, shuffled, days(2), vpass),
    )
    if vpass < 512.0:
        # The relaxed-Vpass case must actually exercise cutoff errors,
        # otherwise this equivalence proves less than it claims.
        assert batched.sum() > scalar_error_counts(blk, pages, days(2), 512.0).sum()


def test_page_error_counts_range_check():
    blk = make_block(reads=0)
    last = blk.geometry.pages_per_block
    message = "page out of range in batched error count"
    for bad in (-1, last):
        with pytest.raises(IndexError, match=message):
            blk.page_error_counts(np.array([0, bad]))
        with pytest.raises(IndexError, match=message):
            EccDecoder().check_pages(blk, np.array([bad]))
    empty = blk.page_error_counts(np.array([], dtype=np.int64))
    assert empty.dtype == np.int64 and empty.shape == (0,)


def test_fused_materialization_matches_reference_composition():
    for seed, pe, reads, now in [(0, 0, 0, 0.0), (1, 8000, 500_000, 3600.0), (2, 15000, 2_000_000, days(10))]:
        blk = make_block(seed=seed, pe=max(pe, 1), reads=reads)
        reference = blk.current_voltages(now)
        fused = blk._materialize_rows(slice(None), now)
        assert np.array_equal(reference, fused)
        subset = np.array([0, 3, 5])
        assert np.array_equal(blk.current_voltages(now, subset), blk._materialize_rows(subset, now))


def test_measure_block_rber_matches_manual_loop():
    blk = make_block()
    manual_errors = 0
    manual_bits = 0
    for wordline in range(blk.geometry.wordlines_per_block):
        for page in (2 * wordline, 2 * wordline + 1):
            bits = blk.read_page(page, days(1), record_disturb=False)
            manual_errors += int((bits != blk.expected_page_bits(page)).sum())
            manual_bits += bits.size
    assert blk.measure_block_rber(now=days(1)) == manual_errors / manual_bits


def test_measure_block_rber_skips_unprogrammed_wordlines():
    geometry = FlashGeometry(blocks=1, wordlines_per_block=8, bitlines_per_block=256)
    blk = FlashBlock(geometry, RngFactory(3))
    blk.erase()
    rng = np.random.default_rng(0)
    for wordline in (1, 4):
        lsb = rng.integers(0, 2, 256, dtype=np.uint8)
        msb = rng.integers(0, 2, 256, dtype=np.uint8)
        blk.program_wordline_bits(wordline, lsb, msb)
    pages = np.array([2, 3, 8, 9])
    expected = blk.page_error_counts(pages).sum() / (4 * 256)
    assert blk.measure_block_rber() == expected


def test_threshold_sweep_counts_match_scalar_sweep():
    blk = make_block()
    thresholds = np.arange(-40.0, 524.0, 4.0)
    for wordline in (0, 3):
        batched = blk.threshold_sweep_counts(wordline, thresholds, now=days(1))
        scalar = np.zeros(blk.geometry.bitlines_per_block, dtype=np.int64)
        for t in thresholds:
            scalar += blk.threshold_read(wordline, float(t), days(1), record_disturb=False)
        assert np.array_equal(batched, scalar)


# ----------------------------------------------------------------------
# Voltage-cache epoch contract
# ----------------------------------------------------------------------


def test_cache_invalidated_by_record_reads():
    blk = make_block()
    pages = np.arange(8)
    before = blk.page_error_counts(pages, now=days(1))
    blk.record_reads(np.array([0, 1]), np.array([400_000, 400_000]))
    after = blk.page_error_counts(pages, now=days(1))
    # The heavy extra disturb must be visible (stale cache would hide it),
    # and both answers must still match the scalar path.
    assert not np.array_equal(before, after)
    assert np.array_equal(after, scalar_error_counts(blk, pages, days(1), 512.0))


def test_cache_invalidated_by_record_read_and_apply():
    blk = make_block()
    epoch = blk.voltage_epoch
    blk.record_read(0)
    assert blk.voltage_epoch > epoch
    epoch = blk.voltage_epoch
    blk.apply_read_disturb(1000)
    assert blk.voltage_epoch > epoch


def test_cache_invalidated_by_erase_and_reprogram():
    blk = make_block()

    def read_pages():
        return np.stack([blk.read_page(p, now=0.0, record_disturb=False) for p in range(4)])

    def uncached_pages():
        voltages = blk.current_voltages(0.0, np.array([0, 1]))
        return np.stack([sense_page(voltages[p // 2], p % 2 == 1) for p in range(4)])

    blk.block_voltages(0.0)  # warm the cache with the programmed block
    blk.erase()
    erased = read_pages()
    assert np.array_equal(erased, uncached_pages())
    # Erased cells sense as ER: LSB pages read all-ones.
    assert (erased[0] == 1).all() and (erased[2] == 1).all()
    blk.block_voltages(0.0)  # warm the cache with the erased block
    blk.program_random()
    reprogrammed = read_pages()
    assert not np.array_equal(erased, reprogrammed)
    assert np.array_equal(reprogrammed, uncached_pages())


def test_cache_keyed_on_time():
    blk = make_block(pe=15000, reads=1_000_000)
    pages = np.arange(blk.geometry.pages_per_block)
    fresh = blk.page_error_counts(pages, now=0.0)
    aged = blk.page_error_counts(pages, now=days(90))
    # A different `now` must re-materialize (a stale cache would return
    # the fresh counts again) ...
    assert not np.array_equal(fresh, aged)
    # ... and both answers must match the scalar path at their own time.
    assert np.array_equal(fresh, scalar_error_counts(blk, pages, 0.0, 512.0))
    assert np.array_equal(aged, scalar_error_counts(blk, pages, days(90), 512.0))


def test_block_voltages_reuses_materialization_within_epoch():
    blk = make_block()
    first = blk.block_voltages(0.0)
    assert blk.block_voltages(0.0) is first
    blk.record_read(0)
    assert blk.block_voltages(0.0) is not first


def test_invalidate_voltage_cache_covers_out_of_band_mutation():
    blk = make_block()
    pages = np.arange(4)
    blk.page_error_counts(pages, now=0.0)
    blk.cells.v0[:] += 50.0  # out-of-band edit, as the contract describes
    blk.invalidate_voltage_cache()
    assert np.array_equal(
        blk.page_error_counts(pages, now=0.0),
        scalar_error_counts(blk, pages, 0.0, 512.0),
    )


# ----------------------------------------------------------------------
# Vectorized programming
# ----------------------------------------------------------------------


def test_program_block_bits_programs_every_wordline():
    geometry = FlashGeometry(blocks=1, wordlines_per_block=4, bitlines_per_block=256)
    blk = FlashBlock(geometry, RngFactory(1))
    rng = np.random.default_rng(9)
    lsb = rng.integers(0, 2, (4, 256), dtype=np.uint8)
    msb = rng.integers(0, 2, (4, 256), dtype=np.uint8)
    blk.erase()
    blk.program_block_bits(lsb, msb, now=5.0)
    assert blk.programmed.all()
    assert (blk.program_time == 5.0).all()
    for wordline in range(4):
        read_lsb = blk.read_page(2 * wordline, now=5.0, record_disturb=False)
        read_msb = blk.read_page(2 * wordline + 1, now=5.0, record_disturb=False)
        assert (read_lsb != lsb[wordline]).sum() <= 2
        assert (read_msb != msb[wordline]).sum() <= 2


def test_program_block_bits_rejects_programmed_block():
    blk = make_block(reads=0)
    lsb = np.zeros((blk.geometry.wordlines_per_block, blk.geometry.bitlines_per_block), dtype=np.uint8)
    with pytest.raises(RuntimeError):
        blk.program_block_bits(lsb, lsb)


def test_program_random_statistics_match_per_wordline_reference():
    """The one-pass program keeps the same per-state voltage distributions
    as a per-wordline loop (different draws, same physics)."""
    geometry = FlashGeometry(blocks=1, wordlines_per_block=16, bitlines_per_block=2048)
    batched = FlashBlock(geometry, RngFactory(2))
    batched.cycle_wear_to(8000)
    batched.program_random()
    loop = FlashBlock(geometry, RngFactory(2))
    loop.cycle_wear_to(8000)
    rng = loop._rng
    for wordline in range(geometry.wordlines_per_block):
        lsb = rng.integers(0, 2, 2048, dtype=np.uint8)
        msb = rng.integers(0, 2, 2048, dtype=np.uint8)
        loop.program_wordline_bits(wordline, lsb, msb)
    for state in range(4):
        v_batched = batched.cells.v0[batched.cells.true_states == state]
        v_loop = loop.cells.v0[loop.cells.true_states == state]
        assert abs(v_batched.mean() - v_loop.mean()) < 2.0
        assert abs(v_batched.std() - v_loop.std()) < 2.0
