"""Batched sensing primitives must match the scalar paths bit-for-bit.

The vectorized hot path (`page_error_counts` with its sensing screen,
`threshold_sweep_counts` and the fused materialization kernel) exists
purely for speed: every test here pins it to the per-page scalar
reference, including the low-Vpass cutoff-mask cases and sensing after
disturb recording, erase and reprogramming, a time change, and an
out-of-band edit of the cell arrays.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.ecc import EccDecoder
from repro.flash import FlashBlock, FlashGeometry
from repro.flash.sensing import DEFAULT_REFERENCES, sense_page
from repro.rng import RngFactory
from repro.units import days

#: nominal and deeply relaxed pass-through voltage (the latter activates
#: the cutoff-mask path).
VPASS_CASES = (512.0, 430.0)

#: the sensing screen's references: the three read references, plus Vpass
#: over the whole block below the cutoff check.
READ_REFERENCES = (DEFAULT_REFERENCES.va, DEFAULT_REFERENCES.vb, DEFAULT_REFERENCES.vc)


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


# ----------------------------------------------------------------------
# The sensing screen
# ----------------------------------------------------------------------


def f32_steps(value):
    """The float32 nearest *value*, and one float32 ulp either side."""
    center = np.float32(value)
    return (
        np.nextafter(center, np.float32(-np.inf)),
        center,
        np.nextafter(center, np.float32(np.inf)),
    )


def f32_at_most(value):
    """The largest float32 that does not exceed *value*."""
    nearest = np.float32(value)
    return nearest if nearest <= value else np.nextafter(nearest, np.float32(-np.inf))


def f32_at_least(value):
    """The smallest float32 not below *value*."""
    nearest = np.float32(value)
    return nearest if nearest >= value else np.nextafter(nearest, np.float32(np.inf))


def screens(blk, wordlines, now, vpass):
    """The screen a ``page_error_counts`` call over *wordlines* runs, as
    ``[(rows, (susceptibility cap, leak cap, thresholds))]``, or ``[]``
    where it materializes densely.  Below the cutoff check it screens the
    whole block against the read references and Vpass."""
    references = READ_REFERENCES
    rows = wordlines
    if vpass < 505.0 or wordlines.size == blk.geometry.wordlines_per_block:
        rows = np.arange(blk.geometry.wordlines_per_block)
    if vpass < 505.0:
        references += (vpass,)
    screen = blk._screen(rows, now, references)
    return [] if screen is None else [(rows, screen)]


def plant_screen_edges(blk, wordlines, now, vpass, bitlines):
    """Out-of-band edits that put cells where the screen is tightest.

    Per screen and reference: cells on ``t_hi`` (and one float32 ulp
    either side) with susceptibility at its bound and no leak (so no
    retention loss), in the row with the largest exposure; cells on
    ``t_lo`` with leak at its bound and no susceptibility, in the oldest
    row; where a cap applies, cells past it on the settled side of a
    threshold (past the leak cap, one at or just above each ``t_lo``:
    Vpass can sit below Va).  Plus cells at Va, Vb, Vc and Vpass.  The
    leak and susceptibility edits come first: they can move the block's
    maxima, so the thresholds the ``v0`` edits aim at are taken after
    them.
    """
    cells = blk.cells
    planted = []  # (wordline, bitline, screen index, reference index, side)
    for index, (rows, (susceptibility_cap, leak_cap, thresholds)) in enumerate(
        screens(blk, wordlines, now, vpass)
    ):
        exposure = blk.disturb_exposure()[rows]
        hot = int(rows[np.argmax(exposure)])
        old = int(rows[np.argmin(blk.program_time[rows])])
        susceptibility_bound = (
            cells.susceptibility.max() if susceptibility_cap is None else susceptibility_cap
        )
        leak_bound = cells.leak.max() if leak_cap is None else leak_cap
        for ref_index, (t_hi, t_lo) in enumerate(thresholds):
            for _ in range(3):
                bitline = next(bitlines)
                cells.susceptibility[hot, bitline] = f32_at_most(susceptibility_bound)
                cells.leak[hot, bitline] = 0.0
                planted.append((hot, bitline, index, ref_index, "hi"))
                bitline = next(bitlines)
                cells.susceptibility[old, bitline] = 0.0
                cells.leak[old, bitline] = f32_at_most(leak_bound)
                planted.append((old, bitline, index, ref_index, "lo"))
        if susceptibility_cap is not None:
            bitline = next(bitlines)
            cells.susceptibility[hot, bitline] = np.float32(2.0 * susceptibility_cap)
            cells.leak[hot, bitline] = 0.0
            planted.append((hot, bitline, index, 0, "hi"))
        if leak_cap is not None:
            low = cells.v0.min()
            for ref_index in range(len(thresholds)):
                bitline = next(bitlines)
                # The rest of its bitline sits at the block's lowest v0, so
                # at a Vpass below Va the cutoff mask shows this cell's
                # side of Vpass.
                cells.v0[:, bitline] = low
                cells.susceptibility[old, bitline] = 0.0
                cells.leak[old, bitline] = np.float32(2.0 * leak_cap)
                planted.append((old, bitline, index, ref_index, "past"))
    blk.invalidate_voltage_cache()
    thresholds = [screen[2] for _, screen in screens(blk, wordlines, now, vpass)]
    steps = {}
    for wordline, bitline, index, ref_index, side in planted:
        if index >= len(thresholds):
            continue
        t_hi, t_lo = thresholds[index][ref_index]
        value = t_hi if side == "hi" else t_lo
        if side == "past":
            # On the settled side of t_lo, where only the cap unsettles it.
            if np.isfinite(value):
                cells.v0[wordline, bitline] = f32_at_least(value)
        elif np.isfinite(value):
            key = (index, ref_index, side)
            step = steps.get(key, 0)
            steps[key] = step + 1
            cells.v0[wordline, bitline] = f32_steps(value)[step % 3]
    for ref in READ_REFERENCES + (vpass,):
        cells.v0[int(wordlines[0]), next(bitlines)] = np.float32(ref)
    blk.invalidate_voltage_cache()


def edge_case(pe, age_exponent, read_exponent, vpass=512.0, programming="full"):
    """A pinned example: a full-size block, every page read."""
    return example(
        wordlines=16,
        bitlines=512,
        programming=programming,
        pe=pe,
        age_exponent=age_exponent,
        read_exponents=[read_exponent] * 16,
        vpass=vpass,
        seed=1,
        page_draws=list(range(32)),
    )


@settings(max_examples=120, deadline=None)
@given(
    wordlines=st.integers(4, 16),
    bitlines=st.integers(64, 512),
    programming=st.sampled_from(["full", "partial", "erased"]),
    pe=st.integers(0, 20_000),
    age_exponent=st.one_of(st.none(), st.floats(-1.0, 12.0)),
    read_exponents=st.lists(
        st.one_of(st.none(), st.floats(0.0, 7.0)), min_size=16, max_size=16
    ),
    vpass=st.sampled_from([512.0, 507.0, 500.0, 430.0, 362.0, 100.0, 60.0]),
    seed=st.integers(0, 2**16),
    page_draws=st.lists(st.integers(0, 31), min_size=1, max_size=24),
)
# Each regime the screen handles differently, pinned: the leak cap (an
# 11-day-old block at 8k P/E), the susceptibility cap (1k reads per
# wordline), the whole-block screen at a relaxed Vpass, the leak cap with
# Vpass below Va (the lowest reference is then Vpass), and young data
# with no cap at all (where the stale-bound check runs).
@edge_case(pe=8000, age_exponent=6.0, read_exponent=None)
@edge_case(pe=2000, age_exponent=None, read_exponent=3.0)
@edge_case(pe=8000, age_exponent=5.0, read_exponent=3.0, vpass=430.0)
@edge_case(pe=8000, age_exponent=6.0, read_exponent=None, vpass=60.0, programming="erased")
@edge_case(pe=3000, age_exponent=4.0, read_exponent=None, programming="partial")
def test_screened_error_counts_match_scalar_loop_at_the_edges(
    wordlines, bitlines, programming, pe, age_exponent, read_exponents, vpass, seed, page_draws
):
    """The screen settles a cell from ``v0`` alone only where its bounds
    prove the answer: counts equal the scalar loop over wear (P/E 0 to
    20k), age (0 to 1e12 s), exposure (0 to 1e7 reads per wordline),
    Vpass at or below the references, all-erased and partly programmed
    blocks, with cells planted on every threshold, at the caps and at
    each reference; and after a leak edit that raises the block's
    largest leak past the bound a warm call cached."""
    geometry = FlashGeometry(blocks=1, wordlines_per_block=wordlines, bitlines_per_block=bitlines)
    blk = FlashBlock(geometry, RngFactory(seed))
    blk.cycle_wear_to(pe)
    rng = np.random.default_rng(seed)
    if programming == "full":
        blk.program_random(now=0.0)
    elif programming == "partial":
        for wordline in np.flatnonzero(rng.random(wordlines) < 0.5):
            bits = rng.integers(0, 2, (2, bitlines), dtype=np.uint8)
            blk.program_wordline_bits(int(wordline), bits[0], bits[1], now=float(wordline))
    counts = [0 if e is None else int(10.0**e) for e in read_exponents[:wordlines]]
    blk.record_reads(np.arange(wordlines), np.array(counts), vpass)
    now = float(blk.program_time.max()) + (0.0 if age_exponent is None else 10.0**age_exponent)
    pages = np.sort(np.array(page_draws) % (2 * wordlines))
    rows = np.unique(pages // 2)
    fresh = iter(rng.permutation(bitlines))

    plant_screen_edges(blk, rows, now, vpass, fresh)
    assert np.array_equal(
        blk.page_error_counts(pages, now, vpass), scalar_error_counts(blk, pages, now, vpass)
    )

    # That call cached the block's largest leak.  A cell that now leaks
    # faster, on a t_lo taken from the cached bound, must not settle
    # against that stale bound.
    for screened, (_, leak_cap, thresholds) in screens(blk, rows, now, vpass):
        t_lo = next((t for _, t in thresholds if np.isfinite(t)), None)
        if leak_cap is None and t_lo is not None:
            old = int(screened[np.argmin(blk.program_time[screened])])
            bitline = next(fresh)
            blk.cells.leak[old, bitline] = 2.0 * blk.cells.leak.max()
            blk.cells.susceptibility[old, bitline] = 0.0
            blk.cells.v0[old, bitline] = np.float32(t_lo)
            blk.invalidate_voltage_cache()
            assert np.array_equal(
                blk.page_error_counts(pages, now, vpass),
                scalar_error_counts(blk, pages, now, vpass),
            )


def test_nominal_error_counts_screen_without_dense_materialization(monkeypatch):
    """In a nominal regime (moderate wear, exposure and age) the screen
    settles almost every cell, so ``page_error_counts`` never runs the
    dense chain."""
    blk = make_block(pe=3000, reads=20_000)
    pages = np.arange(blk.geometry.pages_per_block)
    expected = scalar_error_counts(blk, pages, days(2), 512.0)

    def dense(*args):
        raise AssertionError("dense materialization in a nominal regime")

    monkeypatch.setattr(FlashBlock, "_materialize_rows", dense)
    assert np.array_equal(blk.page_error_counts(pages, now=days(2)), expected)


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
# Sensing follows every state change
# ----------------------------------------------------------------------


def test_cache_invalidated_by_record_reads():
    blk = make_block()
    pages = np.arange(8)
    before = scalar_error_counts(blk, pages, days(1), 512.0)
    blk.record_reads(np.array([0, 1]), np.array([400_000, 400_000]))
    after = scalar_error_counts(blk, pages, days(1), 512.0)
    # The heavy extra disturb must be visible, and the scalar answer must
    # match the batch.
    assert not np.array_equal(before, after)
    assert np.array_equal(after, blk.page_error_counts(pages, now=days(1)))


def test_cache_invalidated_by_erase_and_reprogram():
    blk = make_block()

    def read_pages():
        return np.stack([blk.read_page(p, now=0.0, record_disturb=False) for p in range(4)])

    def composed_pages():
        voltages = blk.current_voltages(0.0, np.array([0, 1]))
        return np.stack([sense_page(voltages[p // 2], p % 2 == 1) for p in range(4)])

    blk.erase()
    erased = read_pages()
    assert np.array_equal(erased, composed_pages())
    # Erased cells sense as ER: LSB pages read all-ones.
    assert (erased[0] == 1).all() and (erased[2] == 1).all()
    blk.program_random()
    reprogrammed = read_pages()
    assert not np.array_equal(erased, reprogrammed)
    assert np.array_equal(reprogrammed, composed_pages())


def test_cache_keyed_on_time():
    blk = make_block(pe=15000, reads=1_000_000)
    pages = np.arange(blk.geometry.pages_per_block)
    fresh = scalar_error_counts(blk, pages, 0.0, 512.0)
    aged = scalar_error_counts(blk, pages, days(90), 512.0)
    # A different `now` must change the counts ...
    assert not np.array_equal(fresh, aged)
    # ... and both answers must match the batch at their own time.
    assert np.array_equal(fresh, blk.page_error_counts(pages, now=0.0))
    assert np.array_equal(aged, blk.page_error_counts(pages, now=days(90)))


def test_invalidate_voltage_cache_covers_out_of_band_mutation():
    """Edits to ``v0``, leak and susceptibility all reach the next batch
    once the screen's cached cell bounds are dropped."""
    blk = make_block(pe=3000, reads=20)
    pages = np.arange(blk.geometry.pages_per_block)
    now = 3600.0
    edits = {
        "v0": lambda cells: np.add(cells.v0, 50.0, out=cells.v0),
        "leak": lambda cells: np.multiply(cells.leak, 20.0, out=cells.leak),
        "susceptibility": lambda cells: np.multiply(
            cells.susceptibility, 1e5, out=cells.susceptibility
        ),
    }
    for name, edit in edits.items():
        before = blk.page_error_counts(pages, now)  # caches the cell bounds
        edit(blk.cells)  # out-of-band edit, as the contract describes
        blk.invalidate_voltage_cache()
        after = blk.page_error_counts(pages, now)
        assert not np.array_equal(after, before), name
        assert np.array_equal(after, scalar_error_counts(blk, pages, now, 512.0)), name


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
