"""Threshold decoder behavior."""

import numpy as np
import pytest

from repro.ecc import DEFAULT_ECC, EccDecoder, UncorrectableError


@pytest.fixture
def decoder():
    return EccDecoder(DEFAULT_ECC)


def _page_with_errors(n_bits: int, n_errors: int):
    true = np.zeros(n_bits, dtype=np.uint8)
    read = true.copy()
    read[:n_errors] ^= 1
    return read, true


def test_decode_within_capability(decoder):
    cap = DEFAULT_ECC.page_capability_bits(65536)
    read, true = _page_with_errors(65536, cap)
    result = decoder.decode(read, true)
    assert result.success
    assert result.raw_errors == cap
    assert result.margin == 0


def test_decode_beyond_capability_fails(decoder):
    cap = DEFAULT_ECC.page_capability_bits(65536)
    read, true = _page_with_errors(65536, cap + 1)
    result = decoder.decode(read, true)
    assert not result.success
    assert result.margin == -1


def test_decode_or_raise(decoder):
    cap = DEFAULT_ECC.page_capability_bits(65536)
    read, true = _page_with_errors(65536, cap + 5)
    with pytest.raises(UncorrectableError) as exc:
        decoder.decode_or_raise(read, true)
    assert exc.value.errors == cap + 5
    assert exc.value.capability == cap


def test_clean_page_full_margin(decoder):
    read, true = _page_with_errors(65536, 0)
    result = decoder.decode_or_raise(read, true)
    assert result.margin == DEFAULT_ECC.page_capability_bits(65536)


def test_shape_mismatch_rejected(decoder):
    with pytest.raises(ValueError):
        decoder.decode(np.zeros(4), np.zeros(5))


# ----------------------------------------------------------------------
# Batched decoding
# ----------------------------------------------------------------------


def test_decode_pages_matches_scalar_decode(decoder):
    rng = np.random.default_rng(3)
    true = rng.integers(0, 2, (7, 4096), dtype=np.uint8)
    read = true.copy()
    cap = DEFAULT_ECC.page_capability_bits(4096)
    # Page error counts straddling the capability, including both edges.
    for i, n_errors in enumerate([0, 1, cap - 1, cap, cap + 1, 2 * cap, 4096]):
        read[i, :n_errors] ^= 1
    batch = decoder.decode_pages(read, true)
    assert len(batch) == 7
    assert batch.capability == cap
    for i in range(7):
        scalar = decoder.decode(read[i], true[i])
        assert batch.page(i) == scalar
        assert batch.raw_errors[i] == scalar.raw_errors
        assert bool(batch.success[i]) == scalar.success
        assert batch.margins[i] == scalar.margin


def test_decode_pages_rejects_bad_shapes(decoder):
    with pytest.raises(ValueError):
        decoder.decode_pages(np.zeros((2, 8)), np.zeros((2, 9)))
    with pytest.raises(ValueError):
        decoder.decode_pages(np.zeros(8), np.zeros(8))


def test_check_pages_matches_check_page_loop(decoder):
    from repro.flash import FlashBlock, FlashGeometry
    from repro.rng import RngFactory

    geometry = FlashGeometry(blocks=1, wordlines_per_block=8, bitlines_per_block=512)
    blk = FlashBlock(geometry, RngFactory(4))
    blk.cycle_wear_to(12000)
    blk.program_random()
    blk.apply_read_disturb(500_000, target_wordline=0)
    pages = np.arange(geometry.pages_per_block)
    for vpass in (512.0, 500.0):
        batch = decoder.check_pages(blk, pages, now=3600.0, vpass=vpass)
        for i, page in enumerate(pages):
            scalar = decoder.check_page(blk, int(page), now=3600.0, vpass=vpass)
            assert batch.page(i) == scalar


# ----------------------------------------------------------------------
# API-edge validation (regression: float/bool arrays used to slip through)
# ----------------------------------------------------------------------


def test_decode_rejects_float_bits(decoder):
    clean = np.zeros(64, dtype=np.uint8)
    with pytest.raises(
        ValueError,
        match=r"read bits must be an integer 0/1 bit array, got dtype float64",
    ):
        decoder.decode(np.zeros(64, dtype=np.float64), clean)
    with pytest.raises(
        ValueError,
        match=r"true bits must be an integer 0/1 bit array, got dtype float64",
    ):
        decoder.decode(clean, np.zeros(64, dtype=np.float64))


def test_decode_rejects_bool_bits(decoder):
    clean = np.zeros(64, dtype=np.uint8)
    with pytest.raises(ValueError, match=r"got dtype bool"):
        decoder.decode(np.zeros(64, dtype=bool), clean)


def test_decode_rejects_non_bit_values(decoder):
    clean = np.zeros(64, dtype=np.uint8)
    dirty = clean.copy()
    dirty[3] = 2
    with pytest.raises(ValueError, match=r"read bits must contain only 0/1"):
        decoder.decode(dirty, clean)
    with pytest.raises(ValueError, match=r"true bits must contain only 0/1"):
        decoder.decode(clean, dirty.astype(np.int64) * -1)


def test_decode_pages_rejects_float_and_bool(decoder):
    clean = np.zeros((3, 64), dtype=np.uint8)
    with pytest.raises(ValueError, match=r"got dtype float32"):
        decoder.decode_pages(np.zeros((3, 64), dtype=np.float32), clean)
    with pytest.raises(ValueError, match=r"got dtype bool"):
        decoder.decode_pages(clean, np.zeros((3, 64), dtype=bool))


def test_batch_page_index_out_of_range(decoder):
    clean = np.zeros((3, 64), dtype=np.uint8)
    batch = decoder.decode_pages(clean, clean)
    assert batch.page(-1) == batch.page(2)  # negatives index from the end
    with pytest.raises(
        IndexError, match=r"page index 3 out of range for batch of 3 pages"
    ):
        batch.page(3)
    with pytest.raises(
        IndexError, match=r"page index -4 out of range for batch of 3 pages"
    ):
        batch.page(-4)


def test_page_capability_is_memoized():
    from repro.ecc.config import EccConfig, _page_capability_bits

    config = DEFAULT_ECC
    assert config.page_capability_bits(8192) == config.page_capability_bits(8192)
    assert _page_capability_bits.cache_info().hits > 0
    # Value-keyed: an equal-but-distinct config hits the same entry
    # instead of pinning a new instance in a per-object cache.
    hits = _page_capability_bits.cache_info().hits
    assert EccConfig().page_capability_bits(8192) == config.page_capability_bits(8192)
    assert _page_capability_bits.cache_info().hits > hits
