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
# Batched checking
# ----------------------------------------------------------------------


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
            assert batch.raw_errors[i] == scalar.raw_errors
            assert bool(batch.success[i]) == scalar.success
        if vpass < 512.0:
            # The relaxed read must fail some pages, so the success flags
            # are compared on both outcomes.
            assert not batch.success.all()


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
