"""The wordline-program kernel against the sampler it replaced.

The program path (``states_from_bits`` -> ``CellArray.program_wordline``
-> ``apply_program_errors`` -> the grouped sampler ->
``NormalLaplaceMixture.sample``) must make exactly the ``Generator``
calls of the straightforward per-state boolean-mask sampler kept below
as the reference: same calls, same sizes, same order.  ``normal`` and
``exponential`` consume a value-dependent number of words, so any
regrouping would shift every later draw; the tests compare ``v0``,
``true_states`` and the generator state byte for byte.
"""

import numpy as np
import pytest

from repro.flash import FlashBlock, FlashGeometry, states_from_bits
from repro.flash.arena import ARENA_BACKINGS, BlockStore
from repro.flash.state import STATE_ORDER, MlcState, _STATE_TO_BITS
from repro.physics.distributions import NormalLaplaceMixture, state_distribution
from repro.physics.program import program_error_rate
from repro.rng import RngFactory

GEOMETRY = FlashGeometry(blocks=1, wordlines_per_block=8, bitlines_per_block=2048)

# ----------------------------------------------------------------------
# Reference: 2-D LUT decode and the per-state boolean-mask sampler
# ----------------------------------------------------------------------

_STATE_TABLE = np.full((2, 2), -1, dtype=np.int8)
for _state, (_lsb, _msb) in _STATE_TO_BITS.items():
    _STATE_TABLE[_lsb, _msb] = int(_state)


def reference_states_from_bits(lsb, msb):
    lsb = np.asarray(lsb).astype(np.int64)
    msb = np.asarray(msb).astype(np.int64)
    if ((lsb < 0) | (lsb > 1) | (msb < 0) | (msb > 1)).any():
        raise ValueError("bit arrays must contain only 0 and 1")
    return _STATE_TABLE[lsb, msb].astype(np.int64)


def reference_laplace(dist, rng, size):
    p_low = dist.scale_low / (dist.scale_low + dist.scale_high)
    low = rng.random(size) < p_low
    out = np.empty(size, dtype=np.float64)
    n_low = int(np.count_nonzero(low))
    out[low] = dist.mu - rng.exponential(dist.scale_low, n_low)
    out[~low] = dist.mu + rng.exponential(dist.scale_high, size - n_low)
    return out


def reference_sample_raw(dist, rng, size):
    tail = rng.random(size) < dist.tail_weight
    out = np.empty(size, dtype=np.float64)
    n_tail = int(np.count_nonzero(tail))
    out[~tail] = rng.normal(dist.mu, dist.sigma, size - n_tail)
    if n_tail:
        out[tail] = reference_laplace(dist, rng, n_tail)
    return out


def reference_sample(dist, rng, size):
    out = reference_sample_raw(dist, rng, size)
    if np.isfinite(dist.upper_bound):
        bad = out > dist.upper_bound
        for _ in range(100):
            n_bad = int(np.count_nonzero(bad))
            if n_bad == 0:
                break
            out[bad] = reference_sample_raw(dist, rng, n_bad)
            bad = out > dist.upper_bound
        else:
            out = np.minimum(out, dist.upper_bound)
    return out


def reference_sample_voltages(states, pe_cycles, rng):
    out = np.empty(states.shape, dtype=np.float64)
    flat_states = states.reshape(-1)
    flat_out = out.reshape(-1)
    for state in STATE_ORDER:
        mask = flat_states == int(state)
        count = int(mask.sum())
        if count:
            dist = state_distribution(state, pe_cycles)
            flat_out[mask] = reference_sample(dist, rng, count)
    return out


def reference_program_errors(states, pe_cycles, rng):
    states = np.asarray(states, dtype=np.int8).copy()
    rate = program_error_rate(pe_cycles)
    if rate <= 0.0:
        return states
    wrong = rng.random(states.shape) < rate
    if not wrong.any():
        return states
    moved = states[wrong]
    states[wrong] = np.where(moved < 3, moved + 1, moved - 1).astype(np.int8)
    return states


def reference_program(block, rows, lsb, msb):
    """Program *rows* (a wordline or ``slice(None)``) of *block*'s cells;
    returns how many cells mis-programmed."""
    states = reference_states_from_bits(lsb, msb).astype(np.int8)
    block.cells.true_states[rows] = states
    landed = reference_program_errors(states, block.pe_cycles, block._rng)
    block.cells.v0[rows] = reference_sample_voltages(landed, block.pe_cycles, block._rng)
    return int(np.count_nonzero(landed != states))


def reference_erase(block):
    block.pe_cycles += 1
    block.cells.true_states.fill(int(MlcState.ER))
    er = state_distribution(MlcState.ER, block.pe_cycles)
    block.cells.v0[:] = reference_sample(er, block._rng, block.cells.v0.size).reshape(
        block.cells.v0.shape
    )


# ----------------------------------------------------------------------
# Equivalence
# ----------------------------------------------------------------------


def _assert_same(kernel, reference):
    assert kernel.cells.v0.tobytes() == reference.cells.v0.tobytes()
    assert kernel.cells.true_states.tobytes() == reference.cells.true_states.tobytes()
    assert kernel._rng.bit_generator.state == reference._rng.bit_generator.state


def _bits(data, shape):
    return (
        data.integers(0, 2, shape, dtype=np.uint8),
        data.integers(0, 2, shape, dtype=np.uint8),
    )


@pytest.fixture(params=("heap",) + ARENA_BACKINGS)
def block_pair(request):
    """Two blocks with the same seed and block id, on the given backing."""
    if request.param == "heap":
        yield FlashBlock(GEOMETRY, RngFactory(5)), FlashBlock(GEOMETRY, RngFactory(5))
        return
    stores = [BlockStore(GEOMETRY, backing=request.param) for _ in range(2)]
    try:
        yield tuple(FlashBlock(GEOMETRY, RngFactory(5), store=store) for store in stores)
    finally:
        for store in stores:
            store.close()


@pytest.mark.parametrize("pe", [0, 1, 8000, 15000])
def test_program_sequences_match_reference(block_pair, pe):
    kernel, reference = block_pair
    data = np.random.default_rng(pe)
    bitlines = GEOMETRY.bitlines_per_block
    kernel.cycle_wear_to(pe)
    reference.pe_cycles = pe - 1
    reference_erase(reference)
    _assert_same(kernel, reference)
    mis_programmed = 0
    # Per-wordline programs in scrambled order.
    for wordline in (0, 5, 2, 7, 1):
        lsb, msb = _bits(data, bitlines)
        kernel.program_wordline_bits(wordline, lsb, msb, now=1.0)
        mis_programmed += reference_program(reference, wordline, lsb, msb)
        _assert_same(kernel, reference)
    # Skewed wordlines: one state only, and a state missing.
    ones = np.ones(bitlines, dtype=np.uint8)
    kernel.program_wordline_bits(3, ones, ones)
    mis_programmed += reference_program(reference, 3, ones, ones)
    lsb, msb = _bits(data, bitlines)
    lsb[: bitlines // 2] = 0
    msb[: bitlines // 2] = 0
    lsb[bitlines // 2 :] = 1
    kernel.program_wordline_bits(4, lsb, msb)
    mis_programmed += reference_program(reference, 4, lsb, msb)
    _assert_same(kernel, reference)
    # Erase, whole-block program, erase again.
    kernel.erase(now=2.0)
    reference_erase(reference)
    _assert_same(kernel, reference)
    lsb, msb = _bits(data, (GEOMETRY.wordlines_per_block, bitlines))
    kernel.program_block_bits(lsb, msb, now=3.0)
    mis_programmed += reference_program(reference, slice(None), lsb, msb)
    _assert_same(kernel, reference)
    kernel.erase(now=4.0)
    reference_erase(reference)
    lsb, msb = _bits(data, bitlines)
    kernel.program_wordline_bits(6, lsb, msb, now=5.0)
    reference_program(reference, 6, lsb, msb)
    _assert_same(kernel, reference)
    if pe >= 8000:
        # Worn blocks must exercise the mis-program branch too.
        assert mis_programmed > 0


#: Program-verify bounds a third of a sigma above the mean: ~37% of
#: every round is rejected, so the retry loop always runs.
STEEP_BOUNDS = [
    NormalLaplaceMixture(300.0, 10.0, tail_weight, 6.0, 9.0, upper_bound=303.0)
    for tail_weight in (0.03, 0.0)
]


@pytest.mark.parametrize("size", [1, 2, 7, 512, 4096])
@pytest.mark.parametrize("dist", STEEP_BOUNDS)
def test_rejection_branch_matches_reference_draw_for_draw(size, dist):
    # The first seed whose initial draw breaks the bound.
    seed = next(
        s for s in range(100)
        if reference_sample_raw(dist, np.random.default_rng(s), size).max()
        > dist.upper_bound
    )
    kernel_rng = np.random.default_rng(seed)
    reference_rng = np.random.default_rng(seed)
    got = dist.sample(kernel_rng, size)
    want = reference_sample(dist, reference_rng, size)
    assert got.tobytes() == want.tobytes()
    assert kernel_rng.bit_generator.state == reference_rng.bit_generator.state
    assert (got <= dist.upper_bound).all()


@pytest.mark.parametrize("dtype", [np.uint8, np.int64, bool])
def test_states_from_bits_matches_2d_lut(dtype):
    rng = np.random.default_rng(4)
    lsb = rng.integers(0, 2, (3, 64)).astype(dtype)
    msb = rng.integers(0, 2, (3, 64)).astype(dtype)
    got = states_from_bits(lsb, msb)
    assert got.dtype == np.int8
    assert np.array_equal(got, reference_states_from_bits(lsb, msb))


@pytest.mark.parametrize("bad", [-1, 2, 255])
def test_states_from_bits_rejects_any_non_bit(bad):
    lsb = np.array([0, 1, bad], dtype=np.int64)
    with pytest.raises(ValueError, match="only 0 and 1"):
        states_from_bits(lsb, np.zeros(3, dtype=np.int64))
    with pytest.raises(ValueError, match="only 0 and 1"):
        states_from_bits(np.zeros(3, dtype=np.int64), lsb)
