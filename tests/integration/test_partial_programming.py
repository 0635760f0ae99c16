"""Read disturb on unprogrammed and partially-programmed wordlines.

The paper's related work (Section 5.1, citing the authors' HPCA 2017 and
Papandreou et al. IMW 2016) observes that unprogrammed wordlines — whose
cells all sit in the low-Vth erased state — are *more* sensitive to read
disturb than fully-programmed ones, which is the root of the programming
vulnerabilities in partially-written blocks.  The simulator reproduces
this directly from the physics (the disturb rate decays exponentially in
cell voltage), so a partially-programmed block shows it end to end.
"""

import numpy as np

from repro.flash import FlashBlock, FlashGeometry
from repro.rng import RngFactory

GEOMETRY = FlashGeometry(blocks=1, wordlines_per_block=8, bitlines_per_block=8192)


def _partially_programmed_block(seed: int = 2) -> FlashBlock:
    block = FlashBlock(GEOMETRY, RngFactory(seed))
    block.cycle_wear_to(8000)
    bits = GEOMETRY.bitlines_per_block
    rng = np.random.default_rng(seed)
    for wordline in range(4):  # program only the first half of the block
        block.program_wordline_bits(
            wordline,
            rng.integers(0, 2, bits, dtype=np.uint8),
            rng.integers(0, 2, bits, dtype=np.uint8),
        )
    return block


def test_unprogrammed_wordlines_disturb_faster():
    block = _partially_programmed_block()
    before = block.current_voltages(0.0)
    block.apply_read_disturb(500_000, target_wordline=0)
    after = block.current_voltages(0.0)
    shift_programmed = (after[1:4] - before[1:4]).mean()
    shift_erased = (after[4:] - before[4:]).mean()
    # Erased wordlines (all cells low-Vth) absorb much larger shifts than
    # programmed ones (3/4 of whose cells sit at high, disturb-resistant
    # voltages).
    assert shift_erased > 2.5 * shift_programmed


def test_erased_cells_cross_into_programmed_states():
    block = _partially_programmed_block()
    block.apply_read_disturb(1_000_000, target_wordline=0)
    # Wordline 6 holds pages 12 (LSB) and 13 (MSB).  ER reads as 11, so a
    # cell misreads as programmed when either of its bits reads 0.
    lsb = block.read_page(12, record_disturb=False)
    msb = block.read_page(13, record_disturb=False)
    misread = ((lsb == 0) | (msb == 0)).mean()
    assert misread > 0.01, "heavily disturbed erased wordline reads as programmed"


def test_programming_after_disturb_inherits_errors():
    """Programming a disturbed-but-unprogrammed wordline bakes nothing in:
    programming resamples the voltages, clearing the accumulated shift.
    (Real chips program *incrementally* from the disturbed state — the
    HPCA 2017 vulnerability; our program model re-verifies every cell, so
    this documents the simulator's defined behavior.)"""
    block = _partially_programmed_block()
    block.apply_read_disturb(1_000_000, target_wordline=0)
    bits = np.ones(GEOMETRY.bitlines_per_block, dtype=np.uint8)
    block.program_wordline_bits(6, bits, bits)  # ER pattern (1,1)
    errors = block.page_error_count(12, record_disturb=False)
    assert errors < 50
