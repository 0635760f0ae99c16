"""NAND flash device substrate.

This subpackage is the software stand-in for the paper's FPGA-based testing
platform plus the 2Y-nm MLC NAND chips under test.  It models a chip as an
array of blocks, each block a grid of wordlines x bitlines of floating-gate
cells whose state is a continuous normalized threshold voltage.  The same
observables the paper relies on are exposed here: read/program/erase
operations, read-retry Vth stepping, per-page error counts, and Vref/Vpass
control.
"""

from repro.flash.state import (
    MlcState,
    STATE_ORDER,
    bits_to_state,
    state_to_bits,
    lsb_of_state,
    msb_of_state,
    states_from_bits,
)
from repro.flash.geometry import FlashGeometry
from repro.flash.cell_array import CellArray
from repro.flash.block import FlashBlock
from repro.flash.chip import FlashChip
from repro.flash.sensing import ReadReferences, sense_states, sense_page, sense_pages
from repro.flash.errors import (
    ErrorBreakdown,
    count_bit_errors,
    measure_rber,
    state_transition_matrix,
)

__all__ = [
    "MlcState",
    "STATE_ORDER",
    "bits_to_state",
    "state_to_bits",
    "lsb_of_state",
    "msb_of_state",
    "states_from_bits",
    "FlashGeometry",
    "CellArray",
    "FlashBlock",
    "FlashChip",
    "ReadReferences",
    "sense_states",
    "sense_page",
    "sense_pages",
    "ErrorBreakdown",
    "count_bit_errors",
    "measure_rber",
    "state_transition_matrix",
]
