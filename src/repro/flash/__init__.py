"""NAND flash device substrate.

This subpackage is the software stand-in for the 2Y-nm MLC NAND chips the
paper tests.  Its unit is the :class:`FlashBlock`: a grid of wordlines x
bitlines of floating-gate cells whose state is a continuous normalized
threshold voltage.  The characterization experiments build blocks
directly, as the paper's FPGA platform drives its chips.  A block exposes
the two observables the paper measures, page reads scored against the
programmed data (per-page error counts) and read-retry threshold-voltage
sweeps, plus program/erase and Vpass control.  Every read senses against
the paper's default read references.
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
from repro.flash.sensing import ReadReferences, sense_states, sense_page
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
    "ReadReferences",
    "sense_states",
    "sense_page",
    "ErrorBreakdown",
    "count_bit_errors",
    "measure_rber",
    "state_transition_matrix",
]
