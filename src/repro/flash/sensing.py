"""Read sensing: compare cell voltages against read references.

A full-state sense applies Va, Vb, Vc in sequence (read-retry style); a
page read applies only the references its bit needs (Vb for the LSB page,
Va and Vc for the MSB page).  A bitline cut off by a too-low pass-through
voltage conducts no current, so the sense amplifier concludes the cell is
above every applied reference regardless of its true voltage.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.physics.constants import VA, VB, VC


@dataclass(frozen=True)
class ReadReferences:
    """The three read reference voltages of a 2-bit MLC sense."""

    va: float = VA
    vb: float = VB
    vc: float = VC

    def __post_init__(self) -> None:
        if not self.va < self.vb < self.vc:
            raise ValueError("references must satisfy va < vb < vc")

    def as_array(self) -> np.ndarray:
        return np.array([self.va, self.vb, self.vc], dtype=np.float64)


DEFAULT_REFERENCES = ReadReferences()


def sense_states(
    voltages: np.ndarray,
    references: ReadReferences = DEFAULT_REFERENCES,
    cutoff: np.ndarray | None = None,
) -> np.ndarray:
    """Full-state sense: map voltages to state indices 0..3.

    *cutoff* marks bitlines that cannot conduct; they sense as the highest
    state (above every reference).
    """
    voltages = np.asarray(voltages, dtype=np.float64)
    states = np.searchsorted(references.as_array(), voltages, side="left").astype(np.int8)
    if cutoff is not None:
        states = np.where(np.asarray(cutoff, bool), np.int8(3), states)
    return states


def sense_page(
    voltages: np.ndarray,
    is_msb: bool,
    references: ReadReferences = DEFAULT_REFERENCES,
    cutoff: np.ndarray | None = None,
) -> np.ndarray:
    """Page sense: return the bit array read from one wordline's page.

    LSB page: bit = 1 iff V <= Vb.  MSB page: bit = 1 iff V <= Va or
    V > Vc (gray coding from the paper's Figure 1).  Cut-off bitlines sense
    as above-all-references: LSB reads 0, MSB reads 1.
    """
    voltages = np.asarray(voltages, dtype=np.float64)
    if is_msb:
        bits = ((voltages <= references.va) | (voltages > references.vc)).astype(np.uint8)
        if cutoff is not None:
            bits = np.where(np.asarray(cutoff, bool), np.uint8(1), bits)
    else:
        bits = (voltages <= references.vb).astype(np.uint8)
        if cutoff is not None:
            bits = np.where(np.asarray(cutoff, bool), np.uint8(0), bits)
    return bits
