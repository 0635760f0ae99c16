"""A simulated MLC NAND flash chip: an array of blocks plus a clock.

The chip is the stand-in for the paper's device-under-test; the
:mod:`repro.analysis.characterization` drivers play the role of the FPGA
test platform, and :mod:`repro.controller` plays the role of the SSD
controller that would sit in front of a real chip.
"""

from __future__ import annotations

import numpy as np

from repro.rng import RngFactory
from repro.units import VPASS_NOMINAL
from repro.flash.block import FlashBlock
from repro.flash.geometry import FlashGeometry
from repro.flash.sensing import DEFAULT_REFERENCES, ReadReferences


class FlashChip:
    """Array of flash blocks sharing a simulation clock."""

    def __init__(self, geometry: FlashGeometry | None = None, seed: int = 0):
        self.geometry = geometry if geometry is not None else FlashGeometry()
        self.rng_factory = RngFactory(seed)
        self.blocks = [
            FlashBlock(self.geometry, self.rng_factory, block_id=i)
            for i in range(self.geometry.blocks)
        ]
        #: simulation time in seconds.
        self.now = 0.0

    def advance_time(self, seconds: float) -> None:
        """Advance the simulation clock (retention accrues implicitly)."""
        if seconds < 0:
            raise ValueError("time cannot go backwards")
        self.now += float(seconds)

    def block(self, index: int) -> FlashBlock:
        """Return block *index* (bounds-checked)."""
        return self.blocks[index]

    # Convenience wrappers mirroring a real chip's command set -----------

    def erase_block(self, index: int) -> None:
        self.blocks[index].erase(self.now)

    def program_block_random(self, index: int) -> None:
        self.blocks[index].program_random(self.now)

    def record_reads(
        self,
        block: int,
        wordlines: np.ndarray,
        counts: np.ndarray,
        vpass: float = VPASS_NOMINAL,
    ) -> None:
        """Account a batch of reads against *block* (no data returned).

        Chip-level mirror of :meth:`FlashBlock.record_reads` for bulk
        experiments: a whole campaign of reads is charged as disturb in
        one call instead of one :meth:`read` per operation.
        """
        self.blocks[block].record_reads(wordlines, counts, vpass)

    def read(
        self,
        block: int,
        page: int,
        references: ReadReferences = DEFAULT_REFERENCES,
        vpass: float = VPASS_NOMINAL,
    ) -> np.ndarray:
        """Read a page; disturbs the rest of the block as a side effect."""
        return self.blocks[block].read_page(page, self.now, references, vpass)

    def read_retry(
        self,
        block: int,
        wordline: int,
        reference_offsets: tuple[float, float, float],
        vpass: float = VPASS_NOMINAL,
    ) -> np.ndarray:
        """Full-state read with shifted references (the read-retry command
        the paper uses to measure threshold voltages)."""
        refs = DEFAULT_REFERENCES.shifted(*reference_offsets)
        return self.blocks[block].read_wordline_states(wordline, self.now, refs, vpass)

    def __repr__(self) -> str:
        return f"FlashChip(blocks={len(self.blocks)}, now={self.now:.0f}s)"
