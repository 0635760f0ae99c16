"""ECC decoder: the capability threshold of the paper's 1e-3 envelope.

Decoding succeeds whenever a page's raw bit-error count is within the
page capability (:meth:`~repro.ecc.config.EccConfig.page_capability_bits`),
and reports the exact corrected-error count, as real controllers expose
for wear tracking.  An uncorrectable page is the condition RDR exists
to repair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ecc.config import EccConfig, DEFAULT_ECC
from repro.units import VPASS_NOMINAL


class UncorrectableError(Exception):
    """Raised when a page read contains more errors than ECC can correct."""

    def __init__(self, errors: int, capability: int):
        super().__init__(
            f"uncorrectable page: {errors} raw bit errors exceed ECC capability {capability}"
        )
        self.errors = errors
        self.capability = capability


def _require_bit_array(name: str, bits: np.ndarray) -> None:
    """Reject non-bit arrays once, at the public API edge.

    Float and bool arrays used to slip through silently (a float ``0.3``
    would count as an error against ``0`` and bools would mask dtype bugs
    upstream); the decode contract is integer 0/1 arrays exactly.
    """
    if bits.dtype == np.bool_ or not np.issubdtype(bits.dtype, np.integer):
        raise ValueError(
            f"{name} must be an integer 0/1 bit array, got dtype {bits.dtype}"
        )
    if bits.size and (bits.min() < 0 or bits.max() > 1):
        raise ValueError(f"{name} must contain only 0/1 bit values")


@dataclass(frozen=True)
class DecodeResult:
    """Outcome of decoding one page."""

    success: bool
    raw_errors: int
    capability: int

    @property
    def margin(self) -> int:
        """Unused correction capability (negative when decoding failed)."""
        return self.capability - self.raw_errors


@dataclass(frozen=True)
class BatchDecodeResult:
    """Outcome of decoding a batch of equal-sized pages."""

    #: raw bit errors per page.
    raw_errors: np.ndarray
    #: per-page decode success (errors within capability).
    success: np.ndarray


class EccDecoder:
    """Decode pages by comparing raw reads against ground truth.

    The simulator knows the programmed data, so raw errors are exact;
    a page decodes iff they fit the capability of its page size under
    ``config`` (see module docstring).
    """

    def __init__(self, config: EccConfig = DEFAULT_ECC):
        self.config = config

    def decode(self, read_bits: np.ndarray, true_bits: np.ndarray) -> DecodeResult:
        """Attempt to decode a raw page read.  Never raises on decode
        failure; inspect :attr:`DecodeResult.success`."""
        read_bits = np.asarray(read_bits)
        true_bits = np.asarray(true_bits)
        if read_bits.shape != true_bits.shape:
            raise ValueError("read and true bit arrays must have the same shape")
        _require_bit_array("read bits", read_bits)
        _require_bit_array("true bits", true_bits)
        errors = int((read_bits != true_bits).sum())
        capability = self.config.page_capability_bits(read_bits.size)
        return DecodeResult(success=errors <= capability, raw_errors=errors, capability=capability)

    def decode_or_raise(self, read_bits: np.ndarray, true_bits: np.ndarray) -> DecodeResult:
        """Like :meth:`decode` but raises :class:`UncorrectableError` on
        failure (the data-loss event of Section 4)."""
        result = self.decode(read_bits, true_bits)
        if not result.success:
            raise UncorrectableError(result.raw_errors, result.capability)
        return result

    def check_page(
        self,
        flash_block,
        page: int,
        now: float = 0.0,
        vpass: float = VPASS_NOMINAL,
    ) -> DecodeResult:
        """Decode one page of a simulated :class:`~repro.flash.block.FlashBlock`.

        This is the controller-side decode of a host read: sense the page
        at the current simulation time and compare against the programmed
        data.  It charges no disturb: the caller (the simulation engine)
        accounts read disturb in bulk per window.
        """
        read_bits = flash_block.read_page(page, now, vpass, record_disturb=False)
        true_bits = flash_block.expected_page_bits(page)
        return self.decode(read_bits, true_bits)

    def check_pages(
        self,
        flash_block,
        pages: np.ndarray,
        now: float = 0.0,
        vpass: float = VPASS_NOMINAL,
    ) -> BatchDecodeResult:
        """Batched :meth:`check_page` against one simulated block.

        Uses the block's fused error counting
        (:meth:`~repro.flash.block.FlashBlock.page_error_counts`): every
        page senses in one screened pass over its block, and, like
        :meth:`check_page`, the call charges no disturb.

        **Bit-identity.**  Results equal a :meth:`check_page` loop over
        *pages*: ``raw_errors[i]`` and ``success[i]`` are that loop's
        ``raw_errors`` and ``success`` for ``pages[i]``.  The caller
        charges disturb itself:
        :meth:`~repro.controller.backends.FlashChipBackend.on_reads`
        charges each block's flushed reads in one ``record_reads`` call
        before it checks the pages.

        **Precondition.**  Out-of-band edits to the block's leak or
        susceptibility arrays need
        :meth:`~repro.flash.block.FlashBlock.invalidate_voltage_cache`
        before decoding, as for
        :meth:`~repro.flash.block.FlashBlock.page_error_counts`.
        """
        errors = flash_block.page_error_counts(pages, now, vpass)
        capability = self.config.page_capability_bits(
            flash_block.geometry.bitlines_per_block
        )
        return BatchDecodeResult(raw_errors=errors, success=errors <= capability)
