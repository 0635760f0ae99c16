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
    #: shared correction capability of the batch's page size.
    capability: int

    def __len__(self) -> int:
        return int(self.raw_errors.size)

    @property
    def margins(self) -> np.ndarray:
        """Unused correction capability per page (negative on failure)."""
        return self.capability - self.raw_errors

    def _check_index(self, index: int) -> int:
        index = int(index)
        if not -len(self) <= index < len(self):
            raise IndexError(
                f"page index {index} out of range for batch of {len(self)} pages"
            )
        return index

    def page(self, index: int) -> DecodeResult:
        """The scalar :class:`DecodeResult` of one page of the batch."""
        index = self._check_index(index)
        return DecodeResult(
            success=bool(self.success[index]),
            raw_errors=int(self.raw_errors[index]),
            capability=self.capability,
        )


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

    def decode_pages(
        self, read_bits: np.ndarray, true_bits: np.ndarray
    ) -> BatchDecodeResult:
        """Batched :meth:`decode`: one ``(pages, page_bits)`` comparison.

        Raw errors fall out of a single XOR over the bit matrices and
        capability resolves once per page size, so a flushed batch is a
        few vectorized passes instead of a Python loop.

        **Bit-identity.**  ``decode_pages(R, T).page(i)`` equals
        ``decode(R[i], T[i])`` for every row — same raw-error counts,
        same success flags, same capability (pinned by
        ``tests/ecc/test_decoder.py``).  Decoding only reads its
        arguments; it never mutates block state or consumes RNG, so it
        can run on any sensed batch without perturbing the simulation.
        """
        read_bits = np.asarray(read_bits)
        true_bits = np.asarray(true_bits)
        if read_bits.shape != true_bits.shape:
            raise ValueError("read and true bit arrays must have the same shape")
        if read_bits.ndim != 2:
            raise ValueError("decode_pages expects (pages, page_bits) matrices")
        _require_bit_array("read bits", read_bits)
        _require_bit_array("true bits", true_bits)
        errors = np.count_nonzero(read_bits != true_bits, axis=1).astype(np.int64)
        capability = self.config.page_capability_bits(read_bits.shape[1])
        return BatchDecodeResult(
            raw_errors=errors, success=errors <= capability, capability=capability
        )

    def check_page(
        self,
        flash_block,
        page: int,
        now: float = 0.0,
        vpass: float | None = None,
        record_disturb: bool = False,
    ) -> DecodeResult:
        """Decode one page of a simulated :class:`~repro.flash.block.FlashBlock`.

        This is the controller-side decode of a host read: sense the page
        at the current simulation time and compare against the programmed
        data.  Disturb recording defaults to off because the caller (the
        simulation engine) accounts read disturb in bulk per window.
        """
        kwargs = {} if vpass is None else {"vpass": vpass}
        read_bits = flash_block.read_page(
            page, now, record_disturb=record_disturb, **kwargs
        )
        true_bits = flash_block.expected_page_bits(page)
        return self.decode(read_bits, true_bits)

    def check_pages(
        self,
        flash_block,
        pages: np.ndarray,
        now: float = 0.0,
        vpass: float | None = None,
        record_disturb: bool = False,
    ) -> BatchDecodeResult:
        """Batched :meth:`check_page` against one simulated block.

        Uses the block's fused error counting
        (:meth:`~repro.flash.block.FlashBlock.page_error_counts`): every
        page senses against a single voltage materialization.

        **Bit-identity.**  Results equal a non-recording
        :meth:`check_page` loop over *pages*; every page is sensed at
        the batch's entry exposure (recording, when enabled, charges
        disturb after sensing — the flush-granular contract of
        :meth:`~repro.controller.backends.FlashChipBackend.on_reads`).

        **Cache precondition.**  Inherits the block's ``(now,
        voltage_epoch)`` cache contract: out-of-band cell mutations need
        :meth:`~repro.flash.block.FlashBlock.invalidate_voltage_cache`
        before decoding.
        """
        kwargs = {} if vpass is None else {"vpass": vpass}
        errors = flash_block.page_error_counts(
            pages, now, record_disturb=record_disturb, **kwargs
        )
        capability = self.config.page_capability_bits(
            flash_block.geometry.bitlines_per_block
        )
        return BatchDecodeResult(
            raw_errors=errors, success=errors <= capability, capability=capability
        )
