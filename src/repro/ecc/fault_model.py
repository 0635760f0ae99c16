"""Symbol-level fault-pattern taxonomy and deterministic fault injection.

Real NAND raw errors are not i.i.d. bit flips: program-interference and
retention failures cluster (symbol bursts a symbol-oriented code like RS
absorbs cheaply), while read-disturb drift scatters single-bit errors
across the page (the out-of-model pattern that eats one ``t`` each).
This module gives the simulator both halves:

- a **taxonomy** that classifies a page's raw symbol-error pattern into
  aligned 1/2/4-symbol bursts vs. out-of-model scattered faults
  (:func:`classify_symbol_errors`), and
- a deterministic **injector** (:func:`parse_fault_spec` +
  :func:`inject_faults`) that overlays structured faults on the
  simulator's physics-derived bit-error masks, so sweeps can drive a
  decoder past capability with a *chosen* pattern shape.

Fault specs are compact strings usable as sweep-axis values:

- ``"burst2:0.001"`` — with probability ``0.001`` per page checked,
  corrupt one *aligned* 2-symbol window (every symbol in the window gets
  a random nonzero byte error).  Widths 1, 2, and 4 are the taxonomy's
  burst classes.
- ``"scatter4:0.001"`` — with the same per-page probability, flip one
  random bit in each of 4 distinct symbols, deliberately unaligned: the
  scattered shape that costs a symbol code the most.

Injection draws from a caller-provided ``numpy`` Generator; the backend
spawn-keys it from per-block state so results are bit-identical across
serial and threaded executors.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

#: Pattern-class codes returned by :func:`classify_symbol_errors`.
PATTERN_CLEAN = 0
PATTERN_SINGLE = 1
PATTERN_BURST2 = 2
PATTERN_BURST4 = 3
PATTERN_SCATTERED = 4

#: Code -> taxonomy name, in code order.
PATTERN_NAMES = ("clean", "single", "burst2", "burst4", "scattered")

#: Aligned burst widths the taxonomy (and the injector) recognize.
BURST_WIDTHS = (1, 2, 4)

_SPEC_RE = re.compile(r"^(burst|scatter)(\d+):([0-9.eE+-]+)$")


@dataclass(frozen=True)
class FaultSpec:
    """A parsed fault-injection axis value (see module docstring)."""

    #: ``"burst"`` (aligned symbol window) or ``"scatter"`` (spread
    #: single-bit symbol errors).
    kind: str
    #: Burst width in symbols (1/2/4) or scattered symbol count.
    size: int
    #: Per-page injection probability, per decode check.
    rate: float

    def __post_init__(self) -> None:
        if self.kind not in ("burst", "scatter"):
            raise ValueError(f"fault kind must be burst|scatter, got {self.kind!r}")
        if self.kind == "burst" and self.size not in BURST_WIDTHS:
            raise ValueError(
                f"burst width must be one of {BURST_WIDTHS}, got {self.size}"
            )
        if self.kind == "scatter" and self.size < 1:
            raise ValueError(f"scatter count must be >= 1, got {self.size}")
        if not 0.0 < self.rate <= 1.0:
            raise ValueError(f"fault rate must be in (0, 1], got {self.rate}")

    @property
    def label(self) -> str:
        """The canonical spec string (round-trips through the parser)."""
        return f"{self.kind}{self.size}:{self.rate:g}"


def parse_fault_spec(spec: str) -> FaultSpec:
    """Parse ``"burst2:0.001"`` / ``"scatter4:1e-3"`` into a :class:`FaultSpec`."""
    match = _SPEC_RE.match(spec.strip())
    if match is None:
        raise ValueError(
            f"bad fault spec {spec!r}: expected burst{{1|2|4}}:RATE or scatterN:RATE"
        )
    kind, size, rate = match.group(1), int(match.group(2)), float(match.group(3))
    return FaultSpec(kind, size, rate)


def inject_faults(
    masks: np.ndarray, spec: FaultSpec, rng: np.random.Generator
) -> np.ndarray:
    """Overlay *spec* faults onto bit-error masks, in place.

    ``masks`` is ``(pages, page_bits)`` bool.  Each page independently
    receives one fault event with probability ``spec.rate``; returns the
    ``(pages,)`` bool vector of pages that were hit.  Only whole symbols
    (``page_bits // 8``) are eligible targets.  Draws happen in a fixed
    order (page-selection vector first, then per-hit placement in page
    order), so a fixed generator state yields a fixed injection.
    """
    pages, page_bits = masks.shape
    full_symbols = page_bits // 8
    if full_symbols < max(spec.size, 1):
        raise ValueError(
            f"page of {full_symbols} whole symbols cannot host a {spec.label} fault"
        )
    hit = rng.random(pages) < spec.rate
    for page in np.flatnonzero(hit):
        if spec.kind == "burst":
            window = int(rng.integers(0, full_symbols // spec.size))
            start = window * spec.size
            # Every symbol in the aligned window gets a random nonzero byte.
            errors = rng.integers(1, 256, size=spec.size)
            for offset, value in enumerate(errors):
                bit0 = (start + offset) * 8
                flips = np.unpackbits(np.uint8(value))
                masks[page, bit0 : bit0 + 8] ^= flips.astype(bool)
        else:
            symbols = rng.choice(full_symbols, size=spec.size, replace=False)
            bits = rng.integers(0, 8, size=spec.size)
            for symbol, bit in zip(symbols, bits):
                masks[page, symbol * 8 + bit] ^= True
    return hit


def classify_symbol_errors(symbols: np.ndarray) -> np.ndarray:
    """Classify each page's symbol-error pattern into the taxonomy.

    ``symbols`` is ``(pages, symbols_per_page)`` uint8 — nonzero entries
    are symbols in error (e.g. ``PageMaskDecode.symbols``).  Returns the
    ``(pages,)`` int8 pattern codes (``PATTERN_*``): the smallest aligned
    1/2/4-symbol window that covers every error symbol, or
    ``PATTERN_SCATTERED`` when none does.
    """
    symbols = np.atleast_2d(symbols)
    in_error = symbols != 0
    count = in_error.sum(axis=1)
    width = symbols.shape[1]
    first = np.argmax(in_error, axis=1)
    last = width - 1 - np.argmax(in_error[:, ::-1], axis=1)
    codes = np.full(symbols.shape[0], PATTERN_SCATTERED, dtype=np.int8)
    codes[first == last] = PATTERN_SINGLE
    codes[(first != last) & (first // 2 == last // 2)] = PATTERN_BURST2
    codes[(first // 2 != last // 2) & (first // 4 == last // 4)] = PATTERN_BURST4
    codes[count == 0] = PATTERN_CLEAN
    return codes


def pattern_counts(codes: np.ndarray) -> dict[str, int]:
    """Histogram pattern codes into a ``{name: count}`` dict (clean omitted)."""
    codes = np.asarray(codes)
    return {
        name: int(np.count_nonzero(codes == code))
        for code, name in enumerate(PATTERN_NAMES)
        if code != PATTERN_CLEAN
    }
