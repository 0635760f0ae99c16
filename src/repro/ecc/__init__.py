"""Error-correcting code model: the paper's 1e-3 RBER envelope.

The paper characterizes its flash ECC by one number, the raw bit error
rate it can tolerate (Section 2.5: "up to 1e-3").  The mechanisms it
studies interact with ECC through two numbers only: how many raw bit
errors a page can correct at that operating level
(:meth:`EccConfig.page_capability_bits`) and how many a read actually
contained.  :class:`EccDecoder` compares the two; a page whose raw
errors exceed the capability is uncorrectable, the condition RDR exists
to repair.
"""

from repro.ecc.config import EccConfig, DEFAULT_ECC
from repro.ecc.decoder import (
    BatchDecodeResult,
    DecodeResult,
    EccDecoder,
    UncorrectableError,
)

__all__ = [
    "EccConfig",
    "DEFAULT_ECC",
    "BatchDecodeResult",
    "DecodeResult",
    "EccDecoder",
    "UncorrectableError",
]
