"""ECC provisioning: correction capability and tolerable RBER.

The paper's flash ECC "can tolerate an RBER of up to 1e-3" (Section 2.5).
We model a BCH-like code correcting ``correctable_bits`` per
``codeword_bits`` codeword; the *tolerable* RBER is the raw error
probability at which a codeword still fails only with negligible
probability (the solver below), and it lands at about 1.05e-3 for the
default 40-bit / 1KB-class configuration — matching the paper's number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from scipy.optimize import brentq
from scipy.stats import binom, poisson

from repro.physics import constants


@dataclass(frozen=True)
class EccConfig:
    """Provisioned ECC strength plus the paper's reserved-margin policy.

    One rule judges every page: :class:`~repro.ecc.decoder.EccDecoder`
    fails a page whose raw bit errors exceed
    :meth:`page_capability_bits`, the tolerable-RBER envelope scaled to
    the page.  RDR and the Vpass tuner budget against the same math.
    """

    codeword_bits: int = constants.ECC_CODEWORD_BITS
    correctable_bits: int = constants.ECC_T_BITS
    reserved_margin_fraction: float = constants.ECC_RESERVED_MARGIN_FRACTION
    codeword_failure_target: float = 1e-13

    def __post_init__(self) -> None:
        if self.codeword_bits <= 0 or self.correctable_bits <= 0:
            raise ValueError("codeword and correctable bits must be positive")
        if self.correctable_bits >= self.codeword_bits:
            raise ValueError("cannot correct more bits than the codeword holds")
        if not 0.0 <= self.reserved_margin_fraction < 1.0:
            raise ValueError("reserved margin fraction must be in [0, 1)")
        if not 0.0 < self.codeword_failure_target < 1.0:
            raise ValueError("failure target must be a probability")

    @property
    def raw_capability_rber(self) -> float:
        """Raw correction capability as a bit fraction (t / n)."""
        return self.correctable_bits / self.codeword_bits

    def codeword_failure_probability(self, rber: float) -> float:
        """P[a codeword sees more errors than it can correct] at *rber*."""
        if not 0.0 <= rber <= 1.0:
            raise ValueError("rber must be a probability")
        return float(binom.sf(self.correctable_bits, self.codeword_bits, rber))

    @property
    def tolerable_rber(self) -> float:
        """Highest RBER at which codewords still meet the failure target.

        This is the paper's "ECC can tolerate an RBER of up to 1e-3":
        the operating envelope, below the raw t/n capability because error
        counts fluctuate.
        """
        return _tolerable_rber(
            self.codeword_bits, self.correctable_bits, self.codeword_failure_target
        )

    def page_capability_bits(self, page_bits: int) -> int:
        """Correctable raw bit errors per *page_bits*-bit page, at the
        provisioned (tolerable) operating level.

        The VpassTuner margins are computed against this capability,
        matching the paper's Figure 6 where the margin is 20% of the 1e-3
        capability line.  Memoized by configuration *values* (decoders
        and the RDR escalation path ask on every page, and the answer
        never changes), so no config instance is pinned by the cache.
        """
        if page_bits <= 0:
            raise ValueError("page must contain at least one bit")
        return _page_capability_bits(
            self.codeword_bits,
            self.correctable_bits,
            self.codeword_failure_target,
            page_bits,
        )

    def usable_capability_bits(self, page_bits: int) -> int:
        """Page capability minus the paper's 20% reserved margin."""
        cap = self.page_capability_bits(page_bits)
        return int(math.floor((1.0 - self.reserved_margin_fraction) * cap))

    def expected_worst_page_errors(self, rber: float, page_bits: int, pages: int) -> int:
        """Deterministic model of the worst page's error count among *pages*
        statistically identical pages (Poisson upper quantile).

        Used by the analytic tunable block to produce the maximum estimated
        error (MEE) the mechanism would observe on its predicted worst page.
        """
        if pages < 1:
            raise ValueError("need at least one page")
        lam = max(rber, 0.0) * page_bits
        quantile = 1.0 - 1.0 / (pages + 1.0)
        return int(poisson.ppf(quantile, lam)) if lam > 0 else 0


@lru_cache(maxsize=1024)
def _page_capability_bits(
    codeword_bits: int, correctable_bits: int, target: float, page_bits: int
) -> int:
    return max(
        int(math.floor(_tolerable_rber(codeword_bits, correctable_bits, target) * page_bits)),
        1,
    )


@lru_cache(maxsize=64)
def _tolerable_rber(codeword_bits: int, correctable_bits: int, target: float) -> float:
    def excess(p: float) -> float:
        return float(binom.sf(correctable_bits, codeword_bits, p)) - target

    # The capability is bracketed well inside (1e-8, t/n).
    upper = correctable_bits / codeword_bits
    return float(brentq(excess, 1e-8, upper, xtol=1e-9))


#: Default provisioning used across the reproduction (tolerable RBER ~1e-3).
DEFAULT_ECC = EccConfig()
