"""Pass-through (bitline cutoff) errors from a relaxed Vpass.

During a read, every unread wordline of the block is driven at Vpass so its
cells conduct regardless of their state.  If Vpass is relaxed below the
threshold voltage of *any* unread cell on a bitline, that bitline cannot
conduct and the read senses "no current" — i.e. the target cell appears to
be above every applied reference, regardless of its true state (paper
Section 2.3).  Unlike read disturb these errors do not move any threshold
voltage; raising Vpass back makes them vanish.

Program-verify bounds programmed voltages below ``PROGRAM_VERIFY_MAX``, so a
small relaxation induces *no* errors (the flat region of Figure 5).
Retention loss lowers voltages over time — but heterogeneously: the
fast-leakers drop quickly while slow-leaking cells linger near the verify
bound, so older data tolerates a deeper relaxation without the error
population ever collapsing outright (the Figure 5 age ordering).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.flash.state import MlcState, STATE_ORDER
from repro.physics import constants
from repro.physics.distributions import state_distribution
from repro.physics.retention import leak_cdf, retention_coefficient


@dataclass(frozen=True)
class PassThroughModel:
    """Analytic model of the extra raw bit errors from relaxing Vpass.

    ``wordlines_per_block`` controls how many unread cells share each
    bitline: the cutoff probability per bitline is
    1 - (1 - p_cell)^(W - 1).
    """

    wordlines_per_block: int = 128
    state_fractions: tuple[float, float, float, float] = (0.25, 0.25, 0.25, 0.25)
    grid_points: int = 400

    def __post_init__(self) -> None:
        if self.wordlines_per_block < 2:
            raise ValueError("need at least two wordlines for pass-through")
        if abs(sum(self.state_fractions) - 1.0) > 1e-9:
            raise ValueError("state fractions must sum to 1")

    def cell_cutoff_probability(
        self,
        vpass: float,
        pe_cycles: float,
        retention_age_seconds: float = 0.0,
    ) -> float:
        """P[one cell's current Vth exceeds *vpass*].

        A cell programmed at v0 > vpass is still above vpass at age t iff
        its leak factor is below the closed-form requirement
        ``(v0 - vpass) / (k * (v0 - floor))``; the expectation over the
        programmed-voltage distribution is a short quadrature.  Read-disturb
        drift is neglected here (cells high enough to matter are P3 cells,
        whose drift is ~100x smaller than ER's).
        """
        if vpass <= 0:
            raise ValueError("vpass must be positive")
        if vpass >= constants.PROGRAM_VERIFY_MAX:
            return 0.0
        k = float(retention_coefficient(retention_age_seconds, pe_cycles))
        edges = np.linspace(vpass, constants.PROGRAM_VERIFY_MAX, self.grid_points + 1)
        mids = 0.5 * (edges[:-1] + edges[1:])
        # With no retention age (k = 0), or a subnormal one (k -> 0+), the
        # leak requirement is +inf or overflows to it.  That is the
        # no-leak limit, and leak_cdf(inf) == 1: every cell programmed
        # above vpass is still above it.
        with np.errstate(divide="ignore", over="ignore"):
            l_req = (mids - vpass) / (k * np.maximum(mids - constants.RET_CHARGE_FLOOR, 1e-9))
        still_above = leak_cdf(l_req)
        total = 0.0
        for frac, state in zip(self.state_fractions, STATE_ORDER):
            if frac == 0.0:
                continue
            dist = state_distribution(MlcState(state), pe_cycles)
            masses = np.diff(dist.cdf(edges))
            total += frac * float(masses @ still_above)
        return total

    def bitline_cutoff_probability(
        self,
        vpass: float,
        pe_cycles: float,
        retention_age_seconds: float = 0.0,
    ) -> float:
        """P[a bitline is cut off during a read] (any of W-1 unread cells)."""
        p = self.cell_cutoff_probability(vpass, pe_cycles, retention_age_seconds)
        return float(1.0 - (1.0 - p) ** (self.wordlines_per_block - 1))

    def additional_rber(
        self,
        vpass: float,
        pe_cycles: float,
        retention_age_seconds: float = 0.0,
    ) -> float:
        """Extra raw bit error rate induced by reading at *vpass*.

        A cut-off bitline reads as the highest sensed category; with random
        data this flips the stored bit with probability 1/2 on either page.
        """
        return 0.5 * self.bitline_cutoff_probability(
            vpass, pe_cycles, retention_age_seconds
        )

    def max_safe_vpass_reduction(
        self,
        rber_budget: float,
        pe_cycles: float,
        retention_age_seconds: float = 0.0,
        resolution: float = 1.0,
        max_reduction_fraction: float = 0.12,
    ) -> float:
        """Deepest Vpass (normalized volts below nominal) whose extra RBER
        stays within *rber_budget*, at the given resolution.

        This is the physics-side answer the VpassTuner discovers empirically
        on a block (Figure 6's per-age annotations).
        """
        if rber_budget < 0:
            return 0.0
        from repro.units import VPASS_NOMINAL

        best = 0.0
        steps = int(max_reduction_fraction * VPASS_NOMINAL / resolution)
        for i in range(1, steps + 1):
            reduction = i * resolution
            extra = self.additional_rber(
                VPASS_NOMINAL - reduction, pe_cycles, retention_age_seconds
            )
            if extra > rber_budget:
                break
            best = reduction
        return best
