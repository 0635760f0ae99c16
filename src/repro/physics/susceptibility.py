"""Per-cell read-disturb susceptibility (process variation).

The paper's RDR mechanism works *because* cells differ persistently in how
much each read disturb shifts them ("the variation in read disturb shifts
that arise from the underlying process variation within a flash chip",
Section 6.2).  We model each cell's susceptibility ``a`` as a mixture:

- a lognormal body with unit mean (ordinary cells), and
- a small fraction of "weak" cells whose susceptibility follows a truncated
  Pareto law with tail index alpha = 1.

The Pareto tail is the load-bearing modeling choice: its survival function
S(a) ~ 1/a makes the number of cells whose cumulative shift crosses a read
reference grow *linearly* in the read count, which is exactly the paper's
Figure 3 observation.  (Any flip-threshold distribution with locally flat
density yields linear RBER growth; alpha = 1 gives it over the full
measured window.)

``scipy.special.ndtr`` is imported inside
:meth:`SusceptibilityModel.survival`, its one user: only the analytic
channel model evaluates the survival function, and sampling needs no
SciPy, so a cold ``import repro`` does not load it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.physics import constants


@dataclass(frozen=True)
class SusceptibilityModel:
    """Mixture susceptibility model with analytic survival function."""

    lognormal_sigma: float = constants.SUSCEPT_LOGNORMAL_SIGMA
    weak_fraction: float = constants.WEAK_CELL_FRACTION
    weak_a_min: float = constants.WEAK_CELL_A_MIN
    weak_a_max: float = constants.WEAK_CELL_A_MAX

    def __post_init__(self) -> None:
        if not 0.0 <= self.weak_fraction < 1.0:
            raise ValueError("weak fraction must be in [0, 1)")
        if not 0.0 < self.weak_a_min < self.weak_a_max:
            raise ValueError("need 0 < a_min < a_max")
        if self.lognormal_sigma <= 0:
            raise ValueError("lognormal sigma must be positive")

    @property
    def _lognormal_mu(self) -> float:
        # Unit-mean lognormal: E[a] = exp(mu + sigma^2/2) = 1.
        return -0.5 * self.lognormal_sigma**2

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw per-cell susceptibilities (persistent for a cell's lifetime)."""
        out = rng.lognormal(self._lognormal_mu, self.lognormal_sigma, size)
        weak = rng.random(size) < self.weak_fraction
        n_weak = int(weak.sum())
        if n_weak:
            out[weak] = self._sample_weak(rng, n_weak)
        return out

    def _sample_weak(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Inverse-CDF sampling of the truncated Pareto(alpha=1) component."""
        u = rng.random(size)
        inv_min = 1.0 / self.weak_a_min
        inv_max = 1.0 / self.weak_a_max
        return 1.0 / (inv_min - u * (inv_min - inv_max))

    def survival(self, a: np.ndarray | float) -> np.ndarray:
        """P[susceptibility > a] for the full mixture (vectorized).

        This is the closed form that makes the analytic RBER model exact:
        given a read count, the set of flipped cells is exactly the set with
        susceptibility above a deterministic per-cell requirement.
        """
        from scipy.special import ndtr

        a = np.asarray(a, dtype=np.float64)
        out = np.empty(np.shape(a), dtype=np.float64)
        positive = a > 0.0
        # Lognormal body survival.
        body = np.ones_like(out)
        safe_a = np.where(positive, a, 1.0)
        z = (np.log(safe_a) - self._lognormal_mu) / self.lognormal_sigma
        body = np.where(positive, 1.0 - ndtr(z), 1.0)
        # Truncated-Pareto weak survival.
        inv_min = 1.0 / self.weak_a_min
        inv_max = 1.0 / self.weak_a_max
        clipped = np.clip(safe_a, self.weak_a_min, self.weak_a_max)
        weak = (1.0 / clipped - inv_max) / (inv_min - inv_max)
        weak = np.where(a <= self.weak_a_min, 1.0, weak)
        weak = np.where(a >= self.weak_a_max, 0.0, weak)
        out = (1.0 - self.weak_fraction) * body + self.weak_fraction * weak
        return out if out.ndim else float(out)


#: Default model shared by the Monte-Carlo and analytic layers.
DEFAULT_SUSCEPTIBILITY = SusceptibilityModel()
