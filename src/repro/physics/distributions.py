"""Threshold-voltage distributions: normal body + asymmetric Laplace tails.

Sub-20nm MLC state distributions are well modeled by a Gaussian body with
exponential tails (Parnell et al., GLOBECOM 2014; Luo et al., JSAC 2016).
We implement the mixture

    V ~ (1 - w) * Normal(mu, sigma) + w * AsymmetricLaplace(mu, s_lo, s_hi)

truncated above by the program-verify bound.  Wear (P/E cycling) widens the
body and tails and creeps the means upward; the wear transforms live in
:mod:`repro.physics.wear` and are applied through :func:`state_distribution`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from scipy.special import ndtr  # Gaussian CDF, vectorized

from repro.flash.state import MlcState
from repro.physics import constants
from repro.physics.wear import mean_creep, sigma_widening


@dataclass(frozen=True)
class AsymmetricLaplace:
    """Asymmetric Laplace distribution with distinct low/high scales.

    Density: f(x) = exp((x - mu) / s_lo) / (s_lo + s_hi) for x < mu and
    f(x) = exp(-(x - mu) / s_hi) / (s_lo + s_hi) for x >= mu.
    """

    mu: float
    scale_low: float
    scale_high: float

    def __post_init__(self) -> None:
        if self.scale_low <= 0 or self.scale_high <= 0:
            raise ValueError("Laplace scales must be positive")

    def cdf(self, x: np.ndarray | float) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        total = self.scale_low + self.scale_high
        below = (self.scale_low / total) * np.exp(
            np.minimum(x - self.mu, 0.0) / self.scale_low
        )
        above = 1.0 - (self.scale_high / total) * np.exp(
            -np.maximum(x - self.mu, 0.0) / self.scale_high
        )
        return np.where(x < self.mu, below, above)

    def sf(self, x: np.ndarray | float) -> np.ndarray:
        return 1.0 - self.cdf(x)

    def pdf(self, x: np.ndarray | float) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        total = self.scale_low + self.scale_high
        lo = np.exp(np.minimum(x - self.mu, 0.0) / self.scale_low)
        hi = np.exp(-np.maximum(x - self.mu, 0.0) / self.scale_high)
        return np.where(x < self.mu, lo, hi) / total

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        p_low = self.scale_low / (self.scale_low + self.scale_high)
        low = rng.random(size) < p_low
        out = np.empty(size, dtype=np.float64)
        n_low = int(np.count_nonzero(low))
        out[low] = self.mu - rng.exponential(self.scale_low, n_low)
        out[~low] = self.mu + rng.exponential(self.scale_high, size - n_low)
        return out


@dataclass(frozen=True)
class NormalLaplaceMixture:
    """Gaussian body plus asymmetric-Laplace tail component, truncated above.

    ``upper_bound`` models program-verify: samples are redrawn until they
    land below it, and the analytic CDF/SF are renormalized accordingly.
    """

    mu: float
    sigma: float
    tail_weight: float
    scale_low: float
    scale_high: float
    upper_bound: float = np.inf

    def __post_init__(self) -> None:
        if not 0.0 <= self.tail_weight < 1.0:
            raise ValueError("tail weight must be in [0, 1)")
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")
        if self.upper_bound <= self.mu:
            raise ValueError("upper bound must exceed the mean")

    @cached_property
    def _laplace(self) -> AsymmetricLaplace:
        # cached_property writes straight into __dict__, which a frozen
        # dataclass permits; sampling hits this on every draw.
        return AsymmetricLaplace(self.mu, self.scale_low, self.scale_high)

    def _raw_cdf(self, x: np.ndarray | float) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        body = ndtr((x - self.mu) / self.sigma)
        return (1.0 - self.tail_weight) * body + self.tail_weight * self._laplace.cdf(x)

    def _truncation_mass(self) -> float:
        if np.isinf(self.upper_bound):
            return 1.0
        return float(self._raw_cdf(self.upper_bound))

    def cdf(self, x: np.ndarray | float) -> np.ndarray:
        """CDF of the truncated mixture."""
        x = np.asarray(x, dtype=np.float64)
        mass = self._truncation_mass()
        return np.minimum(self._raw_cdf(x) / mass, 1.0)

    def sf(self, x: np.ndarray | float) -> np.ndarray:
        """Survival function (P[V > x]) of the truncated mixture."""
        return 1.0 - self.cdf(x)

    def pdf(self, x: np.ndarray | float) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        body = np.exp(-0.5 * ((x - self.mu) / self.sigma) ** 2) / (
            self.sigma * np.sqrt(2.0 * np.pi)
        )
        raw = (1.0 - self.tail_weight) * body + self.tail_weight * self._laplace.pdf(x)
        raw = raw / self._truncation_mass()
        if np.isfinite(self.upper_bound):
            raw = np.where(x > self.upper_bound, 0.0, raw)
        return raw

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw samples, rejection-resampling anything above the bound.

        Draw order: one :meth:`_sample_raw` of *size*, then one per
        program-verify retry round, sized to that round's offenders.
        """
        out = self._sample_raw(rng, size)
        # Program-verify retries; offender fraction is ~1e-4, so most
        # draws skip the scan and a few rounds always suffice.
        if size and out.max() > self.upper_bound:
            bad = out > self.upper_bound
            for _ in range(100):
                n_bad = int(np.count_nonzero(bad))
                if n_bad == 0:
                    break
                out[bad] = self._sample_raw(rng, n_bad)
                bad = out > self.upper_bound
            else:  # pragma: no cover - defensive
                out = np.minimum(out, self.upper_bound)
        return out

    def _sample_raw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Untruncated draws: *size* tail flags, then the body normals,
        then (if any flag landed) the Laplace tail draws."""
        tail = rng.random(size) < self.tail_weight
        n_tail = int(np.count_nonzero(tail))
        body = rng.normal(self.mu, self.sigma, size - n_tail)
        if not n_tail:
            return body
        out = np.empty(size, dtype=np.float64)
        out[~tail] = body
        out[tail] = self._laplace.sample(rng, n_tail)
        return out

    def mass_between(self, lo: float, hi: float) -> float:
        """Probability mass on the interval (lo, hi]."""
        return float(self.cdf(hi) - self.cdf(lo))


@dataclass(frozen=True)
class StateParams:
    """Fresh (zero-wear) distribution parameters for one MLC state."""

    mean: float
    sigma: float
    tail_low: float
    tail_high: float


#: Fresh parameters per state, from the calibration table in constants.
FRESH_STATE_PARAMS = {
    MlcState(i): StateParams(
        mean=constants.STATE_MEANS[i],
        sigma=constants.STATE_SIGMAS[i],
        tail_low=constants.STATE_TAIL_LOW[i],
        tail_high=constants.STATE_TAIL_HIGH[i],
    )
    for i in range(4)
}


@lru_cache(maxsize=512)
def state_distribution(state: MlcState, pe_cycles: float) -> NormalLaplaceMixture:
    """Return the Vth distribution of *state* on a block with *pe_cycles* wear.

    Wear widens the body and tails (oxide damage adds programming noise) and
    creeps the means upward (trapped charge); see
    :mod:`repro.physics.wear`.  Programmed states are truncated above by the
    program-verify bound; the erased state is far below the bound so the
    truncation is inert for it.

    Memoized: program paths resolve the same (state, wear) pair for every
    wordline of a block, and the mixture is immutable.
    """
    params = FRESH_STATE_PARAMS[MlcState(state)]
    widen = sigma_widening(pe_cycles)
    return NormalLaplaceMixture(
        mu=params.mean + mean_creep(MlcState(state), pe_cycles),
        sigma=params.sigma * widen,
        tail_weight=constants.TAIL_WEIGHT,
        scale_low=params.tail_low * widen,
        scale_high=params.tail_high * widen,
        upper_bound=constants.PROGRAM_VERIFY_MAX,
    )
