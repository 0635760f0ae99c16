"""Retention leakage: cells slowly lose charge after programming.

The median shift is logarithmic in time and proportional to the stored
charge (cells programmed higher leak faster), accelerated by P/E wear:

    dV(t) = -leak * R_RET * damage_ret(pe) * q(V0) * ln(1 + t / T0),
    q(V0) = max(V0 - RET_CHARGE_FLOOR, 0) / 512,

where ``leak`` is a per-cell lognormal factor (unit mean): process
variation makes some cells fast-leaking and some slow-leaking.  The
heterogeneity matters for two paper observations: the slow-leakers keep a
persistent (if shrinking) population of high-Vth cells, so relaxed-Vpass
read errors decay with retention age but never fully vanish (Figure 5);
and error growth over days follows a soft power law rather than a sharp
Gaussian-edge cliff (Figure 6).

This is the standard log-time retention law (Cai et al., HPCA 2015); the
fast/slow-leaking distinction is the same one the authors' RFR recovery
mechanism exploits.

``scipy.special.ndtr`` is imported inside :func:`leak_cdf`, its one
user: only the analytic channel model calls it, so a cold
``import repro`` does not load SciPy.
"""

from __future__ import annotations

import numpy as np

from repro.physics import constants
from repro.physics.wear import retention_damage

#: lognormal location for a unit-mean leak factor.
_LEAK_MU = -0.5 * constants.RET_LEAK_SIGMA**2


def _log_term(age_seconds: float | np.ndarray) -> np.ndarray:
    age = np.asarray(age_seconds, dtype=np.float64)
    if (age < 0).any():
        raise ValueError("retention age cannot be negative")
    return np.log1p(age / constants.T0_RET_SECONDS)


def retention_coefficient(age_seconds: float | np.ndarray, pe_cycles: float) -> np.ndarray | float:
    """The k in ``shift = -leak * k * (v0 - floor)``: fraction of stored
    charge lost by a median cell at this age and wear."""
    out = (
        constants.R_RET
        * retention_damage(pe_cycles)
        * _log_term(age_seconds)
        / 512.0
    )
    return float(out) if np.ndim(out) == 0 else out


def retention_shift(
    v0: np.ndarray | float,
    age_seconds: float | np.ndarray,
    pe_cycles: float,
    leak: np.ndarray | float = 1.0,
) -> np.ndarray:
    """Vth shift (<= 0) of a cell programmed at *v0* after *age_seconds*."""
    v0 = np.asarray(v0, dtype=np.float64)
    charge = np.maximum(v0 - constants.RET_CHARGE_FLOOR, 0.0)
    k = retention_coefficient(age_seconds, pe_cycles)
    return -np.asarray(leak, dtype=np.float64) * k * charge


def retained_voltage(
    v0: np.ndarray | float,
    age_seconds: float | np.ndarray,
    pe_cycles: float,
    leak: np.ndarray | float = 1.0,
) -> np.ndarray:
    """Voltage after retention loss (never below the charge floor)."""
    v0 = np.asarray(v0, dtype=np.float64)
    out = v0 + retention_shift(v0, age_seconds, pe_cycles, leak)
    # Leakage stops once the cell is down at the neutral level.
    return np.maximum(out, np.minimum(v0, constants.RET_CHARGE_FLOOR))


def sample_leak_factors(rng: np.random.Generator, size: int) -> np.ndarray:
    """Draw persistent per-cell leak factors (unit-mean lognormal)."""
    return rng.lognormal(_LEAK_MU, constants.RET_LEAK_SIGMA, size)


def leak_cdf(x: np.ndarray | float) -> np.ndarray:
    """P[leak factor <= x], vectorized; 0 for non-positive x."""
    from scipy.special import ndtr

    x = np.asarray(x, dtype=np.float64)
    positive = x > 0
    safe = np.where(positive, x, 1.0)
    z = (np.log(safe) - _LEAK_MU) / constants.RET_LEAK_SIGMA
    out = np.where(positive, ndtr(z), 0.0)
    return out if out.ndim else float(out)


def leak_quadrature(nodes: int = 9) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Hermite nodes and weights for expectations over the leak
    factor: E[f(leak)] ~ sum(w * f(l)).  Weights sum to 1."""
    x, w = np.polynomial.hermite.hermgauss(nodes)
    leaks = np.exp(_LEAK_MU + np.sqrt(2.0) * constants.RET_LEAK_SIGMA * x)
    return leaks, w / np.sqrt(np.pi)


def retention_threshold_inverse(
    v_after: float,
    age_seconds: float,
    pe_cycles: float,
    leak: float = 1.0,
) -> float:
    """Invert the retention law for a given leak factor: the programmed v0
    that decays to exactly *v_after*.

    The shift is linear in v0 above the charge floor, so the inverse is
    closed-form.
    """
    k = float(leak) * float(retention_coefficient(age_seconds, pe_cycles))
    if v_after <= constants.RET_CHARGE_FLOOR:
        return float(v_after)
    if k >= 1.0:
        # The cell would have fully collapsed to the floor; no finite v0
        # stays above the floor at this leak rate.
        return float("inf")
    # v_after = v0 - k * (v0 - floor)  =>  v0 = (v_after - k * floor) / (1 - k)
    return float((v_after - k * constants.RET_CHARGE_FLOOR) / (1.0 - k))
