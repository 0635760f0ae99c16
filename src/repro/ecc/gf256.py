"""Vectorized GF(2^8) arithmetic on precomputed log/antilog tables.

The field is GF(256) built over the primitive polynomial
``x^8 + x^4 + x^3 + x^2 + 1`` (``0x11D``) with generator ``alpha = 0x02``
— the conventional choice for byte-oriented Reed-Solomon codes.  All
operations are table lookups vectorized over numpy arrays:

- ``EXP`` holds ``alpha**i`` for ``i in [0, 510)`` — *doubled* so that
  ``EXP[LOG[a] + LOG[b]]`` multiplies without a ``% 255`` (log sums stay
  below 510), the classic trick for branch-free batched multiplies.
- ``LOG`` holds the discrete log of every nonzero element
  (``LOG[0]`` is a sentinel: a lookup may read it, but every helper
  masks the results of zero operands).

Every public helper validates its operands once (integers in
``[0, 255]``), accepts scalars or arbitrarily-shaped integer arrays and
broadcasts like the underlying numpy ops, returning ``uint8`` field
elements.  ``_mul`` and ``_div`` are the same table ops without the
validation, for callers whose operands are already field elements:
``repro.ecc.rs`` uses them on the ``uint8`` arrays it builds, and its
syndrome and Chien kernels index the tables directly.
"""

from __future__ import annotations

import numpy as np

#: The primitive polynomial x^8 + x^4 + x^3 + x^2 + 1 defining the field.
PRIMITIVE_POLY = 0x11D

#: The field generator: alpha = x (0x02) is primitive for 0x11D.
GENERATOR = 0x02

#: Field order and the multiplicative-group order.
ORDER = 256
GROUP_ORDER = 255


def _build_tables() -> tuple[np.ndarray, np.ndarray]:
    """Exp/log tables; EXP is doubled (length 510) for mod-free sums."""
    exp = np.zeros(2 * GROUP_ORDER, dtype=np.uint8)
    log = np.zeros(ORDER, dtype=np.int64)
    value = 1
    for power in range(GROUP_ORDER):
        exp[power] = value
        log[value] = power
        value <<= 1
        if value & 0x100:
            value ^= PRIMITIVE_POLY
    exp[GROUP_ORDER:] = exp[:GROUP_ORDER]
    return exp, log


EXP, LOG = _build_tables()


def _as_elements(a) -> np.ndarray:
    arr = np.asarray(a)
    if arr.dtype == np.bool_ or not np.issubdtype(arr.dtype, np.integer):
        raise ValueError(f"GF(256) elements must be integers, got dtype {arr.dtype}")
    if arr.size and (np.any(arr < 0) or np.any(arr > 255)):
        raise ValueError("GF(256) elements must lie in [0, 255]")
    return arr.astype(np.int64, copy=False)


def mul(a, b) -> np.ndarray:
    """Elementwise field product, broadcasting like ``np.multiply``."""
    return _mul(_as_elements(a), _as_elements(b))


def _mul(a, b) -> np.ndarray:
    """:func:`mul` on operands already known to be field elements."""
    # A zero operand reads the LOG sentinel; its product is masked to 0.
    product = EXP[LOG[a] + LOG[b]]
    return np.where((a != 0) & (b != 0), product, np.uint8(0))


def inv(a) -> np.ndarray:
    """Elementwise multiplicative inverse; raises on any zero element."""
    a = _as_elements(a)
    if np.any(a == 0):
        raise ZeroDivisionError("0 has no inverse in GF(256)")
    return EXP[GROUP_ORDER - LOG[a]].astype(np.uint8)


def div(a, b) -> np.ndarray:
    """Elementwise ``a / b``; raises on any zero divisor.

    ``div(0, b) == 0`` by convention, matching the field identity.
    """
    a = _as_elements(a)
    b = _as_elements(b)
    if np.any(b == 0):
        raise ZeroDivisionError("division by 0 in GF(256)")
    return _div(a, b)


def _div(a, b) -> np.ndarray:
    """:func:`div` on field elements; every divisor must be nonzero."""
    # A zero dividend reads the LOG sentinel; its quotient is masked to 0.
    quotient = EXP[LOG[a] - LOG[b] + GROUP_ORDER]
    return np.where(a != 0, quotient, np.uint8(0))


def power(a, n) -> np.ndarray:
    """Elementwise ``a**n`` for nonzero bases (``0**0 == 1``, ``0**n == 0``)."""
    a = _as_elements(a)
    n = np.asarray(n, dtype=np.int64)
    zero_base = a == 0
    exponent = np.mod(LOG[np.where(zero_base, 1, a)] * n, GROUP_ORDER)
    result = EXP[exponent]
    return np.where(zero_base, np.where(n == 0, 1, 0), result).astype(np.uint8)


def alpha_power(n) -> np.ndarray:
    """``alpha**n`` for any integer exponent (negative exponents wrap)."""
    n = np.asarray(n, dtype=np.int64)
    return EXP[np.mod(n, GROUP_ORDER)].astype(np.uint8)


def poly_eval(coeffs: np.ndarray, xs) -> np.ndarray:
    """Evaluate ``sum_i coeffs[i] * x**i`` at each x (Horner, vectorized).

    ``coeffs`` is a 1-D ascending-power coefficient vector; ``xs`` is a
    scalar or array of evaluation points.
    """
    coeffs = _as_elements(np.atleast_1d(coeffs))
    xs = _as_elements(xs)
    acc = np.zeros(np.shape(xs), dtype=np.uint8)
    for coeff in coeffs[::-1]:
        acc = _mul(acc, xs) ^ np.uint8(coeff)
    return acc


def poly_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product of two ascending-power polynomials over GF(256)."""
    a = _as_elements(np.atleast_1d(a))
    b = _as_elements(np.atleast_1d(b))
    out = np.zeros(len(a) + len(b) - 1, dtype=np.uint8)
    for i, coeff in enumerate(a):
        if coeff:
            out[i : i + len(b)] ^= _mul(coeff, b)
    return out
