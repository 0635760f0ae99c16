"""Program errors: cells mis-programmed into an adjacent state.

During incremental step-pulse programming a small, wear-dependent fraction
of cells overshoots (or fails to inhibit) and settles in a state adjacent
to the intended one.  Under gray coding this costs exactly one bit per
affected cell, producing the error floor visible before any retention or
read disturb accumulates (the intercepts of the paper's Figure 3 and the
day-0 level of Figure 6).

The Monte-Carlo layer applies :func:`apply_program_errors` at program time;
the analytic layer adds the equivalent closed-form term
:func:`program_error_rber`.
"""

from __future__ import annotations

import numpy as np

from repro.physics import constants


def program_error_rate(pe_cycles: float) -> float:
    """Fraction of programmed cells that land in an adjacent state."""
    if pe_cycles < 0:
        raise ValueError("P/E cycle count cannot be negative")
    pe = max(pe_cycles, constants.PE_FLOOR)
    return constants.PROGRAM_ERROR_RATE_REF * (
        pe / constants.PROGRAM_ERROR_PE_REF
    ) ** constants.PROGRAM_ERROR_PE_EXPONENT


def program_error_rber(pe_cycles: float) -> float:
    """Raw bit error rate contributed by program errors.

    One bit flips per mis-programmed cell (adjacent states differ by one
    gray-coded bit), and each cell stores two bits.
    """
    return program_error_rate(pe_cycles) / 2.0


def apply_program_errors(
    intended_states: np.ndarray,
    pe_cycles: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Return the states cells *actually* land in.

    Mis-programmed cells move one state up when possible, otherwise one
    state down (the top state can only undershoot).  When no cell
    mis-programs the result may share memory with *intended_states*;
    the input itself is never modified.
    """
    states = np.asarray(intended_states, dtype=np.int8)
    rate = program_error_rate(pe_cycles)
    if rate <= 0.0:
        return states
    wrong = rng.random(states.shape) < rate
    if not wrong.any():
        return states
    states = states.copy()
    moved = states[wrong]
    moved = np.where(moved < 3, moved + 1, moved - 1).astype(np.int8)
    states[wrong] = moved
    return states
