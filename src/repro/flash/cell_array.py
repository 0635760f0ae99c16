"""Per-cell persistent state for one flash block.

A cell owns two kinds of state: *programmed* state (its true MLC state and
the threshold voltage it was programmed to) and *process* state (its
read-disturb susceptibility, fixed at manufacturing by process variation).
The susceptibility persists across erases — this persistence is what the
paper's RDR mechanism exploits.
"""

from __future__ import annotations

import numpy as np

from repro.flash.geometry import FlashGeometry
from repro.flash.state import MlcState, STATE_ORDER
from repro.physics.distributions import state_distribution
from repro.physics.program import apply_program_errors
from repro.physics.retention import sample_leak_factors
from repro.physics.susceptibility import SusceptibilityModel, DEFAULT_SUSCEPTIBILITY


class CellArray:
    """Dense per-cell arrays for a block of ``wordlines x bitlines`` cells.

    By default the four arrays live on the heap.  With *storage* — a
    :class:`~repro.flash.arena.BlockSlab` (or anything exposing
    ``true_states`` / ``v0`` / ``susceptibility`` / ``leak`` views of
    the right shape) — they are *views into a shared arena* instead:
    same dtypes, same values, same RNG draw order (susceptibility before
    leak), so an arena-backed array is bit-identical to a heap one.
    """

    def __init__(
        self,
        geometry: FlashGeometry,
        rng: np.random.Generator,
        susceptibility_model: SusceptibilityModel = DEFAULT_SUSCEPTIBILITY,
        storage=None,
    ):
        self.geometry = geometry
        shape = (geometry.wordlines_per_block, geometry.bitlines_per_block)
        if storage is None:
            #: true programmed MLC state of each cell.
            self.true_states = np.full(shape, int(MlcState.ER), dtype=np.int8)
            #: programmed threshold voltage of each cell (before retention and
            #: disturb, which are applied lazily by the block).
            self.v0 = np.zeros(shape, dtype=np.float32)
            #: per-cell disturb susceptibility; persists across erases.
            self.susceptibility = susceptibility_model.sample(
                rng, geometry.cells_per_block
            ).reshape(shape).astype(np.float32)
            #: per-cell retention leak factor (fast/slow leakers); persists too.
            self.leak = sample_leak_factors(rng, geometry.cells_per_block).reshape(
                shape
            ).astype(np.float32)
        else:
            self.true_states = storage.true_states
            self.true_states.fill(int(MlcState.ER))
            self.v0 = storage.v0
            self.v0.fill(0.0)
            self.susceptibility = storage.susceptibility
            self.susceptibility[...] = susceptibility_model.sample(
                rng, geometry.cells_per_block
            ).reshape(shape).astype(np.float32)
            self.leak = storage.leak
            self.leak[...] = sample_leak_factors(
                rng, geometry.cells_per_block
            ).reshape(shape).astype(np.float32)

    @classmethod
    def attach(cls, geometry: FlashGeometry, storage) -> "CellArray":
        """Wrap existing slab *storage* without initializing (or consuming
        any RNG) — the reconstruction path of a forked worker process
        attaching to a block another process already materialized."""
        self = cls.__new__(cls)
        self.geometry = geometry
        self.true_states = storage.true_states
        self.v0 = storage.v0
        self.susceptibility = storage.susceptibility
        self.leak = storage.leak
        return self

    def sample_voltages(
        self,
        states: np.ndarray,
        pe_cycles: float,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Sample programmed voltages for *states* at the given wear level."""
        states = np.asarray(states)
        out = np.empty(states.shape, dtype=np.float64)
        _sample_into(out.reshape(-1), states.reshape(-1), pe_cycles, rng)
        return out

    def erase(self, pe_cycles: float, rng: np.random.Generator) -> None:
        """Reset every cell to the erased state (fresh ER voltages)."""
        self.true_states.fill(int(MlcState.ER))
        er = state_distribution(MlcState.ER, pe_cycles)
        self.v0[:] = er.sample(rng, self.true_states.size).reshape(self.v0.shape)

    def program_wordline(
        self,
        wordline: int,
        states: np.ndarray,
        pe_cycles: float,
        rng: np.random.Generator,
    ) -> None:
        """Program one wordline to *states* (ints in 0..3)."""
        states = np.asarray(states, dtype=np.int8)
        if ((states < 0) | (states > 3)).any():
            raise ValueError("states must be in 0..3")
        self._program_row(wordline, states, pe_cycles, rng)

    def _program_row(
        self,
        wordline: int,
        states: np.ndarray,
        pe_cycles: float,
        rng: np.random.Generator,
    ) -> None:
        """:meth:`program_wordline` for ``int8`` *states* already known to
        lie in 0..3 (e.g. fresh from :func:`~repro.flash.state.states_from_bits`)."""
        if states.shape != (self.geometry.bitlines_per_block,):
            raise ValueError(
                f"expected {self.geometry.bitlines_per_block} states, got {states.shape}"
            )
        self.true_states[wordline] = states
        # A small wear-dependent fraction mis-programs into an adjacent
        # state; ground truth stays the *intended* data.
        landed = apply_program_errors(states, pe_cycles, rng)
        _sample_into(self.v0[wordline], landed, pe_cycles, rng)

    def program_block(
        self,
        states: np.ndarray,
        pe_cycles: float,
        rng: np.random.Generator,
    ) -> None:
        """Program the whole block to *states* (``wordlines x bitlines``).

        One program-error draw and one voltage-sampling pass per state
        group cover every wordline, instead of a per-wordline loop.
        """
        states = np.asarray(states, dtype=np.int8)
        shape = (self.geometry.wordlines_per_block, self.geometry.bitlines_per_block)
        if states.shape != shape:
            raise ValueError(f"expected states of shape {shape}, got {states.shape}")
        if ((states < 0) | (states > 3)).any():
            raise ValueError("states must be in 0..3")
        self.true_states[:] = states
        landed = apply_program_errors(states, pe_cycles, rng)
        self.v0[:] = self.sample_voltages(landed, pe_cycles, rng)


def _sample_into(
    out: np.ndarray,
    states: np.ndarray,
    pe_cycles: float,
    rng: np.random.Generator,
) -> None:
    """Write programmed voltages for the 1-D *states* into the 1-D *out*.

    **Draw order.**  One ``state_distribution(state, pe_cycles).sample``
    call per state present, in :data:`STATE_ORDER`, sized to that
    state's cell count; the i-th draw of a state lands on that state's
    i-th cell in index order.  A stable sort groups the cells and one
    scatter places every draw, cast to *out*'s dtype first (a
    ``float32`` row rounds each draw exactly as assigning the
    ``float64`` draws would).
    """
    order = np.argsort(states, kind="stable")
    counts = np.bincount(states, minlength=len(STATE_ORDER)).tolist()
    draws = [
        state_distribution(state, pe_cycles).sample(rng, count)
        for state, count in zip(STATE_ORDER, counts)
        if count
    ]
    out[order] = np.concatenate(draws, dtype=out.dtype, casting="same_kind")
