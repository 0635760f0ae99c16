"""One flash block: the unit of erase, wear, and read disturb.

All cells of a block share bitlines, so *every* read to any page of the
block disturbs the cells of every other wordline.  The block tracks read
disturb as an accumulated, Vpass-weighted *exposure* per wordline and
materializes threshold voltages lazily (program voltage -> retention shift
-> disturb drift), which makes bulk experiments ("apply one million reads")
O(1) in bookkeeping and one vectorized pass at measurement time.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from repro.rng import RngFactory
from repro.units import VPASS_NOMINAL
from repro.flash.cell_array import CellArray
from repro.flash.errors import page_bits_from_states
from repro.flash.geometry import FlashGeometry
from repro.flash.sensing import DEFAULT_REFERENCES, sense_page
from repro.flash.state import states_from_bits
from repro.physics import constants
from repro.physics.read_disturb import DEFAULT_READ_DISTURB, vpass_exposure_weight
from repro.physics.retention import retained_voltage
from repro.physics.wear import read_disturb_damage, retention_damage

#: Above this Vpass no programmed cell can be cut off (program-verify bound
#: plus slack for disturb drift of high cells), so sensing skips the
#: expensive whole-block materialization.
_CUTOFF_CHECK_VPASS = 505.0

# The sensing screen (see ``FlashBlock._screened_above``).
#: Voltage margin of its thresholds: it covers float64 rounding in the
#: chain and the float32 rounding of a threshold or cap compared against
#: float32 cell arrays (a threshold moves at most 2.4e-4 V below
#: ``_SCREEN_LIMIT``).
_SCREEN_MARGIN = 1e-3
#: Thresholds beyond this magnitude become infinite: no cell settles there.
_SCREEN_LIMIT = 4096.0
#: The susceptibility cap holds a capped cell's disturb term under this
#: fraction of ``exp(k_v * r)`` at the lowest screened reference r, so the
#: band below r stays about ``_SCREEN_BAND / k_v`` (0.2 V) wide.
_SCREEN_BAND = 0.01
#: The leak cap holds retention's fractional drop ``leak * k`` under this,
#: so the band above a reference r stays about ``_SCREEN_DROP * (r - 40)``
#: wide (26 V above Vc).
_SCREEN_DROP = 0.08
#: A cap below this (the unit mean of both the leak and the susceptibility
#: distributions) would leave too many cells unsettled: such a call
#: materializes densely without screening.
_SCREEN_MIN_CAP = 1.0
#: Above this fraction of unsettled cells a call materializes densely.
#: Gathering costs as much as the screen plus the dense pass at about
#: 13% unsettled on a one-wordline call of 2,048 bitlines, 24% on 18
#: wordlines and 35% on a whole 64-wordline block (2-vCPU host); below
#: the smallest of these it is the cheaper branch.
_SCREEN_DENSE_FRACTION = 0.1


@functools.lru_cache(maxsize=256)
def _wear_factors(pe_cycles: int) -> tuple[float, float]:
    """``(read-disturb damage, retention damage)`` at *pe_cycles*, as
    Python floats, computed once per P/E level."""
    return float(read_disturb_damage(pe_cycles)), float(retention_damage(pe_cycles))


def _unique_sorted(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(values, return_inverse=True)``, cheap for sorted input.

    The backend feeds already-sorted page batches, where the groups fall
    out of one boundary scan; anything unsorted falls back to the real
    ``np.unique``.
    """
    if values.size <= 1:
        return values, np.zeros(values.size, dtype=np.int64)
    if (values[1:] < values[:-1]).any():
        return np.unique(values, return_inverse=True)
    keep = np.empty(values.size, dtype=bool)
    keep[0] = True
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    inverse = np.empty(values.size, dtype=np.int64)
    inverse[0] = 0
    np.cumsum(keep[1:], out=inverse[1:])
    return values[keep], inverse


class FlashBlock:
    """A single simulated MLC NAND flash block."""

    def __init__(
        self,
        geometry: FlashGeometry,
        rng_factory: RngFactory,
        block_id: int = 0,
    ):
        self.geometry = geometry
        self.block_id = block_id
        self._rng = rng_factory.for_block(block_id).stream("cells")
        self.disturb_model = DEFAULT_READ_DISTURB
        #: Program/erase cycles endured so far.
        self.pe_cycles = 0
        #: Total reads absorbed since the last erase.
        self.total_reads = 0
        #: simulation time at which each wordline was last programmed.
        self.program_time = np.zeros(geometry.wordlines_per_block, dtype=np.float64)
        #: whether each wordline holds programmed data (vs. erased).
        self.programmed = np.zeros(geometry.wordlines_per_block, dtype=bool)
        # Read-disturb accounting: a read targeting wordline w disturbs
        # all other wordlines, so exposure(w) = total - targeted(w).  The
        # total is a Python float (never np.float64): under NumPy 2 the
        # two promote differently against float32 arrays.
        self._total_exposure = 0.0
        self._exposure_targeted = np.zeros(
            geometry.wordlines_per_block, dtype=np.float64
        )
        self.reads_targeted = np.zeros(geometry.wordlines_per_block, dtype=np.int64)
        self.cells = CellArray(geometry, self._rng)
        # The sensing screen's per-block cell bounds (`_cell_extremes`).
        self._extremes: tuple[float, float, float, float] | None = None

    def invalidate_voltage_cache(self) -> None:
        """Drop the sensing screen's cached cell bounds after an
        out-of-band edit of the leak or susceptibility arrays.

        Every read materializes voltages from the current cell state, so
        no :class:`FlashBlock` method needs this, and neither does an
        edit of ``v0`` (programs and erases rewrite only ``v0``).  Call
        it after editing :attr:`cells` leak or susceptibility directly
        (e.g. in a test); the screen otherwise keeps bounds from before
        the edit.
        """
        self._extremes = None

    # ------------------------------------------------------------------
    # Lifecycle operations
    # ------------------------------------------------------------------

    def erase(self, now: float = 0.0) -> None:
        """Erase the block; counts one P/E cycle and clears disturb history."""
        self.pe_cycles += 1
        self.cells.erase(self.pe_cycles, self._rng)
        self.programmed[:] = False
        self.program_time[:] = now
        self._total_exposure = 0.0
        self._exposure_targeted[:] = 0.0
        self.total_reads = 0
        self.reads_targeted[:] = 0

    def cycle_wear_to(self, pe_cycles: int, now: float = 0.0) -> None:
        """Fast-forward wear to *pe_cycles*, like the paper's wear-out loop.

        The paper ages blocks by repeated program/erase with pseudo-random
        data; simulating each cycle adds nothing (wear enters only through
        the damage factors), so we jump the counter and erase once.
        """
        if pe_cycles < self.pe_cycles:
            raise ValueError("wear cannot decrease")
        self.pe_cycles = int(pe_cycles) - 1
        self.erase(now)

    def program_wordline_bits(
        self,
        wordline: int,
        lsb_bits: np.ndarray,
        msb_bits: np.ndarray,
        now: float = 0.0,
    ) -> None:
        """Program both pages of a wordline with explicit bit arrays.

        **Draw order.**  One program-error ``random`` draw, then one
        voltage sample per state present in ER -> P3 order (see
        :meth:`~repro.physics.distributions.NormalLaplaceMixture.sample`),
        exactly the calls of a per-state boolean-mask loop; the
        equivalence suite is ``tests/flash/test_program_kernel.py``.
        """
        if self.programmed[wordline]:
            raise RuntimeError(
                f"wordline {wordline} already programmed; erase the block first"
            )
        states = states_from_bits(lsb_bits, msb_bits)
        self.cells._program_row(wordline, states, self.pe_cycles, self._rng)
        self.programmed[wordline] = True
        self.program_time[wordline] = now

    def program_block_bits(
        self,
        lsb_bits: np.ndarray,
        msb_bits: np.ndarray,
        now: float = 0.0,
    ) -> None:
        """Program every wordline at once with explicit ``(wordlines,
        bitlines)`` bit arrays: one vectorized sampling pass per state
        group instead of one per (wordline, state)."""
        if self.programmed.any():
            raise RuntimeError(
                "block has programmed wordlines; erase it before a full-block program"
            )
        states = states_from_bits(lsb_bits, msb_bits)
        self.cells.program_block(states, self.pe_cycles, self._rng)
        self.programmed[:] = True
        self.program_time[:] = now

    def program_random(self, now: float = 0.0, rng: np.random.Generator | None = None) -> None:
        """Program every wordline with pseudo-random data (paper's workload
        for characterization experiments), vectorized over the block."""
        rng = rng if rng is not None else self._rng
        shape = (self.geometry.wordlines_per_block, self.geometry.bitlines_per_block)
        lsb = rng.integers(0, 2, shape, dtype=np.uint8)
        msb = rng.integers(0, 2, shape, dtype=np.uint8)
        self.program_block_bits(lsb, msb, now)

    # ------------------------------------------------------------------
    # Read disturb accounting
    # ------------------------------------------------------------------

    def disturb_exposure(self, wordline: int | None = None) -> np.ndarray | float:
        """Vpass-weighted disturb exposure received by a wordline (or all)."""
        if wordline is None:
            return self._total_exposure - self._exposure_targeted
        return self._total_exposure - float(self._exposure_targeted[wordline])

    def record_read(self, wordline: int, vpass: float = VPASS_NOMINAL, count: int = 1) -> None:
        """Account for *count* reads targeting *wordline* at *vpass*."""
        if count < 0:
            raise ValueError("read count cannot be negative")
        weight = float(vpass_exposure_weight(vpass)) * count
        self._total_exposure += float(weight)
        self._exposure_targeted[wordline] += weight
        self.total_reads += int(count)
        self.reads_targeted[wordline] += count

    def record_reads(
        self,
        wordlines: np.ndarray,
        counts: np.ndarray,
        vpass: float = VPASS_NOMINAL,
    ) -> None:
        """Batched :meth:`record_read`: *counts[i]* reads target
        *wordlines[i]*, all at *vpass*.  One call accounts a whole
        maintenance window of reads in O(unique wordlines)."""
        wordlines = np.asarray(wordlines, dtype=np.int64)
        counts = np.asarray(counts, dtype=np.int64)
        if wordlines.shape != counts.shape:
            raise ValueError("wordlines and counts must have the same shape")
        if counts.size == 0:
            return
        if (counts < 0).any():
            raise ValueError("read count cannot be negative")
        weights = float(vpass_exposure_weight(vpass)) * counts.astype(np.float64)
        self._total_exposure += float(weights.sum())
        np.add.at(self._exposure_targeted, wordlines, weights)
        self.total_reads += int(counts.sum())
        np.add.at(self.reads_targeted, wordlines, counts)

    def record_retry_sweep(
        self,
        wordline: int,
        count: int,
        vpass: float = VPASS_NOMINAL,
    ) -> None:
        """Charge the disturb of a whole *count*-step recording read-retry
        sweep of *wordline* in one update.

        A recording sweep (RDR's ΔVth measurement) historically looped
        :meth:`threshold_read` per retry step, each step paying a fresh
        materialization.  But every step of the sweep targets the *same*
        wordline, and a read targeting wordline *w* adds the same weight
        to both the block total and *w*'s targeted exposure — *w*'s own
        exposure (``total - targeted[w]``) is invariant across the sweep.
        So the sensing can collapse to one materialization
        (:meth:`threshold_sweep_counts`) and the disturb bookkeeping to
        this single batched update.

        **Bit-identity.**  The exposure scalars accumulate by replaying
        the per-step loop's float additions (one rounded add per step —
        O(count) scalar adds, no materialization, no sensing), so the
        block's end state is bit-for-bit the state the
        :meth:`threshold_read` loop leaves behind; a closed-form
        ``weight * count`` add could drift by an ulp once the exposure
        carries fractional Vpass weights.  Equivalence suite:
        ``tests/analysis/test_histograms.py`` and
        ``tests/core/test_rdr.py``.
        """
        if count < 0:
            raise ValueError("read count cannot be negative")
        if count == 0:
            return
        weight = float(vpass_exposure_weight(vpass))
        total = self._total_exposure
        targeted = float(self._exposure_targeted[wordline])
        for _ in range(count):
            total += weight
            targeted += weight
        self._total_exposure = total
        self._exposure_targeted[wordline] = targeted
        self.total_reads += int(count)
        self.reads_targeted[wordline] += count

    def apply_read_disturb(
        self,
        reads: int,
        vpass: float = VPASS_NOMINAL,
        target_wordline: int | None = None,
    ) -> None:
        """Bulk-apply *reads* read operations.

        With ``target_wordline`` the reads all hit that wordline (its own
        cells are then *not* disturbed, as in the paper's setup where the
        measured wordline is read and its neighbors absorb the disturb --
        or vice versa).  Without it the reads spread uniformly over
        wordlines.
        """
        if reads < 0:
            raise ValueError("read count cannot be negative")
        if target_wordline is not None:
            self.record_read(target_wordline, vpass, reads)
            return
        weight = float(vpass_exposure_weight(vpass)) * reads
        self._total_exposure += float(weight)
        self._exposure_targeted += weight / self.geometry.wordlines_per_block
        self.total_reads += int(reads)
        # Integer bookkeeping: spread as evenly as possible, handing the
        # remainder to the lowest wordlines so reads_targeted.sum() always
        # equals total_reads.
        per, remainder = divmod(reads, self.geometry.wordlines_per_block)
        self.reads_targeted += per
        if remainder:
            self.reads_targeted[:remainder] += 1

    # ------------------------------------------------------------------
    # Voltage materialization and sensing
    # ------------------------------------------------------------------

    def current_voltages(self, now: float, wordlines: np.ndarray | slice | None = None) -> np.ndarray:
        """Materialize current threshold voltages: program value, then
        retention loss, then read-disturb drift (see physics modules)."""
        if wordlines is None:
            wordlines = slice(None)
        v0 = self.cells.v0[wordlines].astype(np.float64)
        ages = np.maximum(now - self.program_time[wordlines], 0.0)
        leak = self.cells.leak[wordlines].astype(np.float64)
        v_ret = retained_voltage(v0, ages[..., None], self.pe_cycles, leak=leak)
        exposure = (self._total_exposure - self._exposure_targeted[wordlines])[..., None]
        susceptibility = self.cells.susceptibility[wordlines].astype(np.float64)
        return self.disturb_model.drifted_voltage(
            v_ret, exposure, susceptibility, self.pe_cycles
        )

    def _materialize_rows(self, wordlines: np.ndarray | slice, now: float) -> np.ndarray:
        """Fused, allocation-lean :meth:`current_voltages`.

        Performs the exact elementwise operation sequence of the composed
        physics chain (same grouping of every multiply, so the results
        are bit-identical — the equivalence suite asserts this) with
        in-place ufuncs over four buffers.  This is the kernel behind the
        hot sensing paths; :meth:`current_voltages` stays the readable
        reference composition.
        """
        cells = self.cells
        return self._drift_chain(
            cells.v0[wordlines],
            cells.leak[wordlines],
            cells.susceptibility[wordlines],
            self.program_time[wordlines][..., None],
            (self._total_exposure - self._exposure_targeted[wordlines])[..., None],
            now,
        )

    def _materialize_cells(self, index: np.ndarray, now: float) -> np.ndarray:
        """:meth:`_materialize_rows` for the cells at flat *index* into the
        block's ``(wordlines, bitlines)`` arrays: the same elementwise
        sequence on the gathered cells, so each voltage is bit-identical
        to its dense value."""
        cells = self.cells
        wordlines = index // self.geometry.bitlines_per_block
        return self._drift_chain(
            cells.v0.take(index),
            cells.leak.take(index),
            cells.susceptibility.take(index),
            self.program_time[wordlines],
            self._total_exposure - self._exposure_targeted[wordlines],
            now,
        )

    def _drift_chain(
        self,
        v0: np.ndarray,
        leak: np.ndarray,
        susceptibility: np.ndarray,
        program_time: np.ndarray,
        exposure: np.ndarray,
        now: float,
    ) -> np.ndarray:
        """The retention/disturb chain over float32 cell arrays, with
        *program_time* and *exposure* broadcast per cell (a ``(rows, 1)``
        column or one value per gathered cell)."""
        v0 = v0.astype(np.float64)
        damage_rd, damage_ret = _wear_factors(self.pe_cycles)
        # Retention: vr = max(v0 - leak*k*max(v0 - floor, 0), min(v0, floor)).
        k = np.maximum(now - program_time, 0.0)
        k /= constants.T0_RET_SECONDS
        np.log1p(k, out=k)
        k *= constants.R_RET * damage_ret
        k /= 512.0
        charge = v0 - constants.RET_CHARGE_FLOOR
        np.maximum(charge, 0.0, out=charge)
        # The leak negation rides on k (one value per row or per cell):
        # leak*(-k) equals (-leak)*k exactly in IEEE arithmetic.
        work = leak.astype(np.float64)
        work *= -k
        work *= charge
        work += v0
        np.minimum(v0, constants.RET_CHARGE_FLOOR, out=charge)
        np.maximum(work, charge, out=work)
        # Disturb drift: V = log(exp(k_v*vr) + k_v*(A*susc*damage)*E) / k_v.
        model = self.disturb_model
        scratch = susceptibility.astype(np.float64)
        scratch *= model.amplitude
        scratch *= damage_rd
        scratch *= model.k_v
        scratch *= exposure
        work *= model.k_v
        np.exp(work, out=work)
        work += scratch
        np.log(work, out=work)
        work /= model.k_v
        return work

    def _cutoff_mask(self, wordline: int, now: float, vpass: float) -> np.ndarray | None:
        """Bitlines cut off when reading *wordline* at *vpass* (or None)."""
        if vpass >= _CUTOFF_CHECK_VPASS:
            return None
        others = np.arange(self.geometry.wordlines_per_block) != wordline
        voltages = self.current_voltages(now, others)
        return (voltages > vpass).any(axis=0)

    # ------------------------------------------------------------------
    # The sensing screen
    # ------------------------------------------------------------------

    def _cell_extremes(self) -> tuple[float, float, float, float]:
        """``(min, max)`` of the block's leak factors, then of its
        susceptibilities.  Both arrays persist across erases, so the
        four are cached until :meth:`invalidate_voltage_cache`."""
        if self._extremes is None:
            leak = self.cells.leak
            susceptibility = self.cells.susceptibility
            self._extremes = (
                float(leak.min()),
                float(leak.max()),
                float(susceptibility.min()),
                float(susceptibility.max()),
            )
        return self._extremes

    def _screen(
        self,
        wordlines: np.ndarray | slice,
        now: float,
        references: tuple[float, ...],
    ) -> tuple[float | None, float | None, list[tuple[float, float]]] | None:
        """The screen's per-call ``(susceptibility cap, leak cap, [(t_hi,
        t_lo) per reference])``, or None where its bounds do not hold or
        a cap below ``_SCREEN_MIN_CAP`` would leave too few cells settled.

        For a cell of *wordlines* with susceptibility at or below its cap
        (None: no cell of the block exceeds the bound used), ``v0 <=
        t_hi`` proves ``V <= r``; for one with leak at or below its cap,
        ``v0 >= t_lo`` proves ``V > r``.  The bounds, from ``V =
        log(exp(k_v*vr) + S*E)/k_v`` with ``S = susc*A*dmg*k_v``:

        - above: ``vr <= v0`` and ``S*E <= cap*A*dmg*k_v*E_max``;
        - below: ``vr >= v0 - L*max(v0 - floor, 0)``, with ``L`` the leak
          cap (or the block's largest leak) times the oldest row's
          retention coefficient, monotone in ``v0`` since the leak cap
          holds ``L <= _SCREEN_DROP``; and ``S*E >= -cap*A*dmg*k_v*ε``,
          where rounding leaves an exposure at ``-ε``.

        Both sides keep ``_SCREEN_MARGIN`` from r.  The susceptibility
        cap keeps the band below the lowest reference narrow
        (``_SCREEN_BAND``), the leak cap the bands above the references
        (``_SCREEN_DROP``); each applies only where the block's largest
        value would exceed it.  *references* may come in any order (a
        relaxed Vpass can sit below Va); the thresholds follow that
        order, and both of a pair rise with their reference.  The set-up
        is Python floats: a one-wordline call cannot afford numpy
        scalars.
        """
        model = self.disturb_model
        k_v = model.k_v
        lowest = min(references)
        leak_min, leak_bound, susceptibility_min, susceptibility_bound = self._cell_extremes()
        # The bounds need non-negative cells and a positive drift law (a
        # NaN anywhere fails these comparisons too).
        if not (
            leak_min >= 0.0
            and susceptibility_min >= 0.0
            and k_v > 0.0
            and model.amplitude >= 0.0
            and lowest > 0.0
        ):
            return None
        damage_rd, damage_ret = _wear_factors(self.pe_cycles)
        targeted = self._exposure_targeted[wordlines]
        exposure_max = max(self._total_exposure - float(targeted.min()), 0.0)
        exposure_slop = max(float(targeted.max()) - self._total_exposure, 0.0)
        age = max(now - float(self.program_time[wordlines].min()), 0.0)
        retention = (
            math.log1p(age / constants.T0_RET_SECONDS)
            * (constants.R_RET * damage_ret)
            / 512.0
        )
        leak_cap = None
        if leak_bound * retention > _SCREEN_DROP:
            leak_bound = leak_cap = _SCREEN_DROP / retention
            if leak_cap < _SCREEN_MIN_CAP:
                return None
        rate = model.amplitude * damage_rd * k_v
        spread = rate * exposure_max * susceptibility_bound
        susceptibility_cap = None
        if spread > 0.0 and math.log(spread / _SCREEN_BAND) > k_v * lowest:
            spread = _SCREEN_BAND * math.exp(k_v * lowest)
            susceptibility_bound = susceptibility_cap = spread / (rate * exposure_max)
            if susceptibility_cap < _SCREEN_MIN_CAP:
                return None
        drop = leak_bound * retention
        slop = susceptibility_bound * rate * exposure_slop
        floor = constants.RET_CHARGE_FLOOR
        thresholds = []
        for ref in references:
            top = ref - _SCREEN_MARGIN
            excess = spread * math.exp(-k_v * top)
            t_hi = top + math.log1p(-excess) / k_v if excess < 1.0 else -math.inf
            bottom = ref + _SCREEN_MARGIN
            t_lo = bottom + math.log1p(slop * math.exp(-k_v * bottom)) / k_v
            if t_lo > floor:
                t_lo = (t_lo - drop * floor) / (1.0 - drop)
            thresholds.append((
                t_hi if t_hi > -_SCREEN_LIMIT else -math.inf,
                t_lo if t_lo < _SCREEN_LIMIT else math.inf,
            ))
        return susceptibility_cap, leak_cap, thresholds

    def _screened_above(
        self,
        wordlines: np.ndarray | slice,
        now: float,
        references: tuple[float, ...],
    ) -> list[np.ndarray]:
        """``[voltages > r for r in references]`` over the *wordlines*
        rows, equal to comparing ``_materialize_rows(wordlines, now)``.

        The screen (:meth:`_screen`) settles each cell whose ``v0`` lies
        outside every band ``(t_hi, t_lo)`` and which no cap excludes:
        there ``v0 > t_hi`` is the exact answer.  The unsettled cells go
        through :meth:`_materialize_cells`; when more than
        ``_SCREEN_DENSE_FRACTION`` of the cells are unsettled, the rows
        are materialized densely instead.
        """
        screen = self._screen(wordlines, now, references)
        if screen is not None:
            susceptibility_cap, leak_cap, thresholds = screen
            cells = self.cells
            v0 = cells.v0[wordlines]
            unsettled = np.zeros(v0.shape, dtype=bool)
            above = []
            for t_hi, t_lo in thresholds:
                maybe = v0 > t_hi
                # Inside the band: above t_hi but short of t_lo.
                unsettled |= maybe ^ (v0 >= t_lo)
                above.append(maybe)
            if susceptibility_cap is not None:
                unsettled |= cells.susceptibility[wordlines] > susceptibility_cap
            if leak_cap is not None:
                # Leak enters only the sure-above side: a cell at or below
                # the lowest reference's t_hi settles whatever its leak.
                lowest = above[references.index(min(references))]
                unsettled |= (cells.leak[wordlines] > leak_cap) & lowest
            todo = np.flatnonzero(unsettled)
            if todo.size <= _SCREEN_DENSE_FRACTION * unsettled.size:
                if todo.size:
                    bitlines = self.geometry.bitlines_per_block
                    rows = np.arange(self.geometry.wordlines_per_block)[wordlines]
                    index = rows[todo // bitlines] * bitlines + todo % bitlines
                    voltages = self._materialize_cells(index, now)
                    for flags, ref in zip(above, references):
                        np.put(flags, todo, voltages > ref)
                return above
        voltages = self._materialize_rows(wordlines, now)
        return [voltages > ref for ref in references]

    def read_page(
        self,
        page: int,
        now: float = 0.0,
        vpass: float = VPASS_NOMINAL,
        record_disturb: bool = True,
    ) -> np.ndarray:
        """Read one page; returns its bit array and disturbs the block."""
        wordline, is_msb = self.geometry.page_to_wordline(page)
        cutoff = self._cutoff_mask(wordline, now, vpass)
        voltages = self._materialize_rows(np.array([wordline]), now)[0]
        bits = sense_page(voltages, is_msb, DEFAULT_REFERENCES, cutoff)
        if record_disturb:
            self.record_read(wordline, vpass)
        return bits

    def threshold_read(
        self,
        wordline: int,
        threshold: float,
        now: float = 0.0,
        vpass: float = VPASS_NOMINAL,
        record_disturb: bool = True,
    ) -> np.ndarray:
        """Single-reference retry read: True where the cell conducts
        (V <= threshold).  This is the primitive the paper's read-retry
        threshold-voltage measurement is built from."""
        cutoff = self._cutoff_mask(wordline, now, vpass)
        voltages = self._materialize_rows(np.array([wordline]), now)[0]
        conducting = voltages <= threshold
        if cutoff is not None:
            conducting &= ~cutoff
        if record_disturb:
            self.record_read(wordline, vpass)
        return conducting

    def threshold_sweep_counts(
        self,
        wordline: int,
        thresholds: np.ndarray,
        now: float = 0.0,
        vpass: float = VPASS_NOMINAL,
    ) -> np.ndarray:
        """Per-cell count of sweep *thresholds* the cell conducts at,
        without disturbing the block.

        **Bit-identity.**  Equal to summing non-recording
        :meth:`threshold_read` over the sweep, but the wordline is
        materialized once and the counts fall out of one
        ``searchsorted`` (a cell at voltage V conducts at every
        threshold >= V, so its count is order-independent).  Only valid
        for *non-disturbing* sweeps: a recording read-retry sweep
        physically shifts the block between steps and must stay an
        ordered per-step loop (as RDR's sweeps do).
        """
        thresholds = np.sort(np.asarray(thresholds, dtype=np.float64))
        if thresholds.size == 0:
            raise ValueError("sweep needs at least one threshold")
        cutoff = self._cutoff_mask(wordline, now, vpass)
        voltages = self._materialize_rows(np.array([wordline]), now)[0]
        counts = thresholds.size - np.searchsorted(thresholds, voltages, side="left")
        if cutoff is not None:
            counts[cutoff] = 0
        return counts.astype(np.int64)

    # ------------------------------------------------------------------
    # Ground truth helpers (simulator-only; a real chip cannot do this)
    # ------------------------------------------------------------------

    def expected_page_bits(self, page: int) -> np.ndarray:
        """Ground-truth bits of *page* as programmed."""
        wordline, is_msb = self.geometry.page_to_wordline(page)
        return page_bits_from_states(self.cells.true_states[wordline], is_msb)

    def page_error_count(
        self,
        page: int,
        now: float = 0.0,
        vpass: float = VPASS_NOMINAL,
        record_disturb: bool = True,
    ) -> int:
        """Bit errors a read of *page* would return right now."""
        bits = self.read_page(page, now, vpass, record_disturb)
        return int((bits != self.expected_page_bits(page)).sum())

    def page_error_counts(
        self,
        pages: np.ndarray,
        now: float = 0.0,
        vpass: float = VPASS_NOMINAL,
    ) -> np.ndarray:
        """Batched :meth:`page_error_count`: raw bit errors per page, with
        no disturb charged (callers account their reads themselves).

        Sensing and the ground-truth comparison are fused per unique
        wordline (both page kinds at once).  The sensing screen
        (:meth:`_screened_above`) decides each cell's side of every read
        reference from its float32 ``v0`` alone, and runs the exact
        retention/disturb chain only on the cells it cannot settle.  At
        a relaxed Vpass below 505 the shared cutoff mask needs every row
        against Vpass, so the screen covers the whole block, Vpass
        included.  A call the screen cannot serve (a cap below 1, or more
        than ``_SCREEN_DENSE_FRACTION`` of its cells unsettled: extreme
        wear, age or exposure) materializes its rows densely, the whole
        block at a relaxed Vpass.

        **Bit-identity.**  Counts equal a non-recording scalar
        :meth:`page_error_count` loop exactly: a settled cell senses as
        its materialized voltage would, and an unsettled one is
        materialized by the same operation sequence (equivalence suite:
        ``tests/flash/test_batched_sensing.py``, with a hypothesis
        property over wear, age, exposure, Vpass and planted cells on
        every screen threshold).

        **Precondition.**  Out-of-band edits to the leak or
        susceptibility arrays of :attr:`cells` must call
        :meth:`invalidate_voltage_cache` first, or this batch screens
        with stale cell bounds.
        """
        pages = np.asarray(pages, dtype=np.int64)
        if pages.size == 0:
            return np.zeros(0, dtype=np.int64)
        if pages.min() < 0 or pages.max() >= self.geometry.pages_per_block:
            raise IndexError("page out of range in batched error count")
        unique_wordlines, inverse = _unique_sorted(pages // 2)
        references = (DEFAULT_REFERENCES.va, DEFAULT_REFERENCES.vb, DEFAULT_REFERENCES.vc)
        relaxed = vpass < _CUTOFF_CHECK_VPASS
        if relaxed:
            # The cutoff check compares every row against vpass, so the
            # whole block is sensed in one pass (or one screen).
            references += (vpass,)
        every_row = unique_wordlines.size == self.geometry.wordlines_per_block
        rows = slice(None) if relaxed or every_row else unique_wordlines
        above = self._screened_above(rows, now, references)
        cutoff = None
        if relaxed:
            # One shared cutoff pass for the whole batch: count cells above
            # vpass per bitline once, then exclude each wordline's own row.
            over = above.pop()
            if over.any():
                cutoff = (over.sum(axis=0) - over[unique_wordlines]) > 0
            if not every_row:
                above = [flags[unique_wordlines] for flags in above]
        above_a, above_b, above_c = above
        states = self.cells.true_states[unique_wordlines]
        # Expected bits straight from the gray code (ER=11, P1=10, P2=00,
        # P3=01): the LSB is 1 on ER/P1 (states 0-1), the MSB on ER/P3
        # (states 0 and 3).  Plain ints: an IntEnum operand is ~10x slower.
        expected_lsb = states <= 1
        expected_msb = states == 0
        expected_msb |= states == 3
        flags = np.empty((unique_wordlines.size, 2, states.shape[1]), dtype=bool)
        errors_lsb, errors_msb = flags[:, 0], flags[:, 1]
        # LSB page: the sensed bit is V <= Vb, so it errs where V > Vb
        # equals the expected bit (cut-off senses 0, erring wherever the
        # true bit is 1).  MSB page: V <= Va or V > Vc (cut-off senses 1).
        np.equal(above_b, expected_lsb, out=errors_lsb)
        np.invert(above_a, out=errors_msb)
        errors_msb |= above_c
        errors_msb ^= expected_msb
        if cutoff is not None:
            # A cut-off bitline's sensed bit is fixed (LSB 0 / MSB 1), so
            # its error flag is just the expected bit (or its complement).
            np.copyto(errors_lsb, expected_lsb, where=cutoff)
            np.copyto(errors_msb, ~expected_msb, where=cutoff)
        per_wordline = np.bitwise_count(np.packbits(flags, axis=2)).sum(axis=2, dtype=np.int64)
        return per_wordline[inverse, pages % 2]

    def measure_block_rber(
        self,
        now: float = 0.0,
        vpass: float = VPASS_NOMINAL,
    ) -> float:
        """RBER over all programmed pages, with no disturb charged: the
        measurement reads are left out of the block's disturb accounting,
        like a characterization pass.

        Runs on :meth:`page_error_counts`, so the whole block is measured
        in one screened sensing pass.
        """
        programmed = np.flatnonzero(self.programmed)
        if programmed.size == 0:
            raise RuntimeError("block has no programmed pages to measure")
        pages = np.repeat(2 * programmed, 2)
        pages[1::2] += 1
        errors = self.page_error_counts(pages, now, vpass)
        return float(errors.sum()) / (pages.size * self.geometry.bitlines_per_block)

    def true_states_of_wordline(self, wordline: int) -> np.ndarray:
        """Programmed states of one wordline (ground truth)."""
        return self.cells.true_states[wordline].copy()

    def __repr__(self) -> str:
        return (
            f"FlashBlock(id={self.block_id}, pe={self.pe_cycles}, "
            f"reads={self.total_reads}, programmed={int(self.programmed.sum())}/"
            f"{self.geometry.wordlines_per_block})"
        )
