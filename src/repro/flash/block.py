"""One flash block: the unit of erase, wear, and read disturb.

All cells of a block share bitlines, so *every* read to any page of the
block disturbs the cells of every other wordline.  The block tracks read
disturb as an accumulated, Vpass-weighted *exposure* per wordline and
materializes threshold voltages lazily (program voltage -> retention shift
-> disturb drift), which makes bulk experiments ("apply one million reads")
O(1) in bookkeeping and one vectorized pass at measurement time.
"""

from __future__ import annotations

import numpy as np

from repro.rng import RngFactory
from repro.units import VPASS_NOMINAL
from repro.flash.cell_array import CellArray
from repro.flash.errors import page_bits_from_states
from repro.flash.geometry import FlashGeometry
from repro.flash.sensing import (
    DEFAULT_REFERENCES,
    ReadReferences,
    sense_page,
    sense_pages,
    sense_states,
)
from repro.flash.state import states_from_bits
from repro.physics import constants
from repro.physics.read_disturb import DEFAULT_READ_DISTURB, vpass_exposure_weight
from repro.physics.retention import retained_voltage
from repro.physics.wear import read_disturb_damage, retention_damage

#: Above this Vpass no programmed cell can be cut off (program-verify bound
#: plus slack for disturb drift of high cells), so sensing skips the
#: expensive whole-block materialization.
_CUTOFF_CHECK_VPASS = 505.0


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

        # Dirty-epoch voltage cache: `voltage_epoch` counts every mutation
        # that can change a materialized threshold voltage (program, erase,
        # disturb recording).  `block_voltages` caches one full-block
        # materialization per (now, epoch) key, so any number of sensing
        # operations between mutations shares a single physics pass.
        self.voltage_epoch = 0
        self._voltage_cache_key: tuple[float, int] | None = None
        self._voltage_cache: np.ndarray | None = None

    # ------------------------------------------------------------------
    # Voltage-cache epoch
    # ------------------------------------------------------------------

    def invalidate_voltage_cache(self) -> None:
        """Bump the epoch after an out-of-band mutation.

        All :class:`FlashBlock` methods bump the epoch themselves; call
        this only after mutating cell state directly (e.g. swapping
        :attr:`disturb_model` or editing :attr:`cells` arrays in a test).
        """
        self.voltage_epoch += 1
        self._voltage_cache_key = None
        self._voltage_cache = None

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
        self.invalidate_voltage_cache()

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
        self.invalidate_voltage_cache()

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
        self.invalidate_voltage_cache()

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
        self.voltage_epoch += 1

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
        self.voltage_epoch += 1

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
        self.voltage_epoch += 1

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
        self.voltage_epoch += 1
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
        v0 = cells.v0[wordlines].astype(np.float64)
        pe = self.pe_cycles
        # Retention: vr = max(v0 - leak*k*max(v0 - floor, 0), min(v0, floor)).
        k = np.maximum(now - self.program_time[wordlines], 0.0)[..., None]
        k /= constants.T0_RET_SECONDS
        np.log1p(k, out=k)
        k *= constants.R_RET * float(retention_damage(pe))
        k /= 512.0
        charge = v0 - constants.RET_CHARGE_FLOOR
        np.maximum(charge, 0.0, out=charge)
        # The leak negation rides on the (wordlines, 1) column: leak*(-k)
        # equals (-leak)*k exactly in IEEE arithmetic.
        work = cells.leak[wordlines].astype(np.float64)
        work *= -k
        work *= charge
        work += v0
        np.minimum(v0, constants.RET_CHARGE_FLOOR, out=charge)
        np.maximum(work, charge, out=work)
        # Disturb drift: V = log(exp(k_v*vr) + k_v*(A*susc*damage)*E) / k_v.
        model = self.disturb_model
        scratch = cells.susceptibility[wordlines].astype(np.float64)
        scratch *= model.amplitude
        scratch *= float(read_disturb_damage(pe))
        scratch *= model.k_v
        scratch *= (self._total_exposure - self._exposure_targeted[wordlines])[..., None]
        work *= model.k_v
        np.exp(work, out=work)
        work += scratch
        np.log(work, out=work)
        work /= model.k_v
        return work

    def block_voltages(self, now: float) -> np.ndarray:
        """Full-block materialization, cached per ``(now, voltage_epoch)``.

        The returned ``(wordlines, bitlines)`` array is shared by every
        sensing call until the next voltage-affecting mutation, so it is
        marked read-only — writing to it raises instead of silently
        corrupting later reads.

        **Thread confinement.**  A block (cache included) belongs to at
        most one executor task at a time — the block-group executor's
        task-purity contract (:mod:`repro.controller.executor`) — so no
        locking is needed; materialization stays a per-block,
        single-writer affair.  Defensively, the fresh materialization is
        fully built (and frozen) in locals before the two cache fields
        are published, cache array first, so a mid-publication observer
        can only ever recompute, never sense a half-written buffer.
        """
        key = (float(now), self.voltage_epoch)
        if self._voltage_cache is None or self._voltage_cache_key != key:
            cache = self._materialize_rows(slice(None), now)
            cache.flags.writeable = False
            self._voltage_cache = cache
            self._voltage_cache_key = key
        return self._voltage_cache

    def _cached_voltages(self, now: float) -> np.ndarray | None:
        """The cached full-block materialization if warm for *now*."""
        key = (float(now), self.voltage_epoch)
        if self._voltage_cache is not None and self._voltage_cache_key == key:
            return self._voltage_cache
        return None

    def _wordline_voltages(self, wordlines: np.ndarray, now: float) -> np.ndarray:
        """Voltages of the given wordlines, through the cache when warm.

        A cold cache materializes only the requested rows (a full-block
        pass would waste work when the caller needs a few wordlines and no
        cutoff check); full-block requests warm the cache for later reads.
        """
        cached = self._cached_voltages(now)
        if cached is not None:
            return cached[wordlines]
        if wordlines.size >= self.geometry.wordlines_per_block:
            return self.block_voltages(now)[wordlines]
        return self._materialize_rows(wordlines, now)

    def _cutoff_mask(self, wordline: int, now: float, vpass: float) -> np.ndarray | None:
        """Bitlines cut off when reading *wordline* at *vpass* (or None)."""
        if vpass >= _CUTOFF_CHECK_VPASS:
            return None
        cached = self._cached_voltages(now)
        if cached is not None:
            above = cached > vpass
            return (above.sum(axis=0) - above[wordline]) > 0
        others = np.arange(self.geometry.wordlines_per_block) != wordline
        voltages = self.current_voltages(now, others)
        return (voltages > vpass).any(axis=0)

    def read_page(
        self,
        page: int,
        now: float = 0.0,
        references: ReadReferences = DEFAULT_REFERENCES,
        vpass: float = VPASS_NOMINAL,
        record_disturb: bool = True,
    ) -> np.ndarray:
        """Read one page; returns its bit array and disturbs the block."""
        wordline, is_msb = self.geometry.page_to_wordline(page)
        cutoff = self._cutoff_mask(wordline, now, vpass)
        voltages = self._wordline_voltages(np.array([wordline]), now)[0]
        bits = sense_page(voltages, is_msb, references, cutoff)
        if record_disturb:
            self.record_read(wordline, vpass)
        return bits

    def read_pages(
        self,
        pages: np.ndarray,
        now: float = 0.0,
        references: ReadReferences = DEFAULT_REFERENCES,
        vpass: float = VPASS_NOMINAL,
        record_disturb: bool = False,
    ) -> np.ndarray:
        """Batched :meth:`read_page`: sense every page of *pages* against
        one materialization of the block.

        Returns the ``(len(pages), bitlines)`` bit matrix.

        **Bit-identity.**  All pages are sensed at the entry exposure —
        bit-identical to a per-page loop with ``record_disturb=False``
        (the equivalence suite in ``tests/flash/test_batched_sensing.py``
        pins this); with recording on, the disturb of the whole batch is
        charged *after* sensing (one :meth:`record_reads` call), matching
        the controller's flush-granular accounting rather than a per-op
        interleave.

        **Cache precondition.**  Sensing reads the ``(now,
        voltage_epoch)``-keyed cache behind :meth:`block_voltages`; every
        mutation through this class bumps the epoch, but out-of-band
        edits to :attr:`cells` or :attr:`disturb_model` must call
        :meth:`invalidate_voltage_cache` first or this batch senses stale
        voltages.
        """
        pages = np.asarray(pages, dtype=np.int64)
        if pages.size and (
            pages.min() < 0 or pages.max() >= self.geometry.pages_per_block
        ):
            raise IndexError("page out of range in batched read")
        wordlines = pages // 2
        is_msb = pages % 2 == 1
        if vpass < _CUTOFF_CHECK_VPASS:
            # One shared cutoff pass for the whole batch: count cells above
            # vpass per bitline once, then exclude each page's own wordline.
            full = self.block_voltages(now)
            above = full > vpass
            above_counts = above.sum(axis=0)
            cutoff = (above_counts[None, :] - above[wordlines]) > 0
            voltages = full[wordlines]
        else:
            cutoff = None
            unique_wordlines, inverse = _unique_sorted(wordlines)
            voltages = self._wordline_voltages(unique_wordlines, now)[inverse]
        bits = sense_pages(voltages, is_msb, references, cutoff)
        if record_disturb and pages.size:
            self.record_reads(wordlines, np.ones(wordlines.size, dtype=np.int64), vpass)
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
        voltages = self._wordline_voltages(np.array([wordline]), now)[0]
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

        **Cache precondition.**  Same as :meth:`read_pages`: warm
        ``(now, voltage_epoch)`` caches are reused, so out-of-band cell
        mutations require :meth:`invalidate_voltage_cache`.
        """
        thresholds = np.sort(np.asarray(thresholds, dtype=np.float64))
        if thresholds.size == 0:
            raise ValueError("sweep needs at least one threshold")
        cutoff = self._cutoff_mask(wordline, now, vpass)
        voltages = self._wordline_voltages(np.array([wordline]), now)[0]
        counts = thresholds.size - np.searchsorted(thresholds, voltages, side="left")
        if cutoff is not None:
            counts[cutoff] = 0
        return counts.astype(np.int64)

    def read_wordline_states(
        self,
        wordline: int,
        now: float = 0.0,
        references: ReadReferences = DEFAULT_REFERENCES,
        vpass: float = VPASS_NOMINAL,
        record_disturb: bool = True,
    ) -> np.ndarray:
        """Full-state sense of one wordline (used by read-retry sweeps)."""
        cutoff = self._cutoff_mask(wordline, now, vpass)
        voltages = self._wordline_voltages(np.array([wordline]), now)[0]
        states = sense_states(voltages, references, cutoff)
        if record_disturb:
            self.record_read(wordline, vpass)
        return states

    # ------------------------------------------------------------------
    # Ground truth helpers (simulator-only; a real chip cannot do this)
    # ------------------------------------------------------------------

    def expected_page_bits(self, page: int) -> np.ndarray:
        """Ground-truth bits of *page* as programmed."""
        wordline, is_msb = self.geometry.page_to_wordline(page)
        return page_bits_from_states(self.cells.true_states[wordline], is_msb)

    def expected_pages_bits(self, pages: np.ndarray) -> np.ndarray:
        """Batched :meth:`expected_page_bits`: the ``(len(pages),
        bitlines)`` ground-truth bit matrix."""
        pages = np.asarray(pages, dtype=np.int64)
        states = self.cells.true_states[pages // 2]
        lsb = page_bits_from_states(states, False)
        msb = page_bits_from_states(states, True)
        return np.where((pages % 2 == 1)[:, None], msb, lsb)

    def page_error_count(
        self,
        page: int,
        now: float = 0.0,
        references: ReadReferences = DEFAULT_REFERENCES,
        vpass: float = VPASS_NOMINAL,
        record_disturb: bool = True,
    ) -> int:
        """Bit errors a read of *page* would return right now."""
        bits = self.read_page(page, now, references, vpass, record_disturb)
        return int((bits != self.expected_page_bits(page)).sum())

    def page_error_counts(
        self,
        pages: np.ndarray,
        now: float = 0.0,
        references: ReadReferences = DEFAULT_REFERENCES,
        vpass: float = VPASS_NOMINAL,
        record_disturb: bool = False,
    ) -> np.ndarray:
        """Batched :meth:`page_error_count`: raw bit errors per page.

        Sensing and the ground-truth comparison are fused per unique
        wordline (both page kinds at once), so a whole block's error
        profile costs one materialization plus a handful of vectorized
        passes.

        **Bit-identity.**  Counts equal a non-recording scalar
        :meth:`page_error_count` loop exactly (equivalence suite:
        ``tests/flash/test_batched_sensing.py``, including relaxed-Vpass
        cutoff cases); as in :meth:`read_pages`, recording (when
        enabled) charges the batch's disturb after sensing.

        **Cache precondition.**  Same ``(now, voltage_epoch)`` cache
        contract as :meth:`read_pages`: call
        :meth:`invalidate_voltage_cache` after any out-of-band mutation.
        """
        pages = np.asarray(pages, dtype=np.int64)
        if pages.size == 0:
            return np.zeros(0, dtype=np.int64)
        wordlines, inverse, errors_lsb, errors_msb = self._page_error_flags(
            pages, now, references, vpass
        )
        per_wordline = np.empty((errors_lsb.shape[0], 2), dtype=np.int64)
        per_wordline[:, 0] = np.count_nonzero(errors_lsb, axis=1)
        per_wordline[:, 1] = np.count_nonzero(errors_msb, axis=1)
        counts = per_wordline[inverse, pages % 2]
        if record_disturb:
            self.record_reads(wordlines, np.ones(wordlines.size, dtype=np.int64), vpass)
        return counts

    def _page_error_flags(
        self,
        pages: np.ndarray,
        now: float,
        references: ReadReferences,
        vpass: float,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Fused sense-and-compare behind :meth:`page_error_counts`.

        Returns ``(wordlines, inverse, errors_lsb, errors_msb)`` — the
        per-unique-wordline boolean error matrices for both page kinds,
        one voltage materialization total.
        """
        if pages.min() < 0 or pages.max() >= self.geometry.pages_per_block:
            raise IndexError("page out of range in batched error count")
        wordlines = pages // 2
        unique_wordlines, inverse = _unique_sorted(wordlines)
        if vpass < _CUTOFF_CHECK_VPASS:
            full = self.block_voltages(now)
            above = full > vpass
            above_counts = above.sum(axis=0)
            cutoff = (above_counts[None, :] - above[unique_wordlines]) > 0
            voltages = full[unique_wordlines]
        else:
            cutoff = None
            voltages = self._wordline_voltages(unique_wordlines, now)
        states = self.cells.true_states[unique_wordlines]
        # Expected bits straight from the gray code (ER=11, P1=10, P2=00,
        # P3=01): the LSB is 1 on ER/P1 (states 0-1), the MSB on ER/P3
        # (states 0 and 3).  Plain ints: an IntEnum operand is ~10x slower.
        expected_lsb = states <= 1
        expected_msb = states == 0
        expected_msb |= states == 3
        # LSB page: sensed bit is V <= Vb (cut-off senses 0, erring wherever
        # the true bit is 1); MSB page: V <= Va or V > Vc (cut-off senses 1).
        errors_lsb = voltages <= references.vb
        np.not_equal(errors_lsb, expected_lsb, out=errors_lsb)
        errors_msb = voltages <= references.va
        errors_msb |= voltages > references.vc
        np.not_equal(errors_msb, expected_msb, out=errors_msb)
        if cutoff is not None:
            # A cut-off bitline's sensed bit is fixed (LSB 0 / MSB 1), so
            # its error flag is just the expected bit (or its complement).
            np.copyto(errors_lsb, expected_lsb, where=cutoff)
            np.copyto(errors_msb, ~expected_msb, where=cutoff)
        return wordlines, inverse, errors_lsb, errors_msb

    def measure_block_rber(
        self,
        now: float = 0.0,
        references: ReadReferences = DEFAULT_REFERENCES,
        vpass: float = VPASS_NOMINAL,
        record_disturb: bool = False,
    ) -> float:
        """RBER over all programmed pages (measurement reads are optionally
        excluded from disturb accounting, like a characterization pass).

        Runs on :meth:`page_error_counts`, so the whole block is measured
        from a single voltage materialization.  With ``record_disturb``
        on, every page is sensed at the entry exposure and the
        measurement's disturb is charged afterwards in one batch — unlike
        the historical per-page loop, where each measurement read
        disturbed the pages sensed after it.
        """
        programmed = np.flatnonzero(self.programmed)
        if programmed.size == 0:
            raise RuntimeError("block has no programmed pages to measure")
        pages = np.repeat(2 * programmed, 2)
        pages[1::2] += 1
        errors = self.page_error_counts(pages, now, references, vpass, record_disturb)
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
