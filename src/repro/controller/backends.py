"""Pluggable physics backends for the simulation engine.

The engine drives the FTL; a backend decides how much device physics sits
behind each FTL block:

- :class:`CounterBackend` — pure bookkeeping.  The FTL's own counters
  (reads since program, P/E cycles, program timestamps) are the whole
  device model.  This is the fast path for multi-million-operation
  sweeps.

- :class:`FlashChipBackend` — full fidelity.  Every FTL block is bound to
  a Monte-Carlo :class:`~repro.flash.block.FlashBlock`; host writes
  program real wordlines, host reads charge Vpass-weighted disturb
  exposure and are ECC-decoded, and an uncorrectable page escalates
  through the paper's Read Disturb Recovery before the controller counts
  data loss.  Use it to measure the RBER a policy actually leaves behind.

Both backends observe the FTL through :class:`~repro.controller.ftl.FtlObserver`
hooks (appends, erases, relocations) plus one engine-driven hook,
:meth:`PhysicsBackend.on_reads`, that receives each flushed batch of
mapped host reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, runtime_checkable

import numpy as np

from repro import obs
from repro.rng import RngFactory
from repro.units import VPASS_NOMINAL
from repro.core.rdr import ReadDisturbRecovery
from repro.ecc import DEFAULT_ECC, EccConfig, EccDecoder
from repro.ecc.decoder import BatchDecodeResult
from repro.flash.block import FlashBlock
from repro.flash.geometry import FlashGeometry
from repro.controller.ftl import PageMappingFtl


def wordline_data_bits(
    rng: np.random.Generator, bits: int
) -> tuple[np.ndarray, np.ndarray]:
    """Random LSB and MSB page data of one wordline, straight from raw words.

    Byte-equal to ``rng.integers(0, 2, bits, dtype=np.uint8)`` drawn twice
    (LSB then MSB), leaving the generator where those calls leave it.
    For a 2-value range numpy's bounded-uint8 path returns bit 7 of
    successive little-endian bytes of ``next_uint32``, one fresh 32-bit
    half per 4 outputs, and a 64-bit word is two halves (low first).
    The two calls take ``w = ceil(bits / 4)`` halves each, 2w in all, so
    they consume exactly *w* raw words and leave no half buffered.  The
    contract needs *rng* to hold no buffered half either
    (``has_uint32 == 0``), which holds for a generator used only here.
    """
    words = -(-bits // 4)
    data = rng.bit_generator.random_raw(words).astype("<u8", copy=False).view(np.uint8)
    return data[:bits] >> 7, data[4 * words : 4 * words + bits] >> 7


@runtime_checkable
class PhysicsBackend(Protocol):
    """What the simulation engine needs from a device-physics model."""

    def bind(self, ftl: PageMappingFtl) -> None:
        """Attach to the FTL whose physical state this backend mirrors."""

    def on_append(self, block: int, page: int, lpn: int, now: float) -> None:
        """A logical page landed on physical ``(block, page)``."""

    def on_append_many(
        self, block: int, pages: np.ndarray, lpns: np.ndarray, now: float
    ) -> None:
        """A burst of logical pages landed on one block, in page order
        (the relocation path).  Semantically identical to calling
        :meth:`on_append` per page."""

    def on_erase(self, block: int, now: float) -> None:
        """A block was erased."""

    def on_open(self, block: int, now: float) -> None:
        """A free block was opened for writing."""

    def on_reads(self, ppns: np.ndarray, now: float) -> None:
        """A flushed batch of mapped host reads (physical page numbers,
        duplicates preserved).  Called after the FTL's own bookkeeping."""

    def drain_relocations(self) -> list[int]:
        """Blocks the backend wants relocated (e.g. after recovery); the
        engine relocates them at the next safe point and the list clears."""

    def summary(self) -> dict:
        """Backend-specific counters for reporting."""


class CounterBackend:
    """Bookkeeping-only physics: all state lives in the FTL counters."""

    name = "counter"

    def bind(self, ftl: PageMappingFtl) -> None:
        self.ftl = ftl

    def on_append(self, block: int, page: int, lpn: int, now: float) -> None:
        pass

    def on_append_many(
        self, block: int, pages: np.ndarray, lpns: np.ndarray, now: float
    ) -> None:
        pass

    def on_erase(self, block: int, now: float) -> None:
        pass

    def on_open(self, block: int, now: float) -> None:
        pass

    def on_reads(self, ppns: np.ndarray, now: float) -> None:
        pass

    def drain_relocations(self) -> list[int]:
        return []

    def summary(self) -> dict:
        return {"backend": self.name}


@dataclass(frozen=True)
class BlockReadTask:
    """One block's share of a flushed read batch (the planning output).

    Executing the task touches only :attr:`flash_block` (its exposure
    counters) plus read-only configuration (decoder, Vpass); everything
    shared is left to the ordered merge.
    """

    block_id: int
    flash_block: FlashBlock
    #: wordlines targeted within the block (parallel to :attr:`counts`).
    wordlines: np.ndarray
    #: reads per targeted wordline in this flush.
    counts: np.ndarray
    #: unique pages of the batch in this block, ascending.
    pages: np.ndarray


@dataclass(frozen=True)
class BlockReadOutcome:
    """What one executed :class:`BlockReadTask` reports back to the merge.

    *checked* is the ascending list of programmed pages the task decoded
    (the decode order the scalar loop used); *decode* is ``None`` when
    the block held no programmed page of the batch.
    """

    block_id: int
    checked: np.ndarray
    decode: BatchDecodeResult | None


class FlashChipBackend:
    """Bind every FTL block to a Monte-Carlo flash block.

    Blocks are materialized lazily (first append), so memory scales with
    the blocks a workload actually touches.  A bound block keeps its
    cell state on the heap (13 bytes per cell), so the touched blocks
    must fit in RAM.  Host data is synthetic:
    programming a wordline writes pseudo-random bits, which is exactly the
    paper's characterization workload and all ECC needs — the decoder
    counts the sensed page's raw bit errors against what was programmed
    and fails the page past the capability of the paper's 1e-3 RBER
    envelope (:mod:`repro.ecc`).

    Read handling per flushed batch runs as a plan/execute/merge
    pipeline:

    1. **plan** — group the batch per block in one pass over the sorted
       unique physical pages (materializing lazily-bound blocks);
    2. **execute** — one :class:`BlockReadTask` per touched block, in
       ascending block order: charge Vpass-weighted disturb exposure in
       one :meth:`FlashBlock.record_reads` call, then ECC-decode each
       *unique* page of the batch once, at the batch's
       final exposure (repeated reads of a page within one flush return
       the same sensed data, so one decode per page per flush is the
       exact per-op semantics at a fraction of the cost) — one
       :meth:`EccDecoder.check_pages` call per block, sensing every page
       in one screened pass over the block;
    3. **merge** — fold the outcomes into the shared counters in
       ascending block order; on an uncorrectable page, run Read Disturb
       Recovery on the wordline; if the post-RDR error count fits the
       ECC capability the data is recovered, otherwise it is lost.
       Either way the block is queued for relocation so the engine
       rewrites it to a fresh block, and later pages of the same flush
       on that block are skipped (their data is already being remapped).

    Everything runs in one thread: the read flushes above, wordline
    programs at append time, erases and RBER probes.  A multi-core run
    splits scenarios across processes (the sweep's ``--workers``).

    *executor* accepts only ``"serial"`` and raises ``ValueError`` on
    any other value; it is kept so existing callers that pass it keep
    working.

    :meth:`summary` also reports ``miscorrected_pages``,
    ``injected_faults`` and ``fault_patterns``, always zero: the
    threshold rule cannot miscorrect and nothing injects faults, but
    perfbench's output digests and the golden summaries hash them.
    """

    name = "flash_chip"

    def __init__(
        self,
        bitlines_per_block: int = 2048,
        initial_pe_cycles: int = 0,
        vpass: float = VPASS_NOMINAL,
        ecc: EccConfig = DEFAULT_ECC,
        seed: int = 0,
        executor: str = "serial",
    ):
        if bitlines_per_block < 1:
            raise ValueError("need at least one bitline per block")
        if initial_pe_cycles < 0:
            raise ValueError("initial wear cannot be negative")
        if executor != "serial":
            raise ValueError(
                f"unknown executor {executor!r}; reads run serially, so the "
                "only value is 'serial'"
            )
        self.bitlines_per_block = int(bitlines_per_block)
        self.initial_pe_cycles = int(initial_pe_cycles)
        self.vpass = float(vpass)
        self.decoder = EccDecoder(ecc)
        # Capability of the RDR rescue judgement (a wordline holds two
        # pages) — resolved once per backend instead of per escalation.
        self._wordline_capability = self.decoder.config.page_capability_bits(
            2 * self.bitlines_per_block
        )
        self.rdr = ReadDisturbRecovery()
        self.seed = int(seed)
        # Filled in bind().
        self.ftl: PageMappingFtl | None = None
        self.geometry: FlashGeometry | None = None
        self._blocks: dict[int, FlashBlock] = {}
        self._rng_factory = RngFactory(self.seed)
        self._data_rng = np.random.default_rng(self.seed ^ 0x5EED)
        self._pending_relocations: list[int] = []
        # Physics-path accounting.
        self.pages_checked = 0
        self.uncorrectable_pages = 0
        self.rdr_attempts = 0
        self.rdr_recovered = 0
        self.data_loss_events = 0
        self.corrected_bits = 0

    # ------------------------------------------------------------------
    # Engine protocol
    # ------------------------------------------------------------------

    def bind(self, ftl: PageMappingFtl) -> None:
        cfg = ftl.config
        if cfg.pages_per_block % 2 != 0:
            raise ValueError(
                "FlashChipBackend needs an even pages_per_block (MLC stores "
                "two pages per wordline)"
            )
        self.ftl = ftl
        self.geometry = FlashGeometry(
            blocks=cfg.blocks,
            wordlines_per_block=cfg.pages_per_block // 2,
            bitlines_per_block=self.bitlines_per_block,
        )

    def on_append(self, block: int, page: int, lpn: int, now: float) -> None:
        fb = self.block(block)
        wordline = page // 2
        if fb.programmed[wordline]:
            return
        # First touch of the wordline: program both of its pages at once
        # (the LSB page is always appended first, and MLC wordlines are
        # programmed as a unit).
        lsb, msb = wordline_data_bits(self._data_rng, self.geometry.bitlines_per_block)
        fb.program_wordline_bits(wordline, lsb, msb, now)

    def on_append_many(
        self, block: int, pages: np.ndarray, lpns: np.ndarray, now: float
    ) -> None:
        for page, lpn in zip(pages, lpns):
            self.on_append(block, int(page), int(lpn), now)

    def on_erase(self, block: int, now: float) -> None:
        fb = self._blocks.get(block)
        if fb is not None:
            fb.erase(now)

    def on_open(self, block: int, now: float) -> None:
        # Physical erase (the disturb/history reset) happened at on_erase.
        pass

    def on_reads(self, ppns: np.ndarray, now: float) -> None:
        """Apply one flushed batch of mapped host reads to the chip.

        A plan/execute/merge pipeline: one grouping pass over the sorted
        unique pages of the batch (:meth:`_plan_reads`), then one task
        per touched block (:meth:`_sense_decode_block` — one
        :meth:`~repro.flash.block.FlashBlock.record_reads` bulk disturb
        charge and one :meth:`~repro.ecc.decoder.EccDecoder.check_pages`
        screening every unique programmed page in one pass), and finally
        a merge in ascending block order (:meth:`_merge_outcomes` —
        shared counters and RDR escalation).

        **Bit-identity.**  Decode granularity is *per flush*: repeated
        reads of a page within one flush sense identical data, so one
        decode per unique page reproduces the per-op loop's outcomes
        exactly on that flush boundary; within a block, pages decode in
        ascending order and the merge stops counting at the first
        uncorrectable page — the scalar escalation bookkeeping — before
        RDR runs and the block is queued for relocation (golden
        summaries in ``tests/controller/test_backend_vectorized.py`` pin
        all of it).

        **Mapping precondition.**  Assumes *ppns* were resolved against
        the mapping current at flush time (the engine flushes before any
        relocation moves data).

        **Tracing.**  A traced flush writes ``physics.flush`` with its
        ``physics.plan``/``physics.execute``/``physics.merge`` phases.
        """
        if ppns.size == 0:
            return
        tracer = obs.tracer()
        with tracer.span("physics.flush", reads=int(ppns.size)):
            with tracer.span("physics.plan"):
                tasks = self._plan_reads(ppns)
            with tracer.span("physics.execute", blocks=len(tasks)):
                outcomes = [self._sense_decode_block(task, now) for task in tasks]
            with tracer.span("physics.merge", blocks=len(tasks)):
                self._merge_outcomes(outcomes, now)

    def _plan_reads(self, ppns: np.ndarray) -> list[BlockReadTask]:
        """Grouping/planning pass: one :class:`BlockReadTask` per block.

        Materializes lazily-bound blocks; the tasks come back in
        ascending block order, which is the order the merge folds them
        in.
        """
        pages_per_block = self.ftl.config.pages_per_block
        unique_ppns, counts = np.unique(ppns, return_counts=True)
        blocks = unique_ppns // pages_per_block
        pages = unique_ppns % pages_per_block
        wordlines = pages // 2
        # unique_ppns is sorted, so blocks is sorted: one boundary scan
        # yields the per-block groups for both recording and decoding.
        group_starts = np.flatnonzero(np.r_[True, blocks[1:] != blocks[:-1]])
        group_ends = np.r_[group_starts[1:], blocks.size]
        tasks = []
        for start, end in zip(group_starts, group_ends):
            start, end = int(start), int(end)
            block = int(blocks[start])
            tasks.append(
                BlockReadTask(
                    block_id=block,
                    flash_block=self.block(block),
                    wordlines=wordlines[start:end],
                    counts=counts[start:end],
                    pages=pages[start:end],
                )
            )
        return tasks

    def _sense_decode_block(
        self, task: BlockReadTask, now: float
    ) -> BlockReadOutcome:
        """Execute one block's task: bulk disturb charge, then decode.

        One :meth:`~repro.ecc.decoder.EccDecoder.check_pages` call counts
        the raw bit errors of every programmed page in the task and
        judges them against the page capability.  Mutates only
        ``task.flash_block`` (its exposure counters).
        """
        fb = task.flash_block
        # Reads of both pages of a wordline are one sensing pass each
        # but identical disturb, so the wordline counts just add up.
        fb.record_reads(task.wordlines, task.counts, self.vpass)
        # ECC-decode each unique programmed page once, at post-batch
        # exposure.  Page order within the group is ascending — the
        # order the scalar loop decoded in — so the merge's stop at the
        # first failure reproduces its escalation bookkeeping exactly.
        in_block = task.pages[fb.programmed[task.wordlines]]
        if in_block.size == 0:
            return BlockReadOutcome(task.block_id, in_block, None)
        decode = self.decoder.check_pages(fb, in_block, now, self.vpass)
        return BlockReadOutcome(task.block_id, in_block, decode)

    def _merge_outcomes(
        self, outcomes: list[BlockReadOutcome], now: float
    ) -> None:
        """Ordered merge: fold outcomes into shared state, escalate RDR.

        Outcomes arrive in ascending block order (planning order), so
        counter updates, RDR escalations, and relocation queuing happen
        in exactly the sequence the scalar loop produced.  RDR mutates
        only the failing block, so the outcomes of blocks already
        decoded this flush stay valid.
        """
        rescued_wordlines: set[tuple[int, int]] = set()
        for outcome in outcomes:
            if outcome.decode is None:
                continue
            failures = np.flatnonzero(~outcome.decode.success)
            counted = outcome.checked.size if failures.size == 0 else int(failures[0])
            self.pages_checked += counted + (0 if failures.size == 0 else 1)
            self.corrected_bits += int(outcome.decode.raw_errors[:counted].sum())
            if failures.size == 0:
                continue
            first = int(failures[0])
            self.uncorrectable_pages += 1
            # The block is queued for relocation; pages after the failure
            # are skipped this flush, as their data is being remapped.
            self._escalate(
                outcome.block_id,
                int(outcome.checked[first]) // 2,
                now,
                rescued_wordlines,
            )

    def drain_relocations(self) -> list[int]:
        pending, self._pending_relocations = self._pending_relocations, []
        return pending

    def worst_block_rber(self, now: float) -> float | None:
        """Worst current RBER across bound blocks with programmed data
        (or None when nothing is programmed yet).

        A non-recording characterization pass: no disturb is charged and
        no RNG is consumed, so observing a run (e.g. the sweep runner's
        per-window trajectory) cannot perturb it.
        """
        worst = None
        for fb in self._blocks.values():
            if not fb.programmed.any():
                continue
            rber = fb.measure_block_rber(now=now, vpass=self.vpass)
            if worst is None or rber > worst:
                worst = rber
        return worst

    def summary(self) -> dict:
        return {
            "backend": self.name,
            "bound_blocks": len(self._blocks),
            "pages_checked": self.pages_checked,
            "corrected_bits": self.corrected_bits,
            "uncorrectable_pages": self.uncorrectable_pages,
            # Always zero; perfbench digests and golden summaries pin these three.
            "miscorrected_pages": 0,
            "injected_faults": 0,
            "fault_patterns": {"single": 0, "burst2": 0, "burst4": 0, "scattered": 0},
            "rdr_attempts": self.rdr_attempts,
            "rdr_recovered": self.rdr_recovered,
            "data_loss_events": self.data_loss_events,
        }

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def block(self, block_id: int) -> FlashBlock:
        """The :class:`FlashBlock` bound to FTL block *block_id* (lazy)."""
        fb = self._blocks.get(block_id)
        if fb is None:
            if self.geometry is None:
                raise RuntimeError("backend not bound to an FTL yet")
            fb = FlashBlock(self.geometry, self._rng_factory, block_id=block_id)
            if self.initial_pe_cycles > 0:
                fb.cycle_wear_to(self.initial_pe_cycles)
            self._blocks[block_id] = fb
        return fb

    def _escalate(
        self,
        block: int,
        wordline: int,
        now: float,
        rescued: set[tuple[int, int]],
    ) -> None:
        """Uncorrectable page: try RDR, then queue the block for remap."""
        if block not in self._pending_relocations:
            self._pending_relocations.append(block)
        if (block, wordline) in rescued:
            return
        rescued.add((block, wordline))
        fb = self._blocks[block]
        self.rdr_attempts += 1
        outcome, recovered = self.rdr.rescue_wordline(
            fb, wordline, now, self._wordline_capability
        )
        if recovered:
            self.rdr_recovered += 1
        else:
            self.data_loss_events += 1
