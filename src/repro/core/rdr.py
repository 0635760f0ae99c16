"""Read Disturb Recovery (RDR): the paper's error-recovery mechanism
(Section 4).

When a read has more raw errors than ECC can correct, the drive has
traditionally lost the data.  RDR recovers it offline by exploiting
process variation in disturb susceptibility:

1. Measure each cell's threshold voltage with a read-retry sweep.
2. Induce a significant number of additional read disturbs (default 100K)
   to *other* pages of the block, then sweep again; the per-cell difference
   is the measured disturb shift ΔVth.
3. Cells near a read-reference boundary whose shift exceeds the ΔVref at
   the intersection of the prone/resistant shift distributions are
   classified *disturb-prone*; RDR predicts they belong to the lower of the
   two adjacent states (they drifted up into the boundary).  Cells shifting
   less are *disturb-resistant* and predicted to belong to the higher state.
4. The probabilistic correction does not fix every cell, but it lowers the
   raw error count enough for ECC to take over.

The mechanism here never consults ground truth; the simulator's ground
truth is used only to *evaluate* the outcome, exactly as the paper
evaluates against known programmed data.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.analysis.histograms import quantized_voltages
from repro.core.classifier import intersection_threshold
from repro.flash.block import FlashBlock
from repro.flash.sensing import DEFAULT_REFERENCES
from repro.flash.state import bit_errors_between


@dataclass(frozen=True)
class RdrConfig:
    """RDR parameters."""

    #: additional read disturbs induced for the ΔVth characterization
    #: (paper: "a significant number ... (e.g., 100K)").
    extra_reads: int = 400_000
    #: read-retry resolution of the Vth sweeps.
    retry_step: float = 2.0
    #: boundary window above each read reference.  Disturb-shifted cells
    #: pile up exponentially just *above* the reference they crossed, so
    #: the upper window is the recovery-relevant one.
    upper_window: float = 12.0
    #: boundary window below each reference (retention-dropped cells from
    #: the higher state).
    lower_window: float = 8.0
    #: minimum separation between the prone and resistant ΔVth class means
    #: (in units of retry_step) for the classification to be trusted; when
    #: the measured shifts are not bimodal the probabilistic correction
    #: would be a coin flip, so RDR conservatively does nothing.
    min_class_separation_steps: float = 1.5
    #: minimum number of disturb-prone cells at a boundary before acting;
    #: a handful of prone cells means no disturb-error population worth the
    #: risk of probabilistic correction.
    min_prone_cells: int = 10
    #: also reassign cells sensed *below* a reference to the higher state
    #: when disturb-resistant (the paper's symmetric correction rule).
    correct_below_reference: bool = True
    #: sweep range (min, max) covering all states.
    sweep_lo: float = -40.0
    sweep_hi: float = 520.0
    #: charge each recording retry sweep's disturb exposure in one
    #: batched update and sense all steps from one materialization
    #: (bit-identical to the per-step loop — every sweep read targets
    #: the measured wordline, leaving its own exposure invariant; see
    #: :meth:`repro.flash.block.FlashBlock.record_retry_sweep`).  False
    #: keeps the historical per-step loop, the equivalence reference.
    batched_sweeps: bool = True

    def __post_init__(self) -> None:
        if self.extra_reads <= 0:
            raise ValueError("RDR needs a positive number of extra reads")
        if self.retry_step <= 0:
            raise ValueError("retry step must be positive")
        if self.upper_window <= 0 or self.lower_window < 0:
            raise ValueError("boundary windows must be non-negative (upper > 0)")


@dataclass(frozen=True)
class RdrOutcome:
    """Result of recovering one wordline."""

    bits_total: int
    bit_errors_before: int
    bit_errors_after: int
    candidate_cells: int
    corrected_to_lower: int
    corrected_to_higher: int
    delta_vrefs: tuple[float, ...]
    #: references where the prone/resistant split was too weak to act on.
    skipped_boundaries: int = 0

    @property
    def rber_before(self) -> float:
        return self.bit_errors_before / self.bits_total

    @property
    def rber_after(self) -> float:
        return self.bit_errors_after / self.bits_total

    @property
    def reduction_fraction(self) -> float:
        """Fraction of raw bit errors removed (the paper's 36% at 1M reads)."""
        if self.bit_errors_before == 0:
            return 0.0
        return 1.0 - self.bit_errors_after / self.bit_errors_before


class ReadDisturbRecovery:
    """RDR engine operating on a Monte-Carlo flash block.

    The class boundaries RDR corrects across are the read references the
    block senses against, the paper's defaults
    (:data:`~repro.flash.sensing.DEFAULT_REFERENCES`).
    """

    def __init__(self, config: RdrConfig | None = None):
        self.config = config if config is not None else RdrConfig()

    # ------------------------------------------------------------------

    def recover_wordline(
        self,
        block: FlashBlock,
        wordline: int,
        now: float = 0.0,
    ) -> RdrOutcome:
        """Run RDR on one wordline and evaluate against ground truth.

        The recovery itself (steps 1-3 of the module docstring) uses only
        chip-visible observables; ground truth enters only the returned
        error counts.
        """
        cfg = self.config
        refs = DEFAULT_REFERENCES.as_array()

        # Step 1: Vth sweep at failure time.
        vth_before = quantized_voltages(
            block, wordline, cfg.sweep_lo, cfg.sweep_hi, cfg.retry_step, now,
            batched=cfg.batched_sweeps,
        )
        sensed_before = np.searchsorted(refs, vth_before, side="left").astype(np.int64)

        # Step 2: induce additional disturbs on the block (targeting another
        # wordline so the measured one absorbs them), then re-sweep.
        other = (wordline + 1) % block.geometry.wordlines_per_block
        block.apply_read_disturb(cfg.extra_reads, target_wordline=other)
        vth_after = quantized_voltages(
            block, wordline, cfg.sweep_lo, cfg.sweep_hi, cfg.retry_step, now,
            batched=cfg.batched_sweeps,
        )
        delta_vth = vth_after - vth_before

        # Step 3: classify and correct boundary cells around each reference.
        corrected = sensed_before.copy()
        lower_count = 0
        higher_count = 0
        candidates_total = 0
        skipped = 0
        delta_vrefs: list[float] = []
        for ref_index, ref in enumerate(refs):
            near = (vth_before >= ref - cfg.lower_window) & (
                vth_before <= ref + cfg.upper_window
            )
            n_near = int(near.sum())
            if n_near == 0:
                delta_vrefs.append(float("nan"))
                continue
            candidates_total += n_near
            delta_vref = intersection_threshold(delta_vth[near])
            prone = near & (delta_vth > delta_vref)
            resistant = near & ~prone
            # Guard: only act when the two classes are genuinely separated
            # (a bimodal shift distribution).  Without disturb damage the
            # split is quantization noise and correction would misfire.
            if not self._classes_separated(delta_vth, prone, resistant):
                delta_vrefs.append(float("nan"))
                skipped += 1
                continue
            delta_vrefs.append(delta_vref)
            if cfg.correct_below_reference:
                corrected[prone] = ref_index  # lower adjacent state
                corrected[resistant] = ref_index + 1  # higher adjacent state
                lower_count += int(prone.sum())
                higher_count += int(resistant.sum())
            else:
                above = vth_before > ref
                corrected[prone & above] = ref_index
                corrected[resistant & above] = ref_index + 1
                lower_count += int((prone & above).sum())
                higher_count += int((resistant & above).sum())

        true_states = block.true_states_of_wordline(wordline)
        errors_before = int(bit_errors_between(true_states, sensed_before).sum())
        errors_after = int(bit_errors_between(true_states, corrected).sum())
        return RdrOutcome(
            bits_total=2 * true_states.size,
            bit_errors_before=errors_before,
            bit_errors_after=errors_after,
            candidate_cells=candidates_total,
            corrected_to_lower=lower_count,
            corrected_to_higher=higher_count,
            delta_vrefs=tuple(delta_vrefs),
            skipped_boundaries=skipped,
        )

    def rescue_wordline(
        self,
        block: FlashBlock,
        wordline: int,
        now: float = 0.0,
        capability_bits: int | None = None,
    ) -> tuple[RdrOutcome, bool]:
        """Controller-facing recovery: run RDR and judge the outcome.

        Returns ``(outcome, recovered)`` where *recovered* is True when
        the post-RDR raw error count of the wordline fits back within
        *capability_bits* (the ECC strength over the wordline's
        ``outcome.bits_total`` bits), i.e. ECC can now finish the job.
        With no capability given, any error reduction counts as recovery.
        """
        outcome = self.recover_wordline(block, wordline, now)
        if capability_bits is None:
            recovered = outcome.bit_errors_after < outcome.bit_errors_before
        else:
            recovered = outcome.bit_errors_after <= capability_bits
        return outcome, recovered

    def _classes_separated(
        self,
        delta_vth: np.ndarray,
        prone: np.ndarray,
        resistant: np.ndarray,
    ) -> bool:
        """True when the prone/resistant ΔVth means are far enough apart."""
        if int(prone.sum()) < self.config.min_prone_cells or not resistant.any():
            return False
        separation = float(delta_vth[prone].mean() - delta_vth[resistant].mean())
        return separation >= self.config.min_class_separation_steps * self.config.retry_step
