"""The vectorized FlashChipBackend read path is bit-identical to the
scalar reference.

`_scalar_on_reads` below is the pre-vectorization `on_reads` loop,
preserved verbatim as an executable specification: a full engine run with
it monkeypatched in must produce exactly the same backend summary, run
stats, and recovery relocations as the shipping vectorized path.  The
golden-summary tests additionally pin today's behavior to values captured
*before* the vectorization landed, so a silent semantic drift in either
path cannot hide.
"""

import numpy as np
import pytest

from repro.controller import FlashChipBackend, SimulationEngine, SsdConfig
from repro.units import days
from repro.workloads import IoTrace, OP_READ, OP_WRITE


def _scalar_on_reads(backend, ppns, now):
    """The per-page reference decode loop (PR 1 semantics)."""
    if ppns.size == 0:
        return
    pages_per_block = backend.ftl.config.pages_per_block
    unique_ppns, counts = np.unique(ppns, return_counts=True)
    blocks = unique_ppns // pages_per_block
    pages = unique_ppns % pages_per_block
    wordlines = pages // 2
    for block in np.unique(blocks):
        in_block = blocks == block
        fb = backend.block(int(block))
        fb.record_reads(wordlines[in_block], counts[in_block], backend.vpass)
    escalated_blocks = set()
    rescued_wordlines = set()
    for block, page, wordline in zip(blocks, pages, wordlines):
        block = int(block)
        if block in escalated_blocks:
            continue
        fb = backend._blocks[block]
        if not fb.programmed[wordline]:
            continue
        result = backend.decoder.check_page(fb, int(page), now, backend.vpass)
        backend.pages_checked += 1
        if result.success:
            backend.corrected_bits += result.raw_errors
            continue
        backend.uncorrectable_pages += 1
        backend._escalate(block, int(wordline), now, rescued_wordlines)
        escalated_blocks.add(block)


def _traces(footprint=300, n_ops=20_000, seed=11):
    rng = np.random.default_rng(seed)
    precondition = IoTrace(
        np.zeros(footprint),
        np.full(footprint, OP_WRITE, dtype=np.int64),
        rng.permutation(footprint).astype(np.int64),
        "precondition",
    )
    trace = IoTrace(
        np.sort(rng.uniform(days(0.05), days(3.0), n_ops)),
        np.where(rng.random(n_ops) < 0.97, OP_READ, OP_WRITE).astype(np.int64),
        rng.integers(0, footprint, n_ops).astype(np.int64),
        "hot-read",
    )
    return precondition, trace


def _run(backend_kwargs, batch=True, scalar_reference=False, n_ops=20_000):
    config = SsdConfig(blocks=12, pages_per_block=16, overprovision=0.25)
    backend = FlashChipBackend(**backend_kwargs)
    if scalar_reference:
        backend.on_reads = lambda ppns, now: _scalar_on_reads(backend, ppns, now)
    engine = SimulationEngine(
        config, read_reclaim_threshold=20_000, backend=backend, batch=batch
    )
    precondition, trace = _traces(n_ops=n_ops)
    engine.run_trace(precondition)
    stats = engine.run_trace(trace)
    return engine, stats


FRESH = dict(bitlines_per_block=512, seed=5)
#: heavy wear + relaxed Vpass: exercises cutoff masks, uncorrectable
#: pages, and the RDR escalation path.
WORN = dict(bitlines_per_block=512, seed=5, initial_pe_cycles=12000, vpass=500.0)


@pytest.mark.parametrize("backend_kwargs", [FRESH, WORN], ids=["fresh", "worn"])
def test_vectorized_on_reads_matches_scalar_reference(backend_kwargs):
    vectorized, stats_v = _run(backend_kwargs, n_ops=10_000)
    reference, stats_r = _run(backend_kwargs, scalar_reference=True, n_ops=10_000)
    assert vectorized.backend.summary() == reference.backend.summary()
    assert stats_v == stats_r
    assert vectorized.recovery_relocations == reference.recovery_relocations


# Golden summaries captured on the pre-vectorization implementation (same
# traces, same seeds).  The vectorized path must keep reproducing them.
GOLDEN_BATCHED = {
    "fresh": {
        "backend": "flash_chip",
        "bound_blocks": 12,
        "pages_checked": 18472,
        "corrected_bits": 329,
        "uncorrectable_pages": 0,
        "miscorrected_pages": 0,
        "injected_faults": 0,
        "fault_patterns": {"single": 0, "burst2": 0, "burst4": 0, "scattered": 0},
        "rdr_attempts": 0,
        "rdr_recovered": 0,
        "data_loss_events": 0,
    },
    "worn": {
        "backend": "flash_chip",
        "bound_blocks": 12,
        "pages_checked": 16930,
        "corrected_bits": 2750,
        "uncorrectable_pages": 138,
        "miscorrected_pages": 0,
        "injected_faults": 0,
        "fault_patterns": {"single": 0, "burst2": 0, "burst4": 0, "scattered": 0},
        "rdr_attempts": 138,
        "rdr_recovered": 0,
        "data_loss_events": 138,
    },
}

GOLDEN_SERIAL_WORN = {
    "backend": "flash_chip",
    "bound_blocks": 12,
    "pages_checked": 7739,
    "corrected_bits": 1357,
    "uncorrectable_pages": 51,
    "miscorrected_pages": 0,
    "injected_faults": 0,
    "fault_patterns": {"single": 0, "burst2": 0, "burst4": 0, "scattered": 0},
    "rdr_attempts": 51,
    "rdr_recovered": 0,
    "data_loss_events": 51,
}


def test_summary_identical_to_pre_vectorization_golden_fresh():
    engine, stats = _run(FRESH, n_ops=30_000)
    assert engine.backend.summary() == GOLDEN_BATCHED["fresh"]
    assert (stats.host_reads, stats.host_writes, stats.gc_runs) == (29094, 1206, 280)


def test_summary_identical_to_pre_vectorization_golden_worn():
    engine, stats = _run(WORN, n_ops=30_000)
    assert engine.backend.summary() == GOLDEN_BATCHED["worn"]
    assert (stats.host_reads, stats.host_writes, stats.gc_runs) == (29094, 1206, 250)
    assert engine.recovery_relocations == 137


def test_summary_identical_to_pre_vectorization_golden_serial():
    engine, stats = _run(WORN, batch=False, n_ops=8_000)
    assert engine.backend.summary() == GOLDEN_SERIAL_WORN
    assert (stats.host_reads, stats.host_writes, stats.gc_runs) == (7739, 561, 88)
    assert engine.recovery_relocations == 51


def test_worn_path_actually_escalates():
    """The worn run drives the uncorrectable path that the equivalence
    and golden tests above pin: pages fail, RDR runs, blocks are queued
    for relocation, and a failing block's later pages are skipped for
    the rest of its flush, so fewer pages are checked than on the same
    trace with fresh cells."""
    engine, _ = _run(WORN, n_ops=10_000)
    summary = engine.backend.summary()
    assert summary["uncorrectable_pages"] > 0
    assert summary["rdr_attempts"] > 0
    assert engine.recovery_relocations > 0
    fresh_engine, _ = _run(FRESH, n_ops=10_000)
    assert summary["pages_checked"] < fresh_engine.backend.summary()["pages_checked"]


def test_programs_land_at_append_time():
    """A wordline is programmed when its first page is appended: after a
    write-only run, before any read, erase or summary observes the chip,
    each block holds exactly the wordlines its write pointer reached."""
    config = SsdConfig(blocks=12, pages_per_block=16, overprovision=0.25)
    footprint = 40
    backend = FlashChipBackend(bitlines_per_block=64, seed=1)
    engine = SimulationEngine(config, backend=backend)
    precondition, _ = _traces(footprint=footprint, seed=13)
    engine.run_trace(precondition)  # write-only, too short for GC
    wordlines = config.pages_per_block // 2
    programmed = 0
    for block, pointer in enumerate(engine.ftl.write_pointer):
        expected = np.arange(wordlines) < -(-int(pointer) // 2)
        fb = backend._blocks.get(block)
        if fb is None:
            assert not expected.any()
            continue
        assert fb.programmed.tolist() == expected.tolist()
        programmed += int(fb.programmed.sum())
    assert programmed == footprint // 2


def test_flash_chip_backend_accepts_only_the_serial_executor():
    """Reads run serially: ``executor="serial"`` is the one accepted
    value, any other raises, and closing an engine is a no-op."""
    with pytest.raises(ValueError, match="only value is 'serial'"):
        FlashChipBackend(executor="threaded:2")
    engine = SimulationEngine(
        SsdConfig(blocks=12, pages_per_block=16, overprovision=0.25),
        backend=FlashChipBackend(bitlines_per_block=64, executor="serial"),
    )
    engine.close()
    engine.close()


@pytest.mark.parametrize("bits", [1, 3, 7, 8, 100, 2048, 2049])
def test_wordline_data_bits_match_integers_draws(bits):
    """Raw-word data bits are byte-equal to two ``integers(0, 2, bits,
    uint8)`` draws over consecutive wordlines, and leave the generator at
    the same position with no buffered 32-bit half (only the stale
    ``uinteger`` field of the state may differ)."""
    from repro.controller.backends import wordline_data_bits

    reference = np.random.default_rng(2024)
    raw = np.random.default_rng(2024)
    for _ in range(5):
        lsb_ref = reference.integers(0, 2, bits, dtype=np.uint8)
        msb_ref = reference.integers(0, 2, bits, dtype=np.uint8)
        lsb, msb = wordline_data_bits(raw, bits)
        assert lsb.dtype == msb.dtype == np.uint8
        assert np.array_equal(lsb, lsb_ref)
        assert np.array_equal(msb, msb_ref)
        state_ref = reference.bit_generator.state
        state = raw.bit_generator.state
        assert state["state"] == state_ref["state"]
        assert state["has_uint32"] == state_ref["has_uint32"] == 0
