"""RS vs. threshold decoder equivalence through the full engine.

Within capability the two engines must be indistinguishable: every page
the threshold model passes, the RS codec also corrects, raw bit errors
are popcounts of the same masks, and the summary dictionaries come out
bit-identical — under the serial and threaded executors alike
(the RS mask path exercises different flash-block kernels than the
threshold count path, so executor equivalence is re-pinned here rather
than assumed from ``test_block_executor``).  Beyond capability the RS
engine reports what threshold cannot: nonzero ``miscorrected_pages`` —
silent data corruption — and the fault-pattern taxonomy of the pages
that failed.
"""

import numpy as np
import pytest

from repro.controller import FlashChipBackend, SimulationEngine, SsdConfig
from repro.ecc import EccConfig
from repro.units import days
from repro.workloads import IoTrace, OP_READ, OP_WRITE

CONFIG = SsdConfig(blocks=12, pages_per_block=16, overprovision=0.25)
#: fresh cells at nominal Vpass: every page decodes under both engines.
FRESH = dict(bitlines_per_block=512, seed=5)


def _traces(footprint=300, n_ops=12_000, seed=11):
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


def _run(backend_kwargs, executor="serial", ecc=None, fault_pattern=None):
    backend = FlashChipBackend(
        **backend_kwargs,
        executor=executor,
        **({} if ecc is None else {"ecc": ecc}),
        **({} if fault_pattern is None else {"fault_pattern": fault_pattern}),
    )
    engine = SimulationEngine(
        CONFIG, read_reclaim_threshold=20_000, backend=backend, batch=True
    )
    precondition, trace = _traces()
    engine.run_trace(precondition)
    stats = engine.run_trace(trace)
    return engine, stats


RS_ECC = EccConfig(decoder="rs", rs_n=255, rs_k=223)


def test_rs_summary_bit_identical_to_threshold_within_capability():
    threshold_engine, threshold_stats = _run(FRESH)
    rs_engine, rs_stats = _run(FRESH, ecc=RS_ECC)
    assert rs_engine.backend.summary() == threshold_engine.backend.summary()
    assert rs_stats == threshold_stats
    summary = rs_engine.backend.summary()
    # Not vacuous: real pages were checked and real bits corrected.
    assert summary["pages_checked"] > 0
    assert summary["corrected_bits"] > 0
    assert summary["uncorrectable_pages"] == 0
    assert summary["miscorrected_pages"] == 0


@pytest.mark.parametrize("executor", ["threaded:2"])
def test_rs_decode_is_executor_independent(executor):
    serial_engine, serial_stats = _run(FRESH, ecc=RS_ECC)
    parallel_engine, parallel_stats = _run(FRESH, executor=executor, ecc=RS_ECC)
    assert parallel_engine.backend.summary() == serial_engine.backend.summary()
    assert parallel_stats == serial_stats


def test_weak_rs_code_reports_miscorrections():
    """A >t burst against a t=1 code yields nonzero miscorrection rate —
    the silent-data-corruption observable the threshold model cannot
    express (its only failure mode is detected-uncorrectable)."""
    weak = EccConfig(decoder="rs", rs_n=32, rs_k=30)
    engine, _ = _run(FRESH, ecc=weak, fault_pattern="burst4:0.2")
    summary = engine.backend.summary()
    assert summary["injected_faults"] > 0
    assert summary["miscorrected_pages"] > 0
    checked = summary["pages_checked"]
    assert 0.0 < summary["miscorrected_pages"] / checked < 1.0
    # Failing/miscorrected pages carry their taxonomy class.  Injected
    # bursts dominate; the residue of pages whose *natural* bit errors
    # land outside the burst window classifies as scattered.
    patterns = summary["fault_patterns"]
    burst_like = patterns["single"] + patterns["burst2"] + patterns["burst4"]
    assert burst_like > 0
    assert burst_like > patterns["scattered"]


@pytest.mark.parametrize("executor", ["threaded:2"])
def test_fault_injection_is_executor_independent(executor):
    weak = EccConfig(decoder="rs", rs_n=32, rs_k=30)
    serial_engine, serial_stats = _run(
        FRESH, ecc=weak, fault_pattern="burst4:0.2"
    )
    parallel_engine, parallel_stats = _run(
        FRESH, executor=executor, ecc=weak, fault_pattern="burst4:0.2"
    )
    assert parallel_engine.backend.summary() == serial_engine.backend.summary()
    assert parallel_stats == serial_stats
    assert serial_engine.backend.summary()["injected_faults"] > 0


def test_threshold_with_injection_counts_but_cannot_miscorrect():
    """Fault injection composes with the threshold engine too (masks are
    decoded through the popcount path); it can fail pages but can never
    produce a miscorrection — that concept requires a real codec."""
    engine, _ = _run(FRESH, fault_pattern="scatter40:0.05")
    summary = engine.backend.summary()
    assert summary["injected_faults"] > 0
    assert summary["miscorrected_pages"] == 0


def test_scattered_faults_classify_as_scattered():
    weak = EccConfig(decoder="rs", rs_n=32, rs_k=30)
    engine, _ = _run(FRESH, ecc=weak, fault_pattern="scatter6:0.2")
    summary = engine.backend.summary()
    patterns = summary["fault_patterns"]
    assert summary["uncorrectable_pages"] + summary["miscorrected_pages"] > 0
    assert patterns["scattered"] > 0
