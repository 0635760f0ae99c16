"""The benchmark's four workloads, one per paper regime plus the campaign tier.

Each workload builds its inputs from the seed alone and runs as a series
of identical repetitions (units).  A unit has a set-up phase and a timed
phase and returns the digests of what the simulator produced, so a run
can check that every repetition agrees and, at the default seed, that
the outputs match the pinned digests in ``digests.json``.

- ``hot_read`` / ``write_churn`` / ``aged_rdr`` drive one
  :class:`~repro.controller.engine.SimulationEngine` over a flash-chip
  backend with the serial executor, closed loop with one caller.  Set-up
  builds the engine and fills the drive; the timed phase runs the trace.
- ``suite_campaign`` runs the Figure-8 suite on the counter backend
  through :class:`~repro.parallel.campaign.Campaign` over a fresh
  :class:`~repro.parallel.store.ResultStore`, one forked process per
  scenario.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

import repro
from repro.controller import FlashChipBackend, SimulationEngine, SsdConfig
from repro.parallel import Campaign, ResultStore
from repro.units import SECONDS_PER_DAY
from repro.workloads import IoTrace, OP_READ, OP_WRITE, suite_grid
from repro.workloads.grid import GeometrySpec
from repro.workloads.trace_cache import clear_trace_cache

from hostspeed import reference_seconds

#: Fields digested from ``SsdRunStats`` and ``backend.summary()``.  Fixed
#: lists, so a later release that adds a field keeps the pinned digests.
STATS_KEYS = (
    "duration_days", "host_reads", "host_writes", "write_amplification",
    "gc_runs", "refreshed_blocks", "reclaimed_blocks",
    "peak_block_reads_per_interval", "mean_pe_cycles", "max_pe_cycles",
    "unmapped_reads",
)
SUMMARY_KEYS = (
    "backend", "bound_blocks", "pages_checked", "corrected_bits",
    "uncorrectable_pages", "miscorrected_pages", "injected_faults",
    "fault_patterns", "rdr_attempts", "rdr_recovered", "data_loss_events",
)


def digest(stats: dict, summary: dict, pe_cycles) -> str:
    """SHA-256 of the run statistics, backend summary and per-block wear."""
    payload = {
        "stats": {key: stats[key] for key in STATS_KEYS},
        "summary": {key: summary[key] for key in SUMMARY_KEYS if key in summary},
        "pe_cycles": [int(value) for value in pe_cycles],
    }
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class Unit:
    """What one repetition measured and produced."""

    setup_s: float
    timed_s: float
    #: the timed phase on the ``time.perf_counter`` clock.
    window: tuple[float, float]
    #: simulated host operations in the timed phase.
    ops: int
    #: output digest per item (one item, or one per campaign scenario).
    digests: dict[str, str]
    #: concurrent worker processes of the timed phase.
    workers: int = 1
    #: which input of the workload's pool the repetition ran.
    index: int = 0
    #: host-speed kernel timings taken inside the repetition, outside
    #: its timed seconds.
    reference_s: list[float] = field(default_factory=list)


# ----------------------------------------------------------------------
# Flash-chip workloads
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class FlashShape:
    """Drive geometry, physics knobs and trace shape of a flash workload."""

    blocks: int = 32
    pages_per_block: int = 64
    overprovision: float = 0.2
    gc_threshold_blocks: int = 1
    bitlines_per_block: int = 2048
    initial_pe_cycles: int = 0
    vpass: float = 512.0
    read_reclaim_threshold: int | None = None
    maintenance_period_days: float = 1.0
    duration_days: float = 6.0
    ops: int = 50_000
    read_fraction: float = 0.99
    #: Zipf exponents of read and write popularity over logical pages.
    read_theta: float = 0.9
    write_theta: float = 0.3


def _zipf_pages(rng, pages: int, count: int, theta: float) -> np.ndarray:
    """*count* logical pages drawn from a bounded Zipf(theta) law whose
    popular ranks are scattered over the address space."""
    cdf = np.cumsum(np.arange(1, pages + 1, dtype=np.float64) ** -theta)
    cdf /= cdf[-1]
    return rng.permutation(pages)[np.searchsorted(cdf, rng.random(count))].astype(
        np.int64
    )


@dataclass(frozen=True)
class FlashInputs:
    """Everything one flash repetition needs, generated from the seed."""

    shape: FlashShape
    config: SsdConfig
    fill: IoTrace
    trace: IoTrace
    backend_seed: int


class Workload:
    """A named workload: why it is in the benchmark, its full-size shape
    and the toy shape the self-test runs."""

    #: inputs a run cycles through (see :meth:`inputs`).
    pool = 1

    def __init__(self, name: str, why: str, shape, toy):
        self.name = name
        self.why = why
        self.shape = shape
        self.toy_shape = toy

    def describe(self, toy: bool = False) -> dict:
        return asdict(self.toy_shape if toy else self.shape)


class FlashWorkload(Workload):
    """One engine over a flash-chip backend: fill the drive, run a trace.

    A run cycles through a pool of four inputs drawn from its seed, so
    its throughput averages over several traces instead of one.
    """

    pool = 4

    def inputs(self, seed: int, index: int, toy: bool = False) -> FlashInputs:
        """Input *index* of the pool for *seed*: precondition fill, timed
        trace and backend seed."""
        shape = self.toy_shape if toy else self.shape
        config = self._config(shape)
        pages = config.logical_pages
        rng = np.random.default_rng([seed, index])
        backend_seed = int(rng.integers(2**31))
        fill = IoTrace(
            np.zeros(pages),
            np.full(pages, OP_WRITE, dtype=np.int64),
            rng.permutation(pages).astype(np.int64),
            "precondition",
        )
        n = shape.ops
        timestamps = np.sort(
            rng.uniform(0.01, shape.duration_days, n) * SECONDS_PER_DAY
        )
        reads = rng.random(n) < shape.read_fraction
        lpns = np.empty(n, dtype=np.int64)
        lpns[reads] = _zipf_pages(rng, pages, int(reads.sum()), shape.read_theta)
        lpns[~reads] = _zipf_pages(rng, pages, int((~reads).sum()), shape.write_theta)
        ops = np.where(reads, OP_READ, OP_WRITE).astype(np.int64)
        trace = IoTrace(timestamps, ops, lpns, self.name)
        return FlashInputs(shape, config, fill, trace, backend_seed)

    @staticmethod
    def _config(shape: FlashShape) -> SsdConfig:
        return SsdConfig(
            blocks=shape.blocks,
            pages_per_block=shape.pages_per_block,
            overprovision=shape.overprovision,
            gc_threshold_blocks=shape.gc_threshold_blocks,
        )

    def unit(self, inputs: FlashInputs, workdir: Path, recorder=None) -> Unit:
        shape = inputs.shape
        clock = time.perf_counter
        start = clock()
        engine = SimulationEngine(
            inputs.config,
            read_reclaim_threshold=shape.read_reclaim_threshold,
            maintenance_period_days=shape.maintenance_period_days,
            backend=FlashChipBackend(
                bitlines_per_block=shape.bitlines_per_block,
                initial_pe_cycles=shape.initial_pe_cycles,
                vpass=shape.vpass,
                seed=inputs.backend_seed,
                executor="serial",
            ),
        )
        try:
            engine.run_trace(inputs.fill)
            setup_end = clock()
            if recorder is not None:
                recorder.start()
            timed_start = clock()
            stats = engine.run_trace(inputs.trace)
            timed_end = clock()
            result = digest(asdict(stats), engine.backend.summary(), engine.ftl.pe_cycles)
        finally:
            if recorder is not None:
                recorder.stop()
            engine.close()
        return Unit(
            setup_s=setup_end - start,
            timed_s=timed_end - timed_start,
            window=(timed_start, timed_end),
            ops=len(inputs.trace),
            digests={"run": result},
        )


# ----------------------------------------------------------------------
# Campaign workload
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CampaignShape:
    """Grid and scheduling shape of the campaign workload."""

    #: suite workloads in the grid (None: all fourteen of Figure 8).
    names: tuple[str, ...] | None = None
    duration_days: float = 0.05
    blocks: int = 64
    pages_per_block: int = 64
    #: per-scenario wall-clock limit before the worker is killed.
    scenario_timeout_s: float = 60.0


class CampaignWorkload(Workload):
    """The Figure-8 suite through ``Campaign`` over a fresh store.

    Its fourteen scenarios already average over fourteen traces, so the
    pool holds one input: the grid at ``root_seed=seed``.  One scenario
    worker at a time: with two on a two-core host, repeated campaigns
    differed by 11% or more, and a run stays on one core so the
    reference kernel times the core the scenarios run on.
    """

    workers = 1

    def inputs(self, seed: int, index: int, toy: bool = False):
        return self.toy_shape if toy else self.shape, seed

    def unit(self, inputs, workdir: Path, recorder=None) -> Unit:
        shape, seed = inputs
        clock = time.perf_counter
        store_dir = workdir / "store"
        shutil.rmtree(store_dir, ignore_errors=True)
        # Every repetition generates its traces again, as a fresh
        # campaign process would.
        clear_trace_cache()
        start = clock()
        # A campaign starts in a fresh interpreter: its cold import of the
        # simulator is part of what the user waits for before any work.
        subprocess.run(
            [sys.executable, "-c", "import repro.parallel, repro.workloads"],
            env=dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parent.parent)),
            check=True,
        )
        grid = suite_grid(
            None if shape.names is None else list(shape.names),
            duration_days=shape.duration_days,
            geometries=(
                GeometrySpec(blocks=shape.blocks, pages_per_block=shape.pages_per_block),
            ),
            root_seed=seed,
        )
        campaign = Campaign(
            grid,
            ResultStore(store_dir),
            workers=self.workers,
            on_failure="continue",
            timeout=shape.scenario_timeout_s,
        )
        setup_end = clock()
        if recorder is not None:
            recorder.start()
        # With one worker no scenario runs while the scheduler reports a
        # landed result, so the host-speed kernel can be timed there and
        # its time taken out of the timed phase.
        samples = []
        try:
            timed_start = clock()
            report = campaign.run(progress=lambda _: samples.append(reference_seconds()))
            timed_end = clock()
        finally:
            if recorder is not None:
                recorder.stop()
        digests = {}
        ops = 0
        for result in report:
            stats = result.stats
            ops += stats["host_reads"] + stats["host_writes"] + stats["unmapped_reads"]
            digests[result.scenario_id] = digest(
                stats, result.backend, result.per_block["pe_cycles"]
            )
        shutil.rmtree(store_dir, ignore_errors=True)
        return Unit(
            setup_s=setup_end - start,
            timed_s=timed_end - timed_start - sum(samples),
            window=(timed_start, timed_end),
            ops=ops,
            digests=digests,
            workers=self.workers,
            reference_s=samples,
        )


HOT_READ = FlashShape()

WORKLOADS = {
    workload.name: workload
    for workload in (
        FlashWorkload(
            "hot_read",
            "Characterization regime: a full drive under 99% skewed hot reads "
            "at nominal Vpass; the read path (flush, sense, ECC) does the work.",
            HOT_READ,
            replace(HOT_READ, blocks=12, pages_per_block=32, bitlines_per_block=1024, ops=4_000),
        ),
        FlashWorkload(
            "write_churn",
            "Write-heavy churn over the whole logical space: wordline programs, "
            "GC relocation and erase beside the read path.",
            replace(HOT_READ, ops=2_000, read_fraction=0.2),
            replace(
                HOT_READ, blocks=12, pages_per_block=32, bitlines_per_block=1024,
                ops=500, read_fraction=0.2,
            ),
        ),
        FlashWorkload(
            "aged_rdr",
            "Recovery regime: 12k P/E wear, Vpass relaxed to 500 below the cutoff "
            "check, no read reclaim; runs cutoff sensing, RDR rescue and remaps.",
            replace(
                HOT_READ, initial_pe_cycles=12_000, vpass=500.0,
                maintenance_period_days=0.25, duration_days=1.0, ops=6_000,
            ),
            replace(
                HOT_READ, blocks=12, pages_per_block=32, bitlines_per_block=1024,
                initial_pe_cycles=12_000, vpass=500.0, maintenance_period_days=0.25,
                ops=4_000,
            ),
        ),
        CampaignWorkload(
            "suite_campaign",
            "Mitigation regime: the Figure-8 fourteen-workload suite on the counter "
            "backend through Campaign, fork per scenario, fsync'd store appends.",
            CampaignShape(),
            CampaignShape(names=("web_0", "hm_0", "postmark"), duration_days=0.005),
        ),
    )
}
