"""SSD controller substrate.

The paper evaluates Vpass Tuning inside an SSD controller fed by real I/O
traces.  This package provides that controller: a page-mapping flash
translation layer with greedy garbage collection and wear leveling
(:mod:`repro.controller.ftl`), the remapping-based refresh the paper's
7-day interval relies on (:mod:`repro.controller.refresh`), the
read-reclaim baseline mitigation (:mod:`repro.controller.read_reclaim`),
and the unified simulation engine (:mod:`repro.controller.engine`) that
runs traces through a pluggable physics backend
(:mod:`repro.controller.backends`) — counter-only for fast sweeps, or a
Monte-Carlo flash chip with ECC and Read Disturb Recovery in the loop.
"""

from repro.controller.ftl import (
    FtlObserver,
    PageMappingFtl,
    SsdConfig,
    BlockState,
    GcStarvationError,
)
from repro.controller.refresh import RefreshScheduler
from repro.controller.read_reclaim import ReadReclaimPolicy
from repro.controller.backends import (
    PhysicsBackend,
    CounterBackend,
    FlashChipBackend,
)
from repro.controller.engine import SimulationEngine, SsdRunStats
from repro.controller.factory import build_backend, build_engine, run_scenario
from repro.controller.stats import block_read_pressure, hottest_block_reads_per_day

__all__ = [
    "FtlObserver",
    "PageMappingFtl",
    "SsdConfig",
    "BlockState",
    "GcStarvationError",
    "RefreshScheduler",
    "ReadReclaimPolicy",
    "PhysicsBackend",
    "CounterBackend",
    "FlashChipBackend",
    "SimulationEngine",
    "SsdRunStats",
    "build_backend",
    "build_engine",
    "run_scenario",
    "block_read_pressure",
    "hottest_block_reads_per_day",
]
