"""Reproduction of "Read Disturb Errors in MLC NAND Flash Memory:
Characterization, Mitigation, and Recovery" (Cai et al., DSN 2015).

Public API re-exports: the simulated device, one Monte-Carlo flash block
at a time (:class:`FlashBlock`), the analytic channel model
(:class:`FlashChannelModel`), the paper's two mechanisms
(:class:`VpassTuner`, :class:`ReadDisturbRecovery`), the unified
simulation engine (:class:`SimulationEngine` and its backends),
and the sharded sweep subsystem (:class:`ScenarioGrid`,
:class:`SweepRunner`, ``python -m repro.sweep``).  See README.md for a
quickstart and docs/architecture.md for the system contracts.
"""

from repro.units import VPASS_NOMINAL, days, hours
from repro.rng import RngFactory
from repro.flash import (
    FlashBlock,
    FlashGeometry,
    MlcState,
    ReadReferences,
)
from repro.ecc import EccConfig, EccDecoder, DEFAULT_ECC, UncorrectableError
from repro.model import (
    FlashChannelModel,
    BaselinePolicy,
    TunedVpassPolicy,
    endurance,
    worst_case_rber,
)
from repro.core import (
    VpassTuner,
    TunerConfig,
    TuningOutcome,
    MonteCarloTunableBlock,
    ReadDisturbRecovery,
    RdrConfig,
    RdrOutcome,
    predict_worst_page,
)
from repro.controller import (
    SimulationEngine,
    SsdConfig,
    SsdRunStats,
    CounterBackend,
    FlashChipBackend,
    PhysicsBackend,
    build_engine,
    run_scenario,
)
from repro.workloads import (
    BackendSpec,
    GeometrySpec,
    PolicySpec,
    Scenario,
    ScenarioGrid,
    suite_grid,
)
from repro.parallel import (
    ScenarioFailure,
    ScenarioResult,
    SweepReport,
    SweepRunner,
    run_sweep,
)

__version__ = "1.0.0"

__all__ = [
    "VPASS_NOMINAL",
    "days",
    "hours",
    "RngFactory",
    "FlashBlock",
    "FlashGeometry",
    "MlcState",
    "ReadReferences",
    "EccConfig",
    "EccDecoder",
    "DEFAULT_ECC",
    "UncorrectableError",
    "FlashChannelModel",
    "BaselinePolicy",
    "TunedVpassPolicy",
    "endurance",
    "worst_case_rber",
    "VpassTuner",
    "TunerConfig",
    "TuningOutcome",
    "MonteCarloTunableBlock",
    "ReadDisturbRecovery",
    "RdrConfig",
    "RdrOutcome",
    "predict_worst_page",
    "SimulationEngine",
    "SsdConfig",
    "SsdRunStats",
    "CounterBackend",
    "FlashChipBackend",
    "PhysicsBackend",
    "build_engine",
    "run_scenario",
    "BackendSpec",
    "GeometrySpec",
    "PolicySpec",
    "Scenario",
    "ScenarioGrid",
    "suite_grid",
    "ScenarioFailure",
    "ScenarioResult",
    "SweepReport",
    "SweepRunner",
    "run_sweep",
    "__version__",
]
