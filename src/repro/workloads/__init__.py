"""I/O workloads.

The paper evaluates Vpass Tuning "with I/O traces collected from a wide
range of real workloads" (MSR-Cambridge write off-loading traces, the FIU
I/O-deduplication traces, postmark, and cello99).  Those traces are not
redistributable, so this package generates synthetic traces parameterized
to each workload's published statistics — read/write mix, intensity, and
access skew — which are the only properties the endurance results depend
on (read disturb is driven by per-block read pressure).
"""

from repro.workloads.trace import IoTrace, OP_READ, OP_WRITE, maintenance_windows
from repro.workloads.synthetic import SyntheticWorkload, WorkloadSpec
from repro.workloads.grid import (
    BackendSpec,
    GeometrySpec,
    PolicySpec,
    Scenario,
    ScenarioGrid,
)
from repro.workloads.suites import WORKLOAD_SUITE, workload_names, get_workload, suite_grid
from repro.workloads.trace_cache import (
    clear_trace_cache,
    generated_trace,
    scenario_trace,
)

__all__ = [
    "IoTrace",
    "OP_READ",
    "OP_WRITE",
    "maintenance_windows",
    "SyntheticWorkload",
    "WorkloadSpec",
    "BackendSpec",
    "GeometrySpec",
    "PolicySpec",
    "Scenario",
    "ScenarioGrid",
    "WORKLOAD_SUITE",
    "workload_names",
    "get_workload",
    "suite_grid",
    "clear_trace_cache",
    "generated_trace",
    "scenario_trace",
]
