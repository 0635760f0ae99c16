"""The package's public API surface stays importable and coherent."""

import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = Path(__file__).resolve().parents[1] / "src"


def test_version():
    assert repro.__version__ == "1.0.0"


def test_all_exports_resolve():
    for name in repro.__all__:
        assert hasattr(repro, name), f"repro.{name} missing"


def test_mechanisms_exported():
    assert repro.VpassTuner is not None
    assert repro.ReadDisturbRecovery is not None
    assert repro.FlashChannelModel is not None


def test_analysis_lazy_exports():
    from repro import analysis

    assert callable(analysis.vth_shift_experiment)
    assert callable(analysis.rdr_experiment)
    try:
        analysis.does_not_exist
    except AttributeError:
        pass
    else:  # pragma: no cover
        raise AssertionError("unknown attribute should raise AttributeError")


def test_cold_start_loads_no_scipy():
    """A fresh interpreter that imports the package, the sweep CLI and the
    campaign tier and runs one counter scenario loads no SciPy module:
    only the analytic channel model and a flash-chip backend's ECC set-up
    import it, at their first call."""
    probe = (
        "import sys\n"
        "import repro, repro.parallel, repro.workloads, repro.sweep\n"
        "from repro import GeometrySpec, ScenarioGrid, run_scenario\n"
        "from repro.workloads import WORKLOAD_SUITE\n"
        "grid = ScenarioGrid(\n"
        "    workloads=(WORKLOAD_SUITE['web_0'],),\n"
        "    geometries=(GeometrySpec(blocks=64, pages_per_block=64),),\n"
        "    duration_days=0.01,\n"
        ")\n"
        "(scenario,) = grid.scenarios()\n"
        "assert scenario.backend.kind == 'counter'\n"
        "assert run_scenario(scenario).stats['host_reads'] > 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
