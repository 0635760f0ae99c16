"""The perf-trajectory gate (tools/check_bench.py) and the committed
``BENCH_physics.json`` it guards."""

import importlib.util
import json
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location(
    "check_bench", REPO / "tools" / "check_bench.py"
)
check_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_bench)


def _committed():
    return json.loads((REPO / "BENCH_physics.json").read_text())


def test_committed_trajectory_holds_all_floors():
    assert check_bench.check(_committed()) == []


def test_gate_catches_a_regression():
    data = _committed()
    data["engine_throughput"]["flash_chip_ops_per_sec"] = 1.0
    problems = check_bench.check(data)
    assert any("flash_chip_ops_per_sec" in p and "regressed" in p for p in problems)


def test_gate_catches_campaign_overhead_drift():
    data = _committed()
    data["campaign_store"]["campaign_overhead_ratio"] = 1.3
    problems = check_bench.check(data)
    assert any(
        "campaign_overhead_ratio" in p and "above ceiling" in p for p in problems
    )
    data["campaign_store"]["campaign_overhead_ratio"] = 1.2
    assert check_bench.check(data) == []


def test_gate_catches_missing_sections_and_keys():
    problems = check_bench.check({})
    assert any("intra_scenario" in p for p in problems)
    data = _committed()
    del data["intra_scenario"]["serial_ops_per_sec"]
    assert any(
        "serial_ops_per_sec" in p for p in check_bench.check(data)
    )


def test_core_gated_floor_arms_only_with_enough_cpus():
    data = _committed()
    # Not armed on a small machine, even with a "bad" speedup recorded.
    data["intra_scenario"]["cpu_count"] = 1
    data["intra_scenario"]["speedup_threaded_4"] = 0.5
    assert check_bench.check(data) == []
    # Armed (and failing) when the recording machine had the cores.
    data["intra_scenario"]["cpu_count"] = 8
    problems = check_bench.check(data)
    assert any("speedup_threaded_4" in p for p in problems)
    # And passing when the speedup holds.
    data["intra_scenario"]["speedup_threaded_4"] = 2.1
    assert check_bench.check(data) == []
