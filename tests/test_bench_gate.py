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


def test_gate_catches_a_write_heavy_counter_regression():
    data = _committed()
    # The batched suite rate before host writes replayed as runs.
    data["engine_throughput"]["counter_suite_ops_per_sec"] = 200_000.0
    problems = check_bench.check(data)
    assert any(
        "counter_suite_ops_per_sec" in p and "regressed" in p for p in problems
    )


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
    assert any("sweep_parallel" in p for p in problems)
    data = _committed()
    del data["sweep_parallel"]["seconds_workers_1"]
    assert any(
        "seconds_workers_1" in p for p in check_bench.check(data)
    )


def test_core_gated_floor_arms_only_with_enough_cpus():
    data = _committed()
    # Not armed on a small machine, even with a "bad" speedup recorded.
    data["sweep_parallel"]["cpu_count"] = 2
    data["sweep_parallel"]["speedup_workers_4"] = 0.5
    assert check_bench.check(data) == []
    # Armed (and failing) when the recording machine had the cores.
    data["sweep_parallel"]["cpu_count"] = 8
    problems = check_bench.check(data)
    assert any("speedup_workers_4" in p for p in problems)
    # And passing when the speedup holds.
    data["sweep_parallel"]["speedup_workers_4"] = 2.1
    assert check_bench.check(data) == []


def test_two_worker_sweep_floor_arms_on_two_cpus():
    data = _committed()
    data["sweep_parallel"]["cpu_count"] = 1
    data["sweep_parallel"]["speedup_workers_2"] = 0.9
    assert check_bench.check(data) == []  # a 1-CPU recording: not armed
    data["sweep_parallel"]["cpu_count"] = 2
    data["sweep_parallel"]["speedup_workers_4"] = 1.0  # needs 4: unarmed
    problems = check_bench.check(data)
    assert any("speedup_workers_2" in p and "regressed" in p for p in problems)
    data["sweep_parallel"]["speedup_workers_2"] = 1.6
    assert check_bench.check(data) == []
