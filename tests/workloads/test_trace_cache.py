"""The per-sweep trace cache is transparent: one generation per key,
frozen arrays, bounded memory, bit-identical results."""

import numpy as np
import pytest

from repro.workloads import trace_cache
from repro.workloads.grid import GeometrySpec, ScenarioGrid
from repro.workloads.suites import WORKLOAD_SUITE
from repro.workloads.synthetic import SyntheticWorkload, WorkloadSpec
from repro.workloads.trace_cache import (
    cached_trace_count,
    clear_trace_cache,
    generated_trace,
    scenario_trace,
)


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_trace_cache()
    yield
    clear_trace_cache()


def _spec(name="web_0"):
    return WORKLOAD_SUITE[name]


def _scenarios(seeds=2):
    return ScenarioGrid(
        workloads=(WORKLOAD_SUITE["web_0"], WORKLOAD_SUITE["prxy_0"]),
        geometries=(GeometrySpec(blocks=64, pages_per_block=64),),
        seeds=seeds,
        duration_days=0.02,
    ).scenarios()


def test_cache_returns_one_instance_per_key():
    first = generated_trace(_spec(), 0.02, 7)
    again = generated_trace(_spec(), 0.02, 7)
    assert again is first
    assert cached_trace_count() == 1
    # A different component of the key is a different trace.
    other_seed = generated_trace(_spec(), 0.02, 8)
    other_duration = generated_trace(_spec(), 0.03, 7)
    assert other_seed is not first and other_duration is not first
    assert cached_trace_count() == 3


def test_cached_trace_is_bit_identical_to_direct_generation():
    cached = generated_trace(_spec(), 0.02, 7)
    direct = SyntheticWorkload(_spec(), seed=7).generate(0.02)
    assert np.array_equal(cached.timestamps, direct.timestamps)
    assert np.array_equal(cached.ops, direct.ops)
    assert np.array_equal(cached.lpns, direct.lpns)
    assert cached.name == direct.name


def test_cached_arrays_are_frozen():
    trace = generated_trace(_spec(), 0.02, 7)
    for array in (trace.timestamps, trace.ops, trace.lpns):
        with pytest.raises(ValueError):
            array[0] = 0


def test_scenario_trace_keys_on_scenario_seed_derivation():
    scenarios = _scenarios(seeds=2)
    traces = [scenario_trace(s) for s in scenarios]
    assert scenario_trace(scenarios[0]) is traces[0]
    # Seed replicas of one cell get genuinely different traces.
    assert traces[0] is not traces[1]
    assert not np.array_equal(traces[0].lpns, traces[1].lpns)


def test_parallel_runs_leave_the_parent_cache_empty(tmp_path):
    """Workers generate the traces of the scenarios they run; neither a
    workers=2 sweep nor a workers=2 campaign generates any in the
    parent (no two scenarios of a grid share a trace)."""
    from repro.parallel import Campaign, SweepRunner

    scenarios = _scenarios()
    sweep = SweepRunner(workers=2).run(scenarios)
    assert cached_trace_count() == 0
    campaign = Campaign(scenarios, tmp_path / "store", workers=2).run()
    assert cached_trace_count() == 0
    assert campaign.results == sweep.results


def test_cache_is_bounded_lru(monkeypatch):
    monkeypatch.setattr(trace_cache, "MAX_CACHED_TRACES", 3)
    traces = [generated_trace(_spec(), 0.01, seed) for seed in range(5)]
    assert cached_trace_count() == 3
    # Oldest entries were evicted: regenerating yields a fresh instance,
    # newest entries still hit.
    assert generated_trace(_spec(), 0.01, 0) is not traces[0]
    assert generated_trace(_spec(), 0.01, 4) is traces[4]


def test_engine_run_is_identical_with_and_without_cache():
    from repro.controller.factory import run_scenario

    scenario = _scenarios(seeds=1)[0]
    cold = run_scenario(scenario)
    assert cached_trace_count() >= 1
    warm = run_scenario(scenario)  # second run hits the cached trace
    assert warm == cold

