"""Per-process trace cache: generate each scenario's trace once.

Scenario traces are pure functions of ``(workload spec, duration,
workload seed)``, yet they used to be regenerated for every run that
needed them — once per ``--serial-check`` leg, once per worker level of
a bench, once per repeat of a grid.  This module memoizes the generated
:class:`~repro.workloads.trace.IoTrace` per process behind that exact
key, so repeated executions of the same scenario in one process (serial
checks, worker-level comparisons, repeated benches) generate
the trace once.

Each process fills its own cache: a sweep or campaign worker generates
the traces of the scenarios it runs, and the parent generates none.
The scenario id enters the workload seed, so no two scenarios of one
grid share a trace, and generating every trace in the parent before
forking would only move that work into a serial prefix.

Cached traces are shared across engine runs, so their arrays are frozen
(``writeable=False``) — an accidental in-place mutation raises instead
of silently corrupting every later run of the same scenario.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.workloads.synthetic import SyntheticWorkload, WorkloadSpec
from repro.workloads.trace import IoTrace

#: upper bound on cached traces per process; oldest-touched evicts first.
#: Grids routinely exceed this — the bound is a memory guard, not a
#: completeness promise (an evicted trace just regenerates).
MAX_CACHED_TRACES = 64

_cache: OrderedDict[tuple[WorkloadSpec, float, int], IoTrace] = OrderedDict()


def _freeze(trace: IoTrace) -> IoTrace:
    """Mark the trace's arrays read-only (shared-cache safety)."""
    for array in (trace.timestamps, trace.ops, trace.lpns):
        array.flags.writeable = False
    return trace


def generated_trace(
    spec: WorkloadSpec, duration_days: float, seed: int
) -> IoTrace:
    """The synthetic trace for ``(spec, duration_days, seed)``, cached.

    Bit-identical to calling
    ``SyntheticWorkload(spec, seed).generate(duration_days)`` directly —
    the cache key is the full set of generation inputs — but repeated
    requests return the one frozen instance.
    """
    key = (spec, float(duration_days), int(seed))
    hit = _cache.get(key)
    if hit is not None:
        _cache.move_to_end(key)
        return hit
    trace = _freeze(SyntheticWorkload(spec, seed=seed).generate(duration_days))
    _cache[key] = trace
    while len(_cache) > MAX_CACHED_TRACES:
        _cache.popitem(last=False)
    return trace


def scenario_trace(scenario) -> IoTrace:
    """The cached trace of a :class:`~repro.workloads.grid.Scenario`."""
    return generated_trace(
        scenario.workload, scenario.duration_days, scenario.workload_seed
    )


def clear_trace_cache() -> None:
    """Drop every cached trace (tests, memory pressure)."""
    _cache.clear()


def cached_trace_count() -> int:
    """How many traces are currently resident in this process."""
    return len(_cache)
