#!/usr/bin/env python
"""Perf-trajectory gate for CI: ``BENCH_physics.json`` must hold its floors.

The perf benches *record* the trajectory; this tool *gates* it.  It
reads the committed ``BENCH_physics.json`` at the repo root and fails
(exit 1) when

1. a required section or key is missing (a bench silently stopped
   recording), or
2. a recorded number sits below its floor — the "never regress past
   this" line for each hot path, set with margin below the currently
   committed values so machine jitter does not flap CI, or
3. a recorded overhead ratio rises above its ceiling (telemetry must
   stay within 2% of the untraced flash-chip row, a campaign within
   1.25x of the in-process runner).

Core-count-gated floors (the multi-core sweep speedups) only apply when
the *recorded* payload says the recording machine had enough CPUs: a
1-CPU container legitimately records ~1x sweep speedups, and the
payloads carry ``cpu_count`` (the CPUs the recording process could run
on) exactly so this gate can tell the difference.  Each floor names its
own core count: the ``workers=2`` sweep floor (>=1.3x) arms on a
recording from >=2 CPUs, the 4-worker floor (>=1.5x) on one from >=4
CPUs.

Run from the repo root: ``python tools/check_bench.py``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_physics.json"

#: (section, key, floor) — unconditional floors for single-machine rows.
FLOORS = [
    # The unified engine: batched counter path and Monte-Carlo physics.
    ("engine_throughput", "counter_batched_ops_per_sec", 5_000_000),
    ("engine_throughput", "counter_batched_speedup", 8.0),
    # The write-heavy side: the Figure-8 suite, where host-write runs and
    # GC are the work (per-page change logging ran at ~0.2M here, the
    # per-block step before its numpy-call cuts at ~0.47M; 0.80M
    # recorded, the floor is 70% of that).
    ("engine_throughput", "counter_suite_ops_per_sec", 560_000),
    ("engine_throughput", "flash_chip_ops_per_sec", 25_000),
    # The batched device primitives.
    ("physics_hotpath", "decode_nominal_speedup", 1.2),
    ("physics_hotpath", "decode_relaxed_speedup", 100.0),
    ("physics_hotpath", "block_rber_speedup", 1.1),
]

#: (section, key, ceiling) — overhead ratios that must stay *below* the
#: line.  Floors guard "fast stays fast"; ceilings guard "cheap stays
#: cheap": armed tracing, every read flush's phase spans included,
#: costs at most 2% of the flash-chip engine row, and a campaign's wall
#: clock stays within 1.25x of the in-process runner's (1.15 as
#: recorded).
CEILINGS = [
    ("engine_throughput", "telemetry_overhead_ratio", 1.02),
    ("campaign_store", "campaign_overhead_ratio", 1.25),
]

#: (section, key, floor, min_cpus) — floors that only bind when the
#: recording machine had the cores to show the speedup.
CORE_GATED_FLOORS = [
    # Two pool workers on two real cores (1.6x recorded on a 2-vCPU host).
    ("sweep_parallel", "speedup_workers_2", 1.3, 2),
    ("sweep_parallel", "speedup_workers_4", 1.5, 4),
]

#: keys that must exist per section even when no floor binds (so a bench
#: cannot silently stop recording a row the README table quotes).
REQUIRED_KEYS = {
    "engine_throughput": [
        "flash_chip_seconds",
        "flash_chip_trace_ops",
        "counter_suite_speedup",
        "counter_suite_trace_ops",
    ],
    "physics_hotpath": ["decode_relaxed_pages_per_sec_batched"],
    "sweep_parallel": ["cpu_count", "seconds_workers_1"],
    # No floor on the append rate (fsync latency is filesystem-dependent)
    # — the gate only demands the durability-overhead row keeps being
    # recorded alongside the ratio the README quotes.
    "campaign_store": [
        "appends_per_second",
        "campaign_overhead_ratio",
        "scenarios",
    ],
}


def check(data: dict) -> list[str]:
    """Every floor violation / missing key in *data*, as messages."""
    problems = []
    sections = set(REQUIRED_KEYS) | {s for s, *_ in FLOORS} | {
        s for s, *_ in CORE_GATED_FLOORS
    }
    for section in sorted(sections):
        if section not in data:
            problems.append(f"missing section {section!r}")
    for section, keys in REQUIRED_KEYS.items():
        payload = data.get(section)
        if payload is None:
            continue
        for key in keys:
            if key not in payload:
                problems.append(f"{section}.{key} missing")
    for section, key, floor in FLOORS:
        payload = data.get(section)
        if payload is None:
            continue
        value = payload.get(key)
        if value is None:
            problems.append(f"{section}.{key} missing")
        elif value < floor:
            problems.append(
                f"{section}.{key} = {value} regressed below floor {floor}"
            )
    for section, key, ceiling in CEILINGS:
        payload = data.get(section)
        if payload is None:
            continue
        value = payload.get(key)
        if value is None:
            problems.append(f"{section}.{key} missing")
        elif value > ceiling:
            problems.append(
                f"{section}.{key} = {value} rose above ceiling {ceiling}"
            )
    for section, key, floor, min_cpus in CORE_GATED_FLOORS:
        payload = data.get(section)
        if payload is None:
            continue
        cpus = payload.get("cpu_count", 0)
        if cpus < min_cpus:
            print(
                f"note: {section}.{key} floor ({floor}x) not armed — "
                f"recorded on {cpus} CPU(s), needs >= {min_cpus}"
            )
            continue
        value = payload.get(key)
        if value is None:
            problems.append(f"{section}.{key} missing (cpu_count={cpus})")
        elif value < floor:
            problems.append(
                f"{section}.{key} = {value} regressed below floor {floor} "
                f"(recorded on {cpus} CPUs)"
            )
    return problems


def main() -> int:
    if not BENCH_JSON.exists():
        print(f"FAIL: {BENCH_JSON} does not exist")
        return 1
    data = json.loads(BENCH_JSON.read_text())
    problems = check(data)
    if problems:
        for problem in problems:
            print(f"FAIL: {problem}")
        return 1
    armed = len(FLOORS) + len(CEILINGS) + sum(
        1
        for section, _, _, min_cpus in CORE_GATED_FLOORS
        if data.get(section, {}).get("cpu_count", 0) >= min_cpus
    )
    print(f"BENCH_physics.json holds all floors and ceilings ({armed} armed)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
