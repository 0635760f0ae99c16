"""Campaign overhead: the crash-safe store vs. the in-process runner.

The result store buys durability with an fsync per appended record and
an atomic manifest rewrite per bind — a price paid once per scenario,
so it must stay negligible against even the cheapest (counter-backend)
scenario.  This bench measures the store's raw append/load throughput
on synthetic records, then runs one small counter-backend grid twice —
through ``SweepRunner`` and through a ``Campaign`` over a fresh store —
asserts the reports are bit-identical, and records the relative
overhead in ``BENCH_physics.json``.

Absolute fsync latency is filesystem-dependent (CI containers often
mount tmpfs-backed tmp dirs), so the trajectory records the overhead
ratio rather than asserting a floor on append rate.
"""

import os
import tempfile
import time
from pathlib import Path

from repro.analysis.reporting import format_table
from repro.parallel import Campaign, ResultStore, SweepRunner
from repro.parallel.results import ScenarioResult
from repro.workloads.grid import GeometrySpec, ScenarioGrid
from repro.workloads.suites import WORKLOAD_SUITE

SMOKE = bool(int(os.environ.get("BENCH_SMOKE", "0")))
#: CPUs this process may run on (its affinity mask), not every CPU of
#: the host: tools/check_bench.py arms core-gated floors from it.
CPUS = (
    len(os.sched_getaffinity(0))
    if hasattr(os, "sched_getaffinity")
    else os.cpu_count() or 1
)

APPEND_RECORDS = 50 if SMOKE else 500
DURATION_DAYS = 0.01 if SMOKE else 0.05
SEEDS = 2 if SMOKE else 4

GRID = ScenarioGrid(
    workloads=(WORKLOAD_SUITE["web_0"],),
    geometries=(GeometrySpec(blocks=64, pages_per_block=64),),
    seeds=SEEDS,
    duration_days=DURATION_DAYS,
)


def _fake_result(index: int) -> ScenarioResult:
    return ScenarioResult(
        scenario_id=f"bench/scenario/s{index:04d}",
        stats={"host_reads": index * 11, "host_writes": index * 7,
               "write_amplification": 1.0 + index / 1000.0},
        backend={"worst_block_rber": index * 1e-6},
        per_block={"pe_cycles": [index, index + 1]},
    )


def _append_load(tmp: Path) -> dict:
    results = [_fake_result(i) for i in range(APPEND_RECORDS)]
    start = time.perf_counter()
    with ResultStore(tmp / "append") as store:
        for result in results:
            store.append(result)
    append_seconds = time.perf_counter() - start
    store = ResultStore(tmp / "append")
    start = time.perf_counter()
    loaded = store.load()
    load_seconds = time.perf_counter() - start
    assert [loaded[r.scenario_id] for r in results] == results
    return {
        "records": APPEND_RECORDS,
        "append_seconds": append_seconds,
        "load_seconds": load_seconds,
        "appends_per_second": APPEND_RECORDS / append_seconds,
    }


def _campaign_overhead(tmp: Path) -> dict:
    start = time.perf_counter()
    runner_report = SweepRunner(workers=1).run(GRID)
    runner_seconds = time.perf_counter() - start
    start = time.perf_counter()
    campaign = Campaign(GRID, ResultStore(tmp / "campaign"), workers=1)
    campaign_report = campaign.run()
    campaign_seconds = time.perf_counter() - start
    assert campaign_report.results == runner_report.results, (
        "campaign report diverged from the in-process runner"
    )
    return {
        "scenarios": len(GRID),
        "runner_seconds": runner_seconds,
        "campaign_seconds": campaign_seconds,
        "overhead_ratio": campaign_seconds / runner_seconds,
    }


def bench_campaign_store(benchmark, emit, emit_json):
    def _run():
        with tempfile.TemporaryDirectory() as tmp:
            return _append_load(Path(tmp)), _campaign_overhead(Path(tmp))

    append, overhead = benchmark.pedantic(_run, rounds=1, iterations=1)
    table = format_table(
        ["path", "work", "seconds", "rate"],
        [
            [
                "store append (fsync each)",
                f"{append['records']} records",
                f"{append['append_seconds']:.3f}",
                f"{append['appends_per_second']:,.0f}/s",
            ],
            [
                "store load (checksum each)",
                f"{append['records']} records",
                f"{append['load_seconds']:.3f}",
                f"{append['records'] / append['load_seconds']:,.0f}/s",
            ],
            [
                "SweepRunner (in-process)",
                f"{overhead['scenarios']} scenarios",
                f"{overhead['runner_seconds']:.2f}",
                "1.00x",
            ],
            [
                "Campaign (store + worker pool)",
                f"{overhead['scenarios']} scenarios",
                f"{overhead['campaign_seconds']:.2f}",
                f"{overhead['overhead_ratio']:.2f}x",
            ],
        ],
        title=(
            f"Campaign durability overhead ({CPUS} CPUs"
            f"{', SMOKE' if SMOKE else ''})"
        ),
    )
    emit("campaign_store", table)
    emit_json(
        "campaign_store",
        {
            "smoke": SMOKE,
            "cpu_count": CPUS,
            "records": append["records"],
            "appends_per_second": round(append["appends_per_second"], 1),
            "loads_per_second": round(
                append["records"] / append["load_seconds"], 1
            ),
            "scenarios": overhead["scenarios"],
            "runner_seconds": round(overhead["runner_seconds"], 3),
            "campaign_seconds": round(overhead["campaign_seconds"], 3),
            "campaign_overhead_ratio": round(overhead["overhead_ratio"], 2),
        },
    )
