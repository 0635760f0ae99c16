"""Vpass Tuning inside a full SSD (Section 3's deployment story).

Runs a synthetic enterprise workload through the page-mapping FTL with
7-day remap refresh, extracts the hottest block's read pressure, and
compares drive endurance with and without Vpass Tuning — a two-workload
miniature of the paper's Figure 8.

Run:  python examples/vpass_tuning_ssd.py
"""

from repro.analysis import format_table
from repro.controller import SimulationEngine, SsdConfig
from repro.controller.stats import hottest_block_reads_per_day
from repro.model import BaselinePolicy, FlashChannelModel, TunedVpassPolicy, endurance
from repro.workloads import get_workload


def drive_demo() -> None:
    """Controller-in-the-loop: every op goes through the FTL.

    ``SimulationEngine`` with its default counter backend and batched
    execution; see examples/engine_backends.py for the flash-chip
    backend with ECC and RDR in the loop.
    """
    print("== SSD controller run (web_0, quarter-day slice) ==")
    sim = SimulationEngine(
        SsdConfig(blocks=64, pages_per_block=64, overprovision=0.15),
        refresh_interval_days=7.0,
        read_reclaim_threshold=50_000,
    )
    trace = get_workload("web_0", seed=3).generate(0.25)
    stats = sim.run_trace(trace)
    print(f"  host ops: {stats.host_reads:,} reads / {stats.host_writes:,} writes")
    print(f"  write amplification: {stats.write_amplification:.2f}")
    print(f"  GC runs: {stats.gc_runs}, refreshed blocks: {stats.refreshed_blocks}")
    print(f"  peak block reads per interval: {stats.peak_block_reads_per_interval:,}")


def endurance_comparison() -> None:
    print("\n== Endurance, baseline vs. Vpass Tuning ==")
    model = FlashChannelModel(grid_points=700, leak_nodes=7)
    rows = []
    for name in ("web_0", "wdev_0"):
        trace = get_workload(name, seed=7).generate(1.0)
        pressure = hottest_block_reads_per_day(trace, pages_per_block=256)
        base = endurance(model, pressure, BaselinePolicy)
        tuned = endurance(model, pressure, lambda: TunedVpassPolicy())
        rows.append(
            [name, f"{pressure:.0f}", base, tuned, f"{100 * (tuned / base - 1):.1f}%"]
        )
    print(
        format_table(
            ["workload", "hot reads/day", "baseline P/E", "tuned P/E", "gain"], rows
        )
    )
    print("(read-hot workloads gain the most; the paper's suite averages 21%)")


if __name__ == "__main__":
    drive_demo()
    endurance_comparison()
