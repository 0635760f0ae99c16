"""``python -m repro.sweep``: run a scenario sweep from the command line.

Builds a :class:`~repro.workloads.grid.ScenarioGrid` from the flags,
fans it out with :class:`~repro.parallel.SweepRunner`, prints a summary
table, and optionally writes the full merged report as JSON.

The policy and flash-chip axes are *multi-valued*: pass several values
to ``--reclaim`` / ``--refresh-days`` / ``--pe-cycles`` / ``--vpass``
and the grid expands their cartesian product, so full ablation grids
run from the shell exactly like they do from Python (``--reclaim 0``
means "reclaim disabled" — the baseline row of the paper's ablations).

Examples::

    # Two suite workloads, 3 seeds each, across 4 worker processes
    python -m repro.sweep --workloads web_0 prxy_0 --seeds 3 --workers 4

    # A read-reclaim ablation grid: off / 50k / 100k thresholds
    python -m repro.sweep --workloads webmail --backend flash_chip \\
        --blocks 16 --pages-per-block 32 --overprovision 0.2 \\
        --reclaim 0 50000 100000

    # Full-fidelity physics sweep with an RBER trajectory, saved to JSON
    python -m repro.sweep --workloads webmail --backend flash_chip \\
        --blocks 16 --pages-per-block 32 --overprovision 0.2 \\
        --trajectory --json sweep.json

    # A resumable campaign: results persist as they land, a rerun of
    # the same command continues where the previous run stopped (and
    # runs again any scenario that failed)
    python -m repro.sweep --workloads web_0 prxy_0 --seeds 8 \\
        --campaign runs/night1 --resume --on-failure continue --timeout 600

    # One shard of a two-host campaign (host 2 runs --shard 1/2);
    # merge the stores afterwards with ResultStore.ingest
    python -m repro.sweep --workloads web_0 prxy_0 --seeds 8 \\
        --campaign runs/host1 --shard 0/2

    # Two shards sharing one store directory (a shared mount, or two
    # terminals); a shard whose host died is rerun the same way, and
    # --resume skips what it already stored
    python -m repro.sweep --workloads web_0 prxy_0 --seeds 8 \\
        --campaign runs/night1 --resume --shard 1/2 --progress 30

    # Live health of any campaign directory (running or not)
    python -m repro.sweep --status runs/night1

    # What can I sweep?
    python -m repro.sweep --list-workloads
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from pathlib import Path

from repro import obs
from repro.analysis.reporting import format_table
from repro.parallel import SweepRunner, parse_shard
from repro.parallel.campaign import FAILURE_POLICIES
from repro.units import VPASS_NOMINAL
from repro.workloads.grid import (
    BackendSpec,
    GeometrySpec,
    PolicySpec,
    ScenarioGrid,
)
from repro.workloads.suites import WORKLOAD_SUITE, suite_grid, workload_names


def _checked_by(parse):
    """argparse type that validates a spec string with *parse* at parse
    time (``--shard i/N``).

    A malformed spec dies here with an argparse usage error naming the
    flag (exit 2), instead of surfacing later as a raw exception from
    the grid or the campaign layer.
    """

    def check(text: str) -> str:
        try:
            parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return text

    return check


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.sweep",
        description="Sharded parallel scenario sweeps over the simulation engine.",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    parser.add_argument(
        "--workloads", nargs="+", default=["web_0"], metavar="NAME",
        help="suite workload names to sweep (see --list-workloads)",
    )
    parser.add_argument(
        "--list-workloads", action="store_true",
        help="print the workload suite and exit",
    )
    parser.add_argument("--days", type=float, default=1.0, help="trace duration per scenario")
    parser.add_argument("--seeds", type=int, default=1, help="replicas per grid cell")
    parser.add_argument("--root-seed", type=int, default=0, help="root of all derived seeds")
    parser.add_argument(
        "--workers", type=int, default=None,
        help="worker processes (default: one per CPU; 1 = serial in-process)",
    )
    parser.add_argument(
        "--backend", choices=("counter", "flash_chip"), default="counter",
        help="physics behind the FTL (counter = bookkeeping, flash_chip = Monte-Carlo cells)",
    )
    geometry = parser.add_argument_group("geometry")
    geometry.add_argument("--blocks", type=int, default=256)
    geometry.add_argument("--pages-per-block", type=int, default=256)
    geometry.add_argument("--overprovision", type=float, default=0.07)
    policy = parser.add_argument_group(
        "maintenance policy (multi-valued flags expand the ablation grid)"
    )
    policy.add_argument(
        "--refresh-days", type=float, nargs="+", default=[7.0], metavar="DAYS",
        help="remap-refresh interval(s); several values form a policy axis",
    )
    policy.add_argument(
        "--reclaim", type=int, nargs="+", default=None, metavar="READS",
        help="read-reclaim threshold(s) (reads/interval); 0 = disabled "
        "(the ablation baseline), omit entirely to disable",
    )
    policy.add_argument("--maintenance-days", type=float, default=1.0)
    physics = parser.add_argument_group(
        "flash-chip backend (multi-valued flags expand the backend axis)"
    )
    physics.add_argument("--bitlines", type=int, default=2048)
    physics.add_argument(
        "--pe-cycles", type=int, nargs="+", default=[0], metavar="CYCLES",
        help="initial wear level(s); several values form a backend axis",
    )
    physics.add_argument(
        "--vpass", type=float, nargs="+", default=[VPASS_NOMINAL], metavar="VOLTS",
        help="pass-through voltage(s); several values form a backend axis",
    )
    parser.add_argument(
        "--trajectory", action="store_true",
        help="record a per-maintenance-window trajectory (incl. worst-block "
        "RBER with the flash_chip backend)",
    )
    campaign = parser.add_argument_group(
        "campaigns (persistent, resumable, fault-tolerant sweeps)"
    )
    campaign.add_argument(
        "--campaign", type=Path, default=None, metavar="DIR",
        help="run as a campaign over a persistent result store at DIR: "
        "results land durably as scenarios finish, and long-lived worker "
        "processes run them one at a time",
    )
    campaign.add_argument(
        "--resume", action="store_true",
        help="continue an existing campaign store (skip stored scenarios); "
        "without this flag an already-initialized store is an error",
    )
    campaign.add_argument(
        "--on-failure", choices=FAILURE_POLICIES, default="fail_fast",
        help="fail_fast aborts at the first failed scenario; continue "
        "ledgers it and runs the rest.  Nothing is retried within a run: "
        "--resume runs a failed scenario again",
    )
    campaign.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-scenario wall-clock timeout; a hung worker is killed and "
        "the scenario counts as failed",
    )
    campaign.add_argument(
        "--shard", default=None, metavar="i/N",
        type=_checked_by(parse_shard),
        help="run only the scenarios hashing to shard i of N (0-based); "
        "shards share one store directory (pass --resume) or merge "
        "separate stores with ResultStore.ingest",
    )
    campaign.add_argument(
        "--progress", type=float, default=None, metavar="SECONDS",
        help="print a live progress line at least every N seconds while "
        "the campaign runs",
    )
    campaign.add_argument(
        "--status", type=Path, default=None, metavar="DIR",
        help="print live health of the campaign store at DIR (progress, "
        "failure summary, streaming aggregate) and exit; derived from "
        "store state alone",
    )
    telemetry = parser.add_argument_group(
        "telemetry (repro.obs; strictly out-of-band — results are "
        "bit-identical with tracing on)"
    )
    telemetry.add_argument(
        "--trace", nargs="?", const="auto", default=None, metavar="DIR",
        help="emit span traces as JSONL files under DIR (flash-chip read "
        "flushes with their phases); a campaign always traces into "
        "<campaign-dir>/trace, where --status reads them, so with "
        "--campaign pass a bare --trace",
    )
    parser.add_argument(
        "--serial-check", action="store_true",
        help="also run workers=1 in-process and assert the merged reports "
        "are identical (for a campaign: every stored result must match "
        "its serially-computed twin bit-for-bit)",
    )
    parser.add_argument(
        "--json", type=Path, nargs="?", const=Path("-"), default=None,
        metavar="PATH",
        help="write the full merged report as JSON ('-' or a bare --json "
        "= stdout); with --status, emit the status document, plus the "
        "span digest of DIR/trace, as JSON instead of the human-readable "
        "report",
    )
    return parser


def build_policies(args: argparse.Namespace) -> tuple[PolicySpec, ...]:
    """Expand the policy flags into an axis: refresh x reclaim.

    ``--reclaim 0`` is the "reclaim disabled" baseline cell, so one
    command line sweeps the paper's off/threshold ablation; duplicate
    cells (e.g. ``--reclaim 0 0``) fail the grid's distinct-label check.
    """
    reclaims = [None] if args.reclaim is None else [
        None if threshold == 0 else threshold for threshold in args.reclaim
    ]
    return tuple(
        PolicySpec(
            name="reclaim" if threshold is not None else "baseline",
            refresh_interval_days=refresh_days,
            read_reclaim_threshold=threshold,
            maintenance_period_days=args.maintenance_days,
        )
        for refresh_days in args.refresh_days
        for threshold in reclaims
    )


def build_backends(args: argparse.Namespace) -> tuple[BackendSpec, ...]:
    """Expand the backend flags into an axis: pe-cycles x vpass.

    The counter backend ignores every flash-chip knob (its label could
    not distinguish the cells), so it only accepts single-valued
    defaults.
    """
    if args.backend == "counter" and (len(args.pe_cycles), len(args.vpass)) != (1, 1):
        raise SystemExit(
            "the counter backend ignores --pe-cycles/--vpass; sweep them "
            "with --backend flash_chip"
        )
    return tuple(
        BackendSpec(
            kind=args.backend,
            bitlines_per_block=args.bitlines,
            initial_pe_cycles=pe_cycles,
            vpass=vpass,
        )
        for pe_cycles in args.pe_cycles
        for vpass in args.vpass
    )


def build_grid(args: argparse.Namespace) -> ScenarioGrid:
    """Translate parsed flags into a scenario grid (via the suite adapter).

    Multi-valued policy/backend flags expand into full grid axes, so
    ablation grids (reclaim on/off x thresholds, wear levels, Vpass
    relaxation) run from the shell like they do from Python.  A
    geometry the FTL cannot run is rejected by the runner's and the
    campaign's front door (:func:`repro.parallel.runner.check_grid`),
    before any worker starts or any store is bound.
    """
    geometry = GeometrySpec(
        blocks=args.blocks,
        pages_per_block=args.pages_per_block,
        overprovision=args.overprovision,
    )
    try:
        return suite_grid(
            args.workloads,
            geometries=(geometry,),
            policies=build_policies(args),
            backends=build_backends(args),
            seeds=args.seeds,
            duration_days=args.days,
            root_seed=args.root_seed,
            record_trajectory=args.trajectory,
        )
    except KeyError as exc:
        # suite_grid already names exactly the unknown workloads.
        raise SystemExit(exc.args[0]) from None
    except ValueError as exc:
        # e.g. duplicate axis labels from repeated flag values.
        raise SystemExit(str(exc)) from None


def summary_table(report) -> str:
    """Human-readable digest of a merged report."""
    rows = []
    for result in report:
        stats = result.stats
        backend = result.backend
        rows.append(
            [
                result.scenario_id,
                f"{stats['host_reads']:,}",
                f"{stats['host_writes']:,}",
                f"{stats['write_amplification']:.2f}",
                f"{stats['peak_block_reads_per_interval']:,}",
                backend.get("uncorrectable_pages", "-"),
                backend.get("data_loss_events", "-"),
            ]
        )
    return format_table(
        ["scenario", "reads", "writes", "WA", "peak reads/intvl",
         "uncorrectable", "data loss"],
        rows,
        title=f"Sweep report ({len(report)} scenarios, workers={report.workers})",
    )


def serial_check(grid, report) -> None:
    """Recompute the report's scenarios serially and demand bit-identity.

    For a partial report (a shard, or failures under ``continue``) the
    comparison covers the scenarios the report holds;
    for a complete campaign or sweep that is the whole grid.
    """
    covered = set(report.scenario_ids)
    scenarios = [s for s in grid if s.scenario_id in covered]
    serial = SweepRunner(workers=1).run(scenarios)
    if serial.results != report.results:
        raise SystemExit("report diverged from serial execution")
    print(
        f"serial check: {len(scenarios)} scenario(s) identical to the "
        f"workers=1 in-process reference"
    )


def _progress_line(snapshot: dict, elapsed: float | None = None) -> str:
    """One live progress line from a streaming-aggregate snapshot."""
    rber = snapshot.get("worst_block_rber") or {}
    rber_text = (
        f", worst-RBER p99 {rber['p99']:.2e}" if rber.get("p99") is not None
        else ""
    )
    stamp = f" +{elapsed:.1f}s" if elapsed is not None else ""
    return (
        f"progress{stamp}: {snapshot['completed']} completed, "
        f"{snapshot['failed_attempts']} failed attempt(s), "
        f"{snapshot['uncorrectable_pages']} uncorrectable page(s)"
        f"{rber_text}"
    )


class ProgressWriter:
    """Serialized writer for ``--progress`` lines.

    ``--progress`` output used to go through bare ``print`` calls,
    which interleave with worker stdout mid-line under load (stdout is
    block-buffered when piped).  Every line now goes through one
    lock-held ``write()`` of a complete line followed by a flush, and
    carries a monotonic ``+<seconds>s`` field measured from writer
    construction — wall-clock steps cannot reorder or alias the stamps.
    """

    def __init__(self, stream=None):
        self._stream = stream if stream is not None else sys.stdout
        self._start = time.monotonic()
        self._lock = threading.Lock()

    def emit(self, snapshot: dict) -> None:
        line = _progress_line(
            snapshot, elapsed=time.monotonic() - self._start
        )
        with self._lock:
            self._stream.write(line + "\n")
            self._stream.flush()


def render_status(status: dict) -> str:
    """Human-readable campaign health (see ``--status``)."""
    lines = []
    total = status["scenario_count"]
    done = status["completed"]
    pct = f" ({100.0 * done / total:.1f}%)" if total else ""
    lines.append(f"campaign store {status['root']}")
    lines.append(f"  progress: {done}/{total} scenario(s){pct}")
    lines.append(f"  store: {status['store']['live_files']} live file(s)")
    if status["corrupt_records"]:
        lines.append(
            f"  corrupt records skipped: {status['corrupt_records']} "
            f"(affected scenarios re-run on resume)"
        )
    failures = status["failures"]
    if failures["total"]:
        kinds = ", ".join(
            f"{kind}={count}" for kind, count in sorted(failures["kinds"].items())
        )
        lines.append(f"  failed attempts: {failures['total']} ({kinds})")
    else:
        lines.append("  failed attempts: 0")
    aggregate = status["aggregate"]
    rber = aggregate.get("worst_block_rber")
    if rber:
        lines.append(
            f"  worst-block RBER: p50 {rber['p50']:.3e}  "
            f"p99 {rber['p99']:.3e}  max {rber['max']:.3e}  (n={rber['n']})"
        )
    lines.append(
        f"  uncorrectable pages: {aggregate['uncorrectable_pages']}, "
        f"data-loss events: {aggregate['data_loss_events']}"
    )
    return "\n".join(lines)


#: schema identity of the ``--status --json`` document.
STATUS_FORMAT = "repro-campaign-status"
STATUS_VERSION = 4


def run_status_cli(args: argparse.Namespace) -> int:
    from repro.parallel import campaign_status

    try:
        status = campaign_status(args.status)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    if args.json is not None:
        # One stable machine-readable document (the dashboard surface):
        # schema-versioned, sorted keys, everything campaign_status
        # derives from the durable store and trace artifacts.
        doc = json.dumps(
            {"format": STATUS_FORMAT, "version": STATUS_VERSION, **status},
            indent=2,
            sort_keys=True,
        )
        if str(args.json) == "-":
            print(doc)
        else:
            args.json.write_text(doc + "\n")
            print(f"status written to {args.json}")
        return 0
    print(render_status(status))
    return 0


def _resolve_trace_dir(args: argparse.Namespace) -> Path | None:
    """Where ``--trace`` writes, or ``None`` when tracing is off.

    A campaign traces into ``<campaign-dir>/trace``: the one place every
    shard sharing a store can agree on, and the directory
    ``--status --json`` digests.  So with ``--campaign DIR``, ``--trace``
    is bare or names that directory; a plain sweep needs ``--trace DIR``.
    """
    if args.trace is None:
        return None
    if args.campaign is None:
        if args.trace == "auto":
            raise SystemExit(
                "a bare --trace needs --campaign DIR to anchor the trace "
                "directory; pass --trace DIR explicitly for a plain sweep"
            )
        return Path(args.trace)
    trace_dir = Path(args.campaign) / "trace"
    if args.trace != "auto" and Path(args.trace).resolve() != trace_dir.resolve():
        raise SystemExit(
            f"a campaign traces into {trace_dir}, where --status reads its "
            f"spans; pass a bare --trace instead of --trace {args.trace}"
        )
    return trace_dir


def run_campaign_cli(args: argparse.Namespace, grid: ScenarioGrid):
    """The ``--campaign`` execution path: resumable and durable."""
    from repro.parallel import Campaign, ScenarioFailure
    from repro.parallel.store import ResultStore

    if ResultStore.is_initialized(args.campaign) and not args.resume:
        raise SystemExit(
            f"campaign store {args.campaign} is already initialized; pass "
            f"--resume to continue it, or choose a fresh directory"
        )
    trace_dir = _resolve_trace_dir(args)
    try:
        campaign = Campaign(
            grid,
            str(args.campaign),
            workers=args.workers,
            on_failure=args.on_failure,
            timeout=args.timeout,
            shard=args.shard,
            progress_interval=args.progress,
        )
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    if trace_dir is not None:
        # The campaign's writer name is the deterministic trace label
        # (shards sharing a directory each get their own file).
        obs.configure(trace_dir, label=campaign.writer)
    scope = f" (shard {args.shard})" if args.shard else ""
    print(
        f"campaign over {len(grid)} scenario(s){scope}, up to "
        f"{campaign.workers} in flight, store {args.campaign}...",
        flush=True,
    )
    progress = None
    if args.progress is not None:
        progress = ProgressWriter().emit
    try:
        report = campaign.run(progress=progress)
    except ScenarioFailure as exc:
        raise SystemExit(f"campaign aborted (fail_fast): {exc}") from None
    except ValueError as exc:
        # e.g. a grid-fingerprint mismatch against the stored manifest.
        raise SystemExit(str(exc)) from None
    if campaign.resumed:
        print(f"resumed: {campaign.resumed} scenario(s) already stored")
    if campaign.ledger:
        print(
            f"failed this run: {len(campaign.ledger)} scenario(s); "
            f"--resume runs them again"
        )
    for failure in campaign.ledger:
        print(f"  FAILED {failure['scenario_id']} ({failure['kind']})")
    return report, campaign


def run_sweep_cli(args: argparse.Namespace, grid: ScenarioGrid):
    """The plain-sweep execution path: every scenario, no store."""
    try:
        runner = SweepRunner(workers=args.workers)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    trace_dir = _resolve_trace_dir(args)
    if trace_dir is not None:
        obs.configure(trace_dir, label="sweep")
    print(
        f"sweeping {len(grid)} scenarios across {runner.workers} "
        f"worker{'s' if runner.workers != 1 else ''}...",
        flush=True,
    )
    try:
        return runner.run(grid)
    except ValueError as exc:
        # The front door: a geometry the FTL cannot run.
        raise SystemExit(str(exc)) from None


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_workloads:
        for name in workload_names():
            print(f"{name:12s} {WORKLOAD_SUITE[name].description}")
        return 0
    if args.status is not None:
        return run_status_cli(args)
    if args.resume and args.campaign is None:
        raise SystemExit("--resume needs --campaign DIR")
    if args.shard is not None and args.campaign is None:
        raise SystemExit("--shard needs --campaign DIR (shards merge stores)")
    if args.progress is not None and args.progress <= 0:
        raise SystemExit("--progress must be positive seconds")
    grid = build_grid(args)
    try:
        if args.campaign is not None:
            report, _ = run_campaign_cli(args, grid)
        else:
            report = run_sweep_cli(args, grid)
        if args.serial_check:
            serial_check(grid, report)
    finally:
        if args.trace is not None:
            # Close the trace file this run opened, on every exit path.
            obs.reset()
    print(summary_table(report))
    if args.json is not None:
        if str(args.json) == "-":
            print(report.to_json())
        else:
            args.json.write_text(report.to_json() + "\n")
            print(f"full report written to {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
