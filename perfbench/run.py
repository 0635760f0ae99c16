"""Benchmark of the read-disturb simulator: end-to-end metrics and a layer ledger.

Usage (from the repository root)::

    python3 perfbench/run.py --workload hot_read --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table

One run repeats a workload's unit (set-up, then a timed phase) until
``--seconds`` of measuring have passed, and checks that every repetition
of an input produced the same simulated outputs and, at the default
seed, the digests pinned in ``perfbench/digests.json`` (a run prints
its digests on the ``digests:`` line, which is how they were pinned).
With ``--trace 0`` the last line reports the end-to-end metrics; with
``--trace 1`` the run alternates untraced and traced repetitions and
reports the per-layer metrics of ``spans.LAYER_METRICS`` plus the
tracing overhead.

End-to-end metrics, each the median over a run's repetitions:

- ``ops_per_s``: simulated host operations per second of the timed
  phase (campaign: trace operations of all scenarios over the campaign
  wall time);
- ``setup_s``: engine build plus precondition fill (campaign: a cold
  interpreter importing the campaign tier, plus grid, store and
  ``Campaign`` construction);
- ``peak_rss_mb``: peak resident set of the run plus its largest child.

Times are host seconds rescaled to one nominal host speed: a fixed
kernel that never calls the simulator is timed before and after every
repetition (``hostspeed.reference_seconds``; the campaign also times it
between scenarios), and each repetition's times are multiplied by
``NOMINAL_REFERENCE_S`` over the mean kernel time.  The raw
times are on the ``repetitions:`` line.  Failed repetitions (an
exception, a ``RuntimeWarning``, a timeout, or outputs that disagree)
are counted in ``failed`` out of ``attempted``; their ratio is the
failed fraction.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The simulator is
imported from ``src/`` beside this directory; without it the run exits
with code 2.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from pathlib import Path

import numpy

from hostspeed import NOMINAL_REFERENCE_S, reference_seconds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 0
#: the fewest rounds an untraced run makes, whatever ``--seconds`` says
#: (and at least two per input of the workload's pool).
MIN_ROUNDS = 3
MAX_ROUNDS = 60
#: wall-clock seconds after which a repetition counts as failed.
UNIT_TIMEOUT_S = 60
WORKLOAD_NAMES = ("hot_read", "write_churn", "aged_rdr", "suite_campaign")

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


class UnitTimeout(Exception):
    """A repetition ran past :data:`UNIT_TIMEOUT_S`."""


def _on_alarm(signum, frame):
    raise UnitTimeout(f"repetition exceeded {UNIT_TIMEOUT_S} s")


def _import_simulator() -> bool:
    """Put ``src/`` first on the path and import the simulator from it."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(src))
    import repro

    return Path(repro.__file__).resolve().is_relative_to(src.resolve())


def _peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _host_facts(seed: int) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "seed": seed,
    }


def _time_table(rows, wall: float) -> str:
    lines = [f"{'layer span':<32} {'self s':>10} {'share':>7}"]
    for name, seconds in rows:
        lines.append(f"{name:<32} {seconds:>10.4f} {seconds / wall:>7.1%}")
    return "\n".join(lines)


class Runner:
    """Repeats one workload's units and checks what each produced.

    Repetitions cycle through the workload's pool of inputs; every
    repetition of one input must produce the same digests, and at the
    default seed those pinned in ``digests.json``.
    """

    def __init__(self, workload, seed: int, toy: bool, workdir: Path):
        self.workload = workload
        self.workdir = workdir
        self.inputs = [
            workload.inputs(seed, index, toy) for index in range(workload.pool)
        ]
        pinned = json.loads((HERE / "digests.json").read_text())
        use_pins = seed == DEFAULT_SEED and not toy
        self.expected = dict(enumerate(pinned.get(workload.name, []))) if use_pins else {}
        self.attempted = 0
        self.failed = 0

    def repeat(self, index: int, recorder=None):
        """Run one unit on input *index*; returns it, or None when it failed."""
        # The engine and its FTL reference each other: free the previous
        # repetition's cycle now, not at a random point of this one.
        gc.collect()
        before = reference_seconds()
        signal.alarm(UNIT_TIMEOUT_S)
        try:
            unit = self.workload.unit(self.inputs[index], self.workdir, recorder)
        except Exception:  # noqa: BLE001 - a failed repetition is a result
            traceback.print_exc(file=sys.stderr)
            self.attempted += 1
            self.failed += 1
            return None
        finally:
            signal.alarm(0)
        unit.index = index
        samples = [before, *unit.reference_s, reference_seconds()]
        unit.scale = NOMINAL_REFERENCE_S / statistics.mean(samples)
        # Without a pin, the input's first repetition is the reference.
        expected = self.expected.setdefault(index, dict(unit.digests))
        wrong = sum(
            expected.get(key) != unit.digests.get(key)
            for key in set(expected) | set(unit.digests)
        )
        self.attempted += len(expected)
        self.failed += min(len(expected), wrong)
        if wrong:
            print(f"input {index}: output mismatch in {wrong} item(s)", file=sys.stderr)
        return unit


def scaled_median(values) -> float:
    """Median of ``(seconds, scale)`` pairs, each time rescaled to the
    nominal host speed."""
    return statistics.median(seconds * scale for seconds, scale in values)


def run(args) -> int:
    if not _import_simulator():
        print(
            f"perfbench: no simulator sources under {ROOT / 'src'}; nothing to measure",
            file=sys.stderr,
        )
        return 2
    from spans import LAYER_METRICS, SpanRecorder, ledger
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    host = _host_facts(args.seed)
    # One core for the run and every process it forks: the reference
    # kernel then times the core the measured work runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    signal.signal(signal.SIGALRM, _on_alarm)
    # A stray numeric warning is a failed repetition, never noise.
    warnings.simplefilter("error", RuntimeWarning)
    try:
        runner = Runner(workload, args.seed, args.toy, workdir)
        recorder = SpanRecorder(workdir / "spans") if args.trace else None
        plain, traced, ledgers = [], [], []
        # Traced rounds run every input twice (untraced and traced).
        min_rounds = (
            max(2, workload.pool) if args.trace else max(MIN_ROUNDS, 2 * workload.pool)
        )
        deadline = time.perf_counter() + args.seconds
        for rounds in range(1, MAX_ROUNDS + 1):
            index = (rounds - 1) % workload.pool
            unit = runner.repeat(index)
            if unit is not None:
                plain.append(unit)
            if recorder is not None:
                missing = recorder.install()
                if missing:
                    print(f"not traced (absent): {', '.join(missing)}", file=sys.stderr)
                try:
                    unit = runner.repeat(index, recorder)
                finally:
                    recorder.uninstall()
                if unit is not None:
                    traced.append(unit)
                    ledgers.append(
                        ledger(recorder.collect(), unit.window, unit.timed_s, unit.workers)
                    )
            if rounds >= min_rounds and time.perf_counter() >= deadline:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    metrics = {}
    units = {}
    if args.trace:
        for name, unit_name, _, _, _ in LAYER_METRICS:
            units[name] = unit_name
            values = [entry["metrics"].get(name, 0.0) for entry in ledgers]
            metrics[name] = statistics.median(values) if values else 0.0
        if traced and plain:
            metrics["trace.overhead_ratio"] = scaled_median(
                (unit.timed_s, unit.scale) for unit in traced
            ) / scaled_median((unit.timed_s, unit.scale) for unit in plain)
        if ledgers:
            last = ledgers[-1]
            rows = sorted(last["self_s"].items(), key=lambda item: -item[1])
            print(f"where the time went ({args.workload}, last traced repetition, "
                  f"timed wall {last['wall_s']:.3f} s x {traced[-1].workers} worker(s)):")
            print(_time_table(rows, last["wall_s"] * traced[-1].workers))
            print(f"attributed to named layers: {metrics['trace.attributed_frac']:.1%}")
    else:
        for name, unit_name in END_TO_END:
            units[name] = unit_name
        if plain:
            metrics["ops_per_s"] = statistics.median(
                unit.ops / (unit.timed_s * unit.scale) for unit in plain
            )
            metrics["setup_s"] = scaled_median(
                (unit.setup_s, unit.scale) for unit in plain
            )
        else:
            metrics["ops_per_s"] = metrics["setup_s"] = 0.0
        metrics["peak_rss_mb"] = _peak_rss_mb()
    for name in units:
        print(f"{name:<36} {metrics[name]:>14.6g} {units[name]}")
    attempted = max(1, runner.attempted)
    print(f"{'failed_fraction':<36} {runner.failed / attempted:>14.6g} ratio")
    print("host: " + json.dumps(
        dict(host, workload=args.workload, repetitions=len(plain),
             traced_repetitions=len(traced), toy=args.toy,
             shape=workload.describe(args.toy))
    ))
    print("digests: " + json.dumps(
        [runner.expected.get(index, {}) for index in range(workload.pool)]
    ))
    print("repetitions: " + json.dumps({
        "input": [unit.index for unit in plain],
        "ops": [unit.ops for unit in plain],
        "setup_s": [unit.setup_s for unit in plain],
        "timed_s": [unit.timed_s for unit in plain],
        "scale": [unit.scale for unit in plain],
    }))
    result = {
        "correct": runner.failed == 0 and bool(plain),
        "attempted": attempted,
        "failed": runner.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]} for name in units
        },
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Run every workload in its own process and print one summary table."""
    rows = []
    for name in WORKLOAD_NAMES:
        command = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ] + (["--toy"] if args.toy else [])
        completed = subprocess.run(command, capture_output=True, text=True)
        sys.stdout.write(completed.stdout)
        sys.stderr.write(completed.stderr)
        if completed.returncode != 0:
            return completed.returncode
        rows.append((name, json.loads(completed.stdout.strip().splitlines()[-1])))
    print()
    for name, result in rows:
        failed_fraction = result["failed"] / result["attempted"]
        cells = [f"{key}={value['value']:.6g} {value['unit']}"
                 for key, value in result["metrics"].items()]
        print(f"{name:<15} correct={result['correct']} "
              f"failed_fraction={failed_fraction:g} " + " ".join(cells))
    return 0 if all(result["correct"] for _, result in rows) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--toy", action="store_true", help="toy-size inputs (the self-test)"
    )
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be a non-negative integer")
    if args.workload == "all":
        return run_all(args)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
