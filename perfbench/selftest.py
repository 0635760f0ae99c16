"""Toy-size self-test of the benchmark.

Runs every workload at toy size, untraced and traced, and checks that
each run exits 0 and reports every metric ``BENCHMARK.json`` names, with
its unit, as a correct run.  It also checks that ``BENCHMARK.json``
agrees with the code (workload whys, per-layer metrics) and that a
directory holding only the benchmark, without the simulator sources,
makes the benchmark exit non-zero without a result.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _run(args, cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def _check_result(spec: dict, workload: str, trace: int) -> str | None:
    completed = _run(
        ["--workload", workload, "--seed", "7", "--seconds", "1",
         "--trace", str(trace), "--toy"],
        ROOT,
    )
    if completed.returncode != 0:
        return f"exit {completed.returncode}: {completed.stderr[-2000:]}"
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    if set(result) != RESULT_KEYS:
        return f"result keys {sorted(result)}"
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        return f"incorrect run: {result} {completed.stderr[-2000:]}"
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: value["unit"] for name, value in result["metrics"].items()}
    if got != wanted:
        return f"metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(wanted))}"
    if not all(isinstance(v["value"], (int, float)) for v in result["metrics"].values()):
        return "non-numeric metric value"
    if not trace and not all(v["value"] > 0 for v in result["metrics"].values()):
        return "an end-to-end metric reads 0"
    return None


def _check_spec(spec: dict) -> list[str]:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from run import END_TO_END, WORKLOAD_NAMES
    from spans import LAYER_METRICS
    from workloads import WORKLOADS

    problems = []
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    if list(whys) != list(WORKLOAD_NAMES):
        problems.append(f"workloads {list(whys)} != {list(WORKLOAD_NAMES)}")
    for name, workload in WORKLOADS.items():
        if whys.get(name) != workload.why:
            problems.append(f"why of {name} differs from workloads.py")
    layer = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    if layer != [entry[:3] for entry in LAYER_METRICS]:
        problems.append("per_layer differs from spans.LAYER_METRICS")
    if [(m["name"], m["unit"]) for m in spec["end_to_end"]] != list(END_TO_END):
        problems.append("end_to_end differs from run.END_TO_END")
    return problems


def _check_bare_directory() -> str | None:
    """Only BENCHMARK.json and perfbench/: the run must fail cleanly."""
    bare = ROOT / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        completed = _run(["--workload", "hot_read", "--seed", "0",
                          "--seconds", "1", "--trace", "0"], bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:
            pass
    if completed.returncode == 0 or completed.stdout.strip():
        return f"bare directory: exit {completed.returncode}, stdout {completed.stdout!r}"
    return None


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = _check_spec(spec)
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            problem = _check_result(spec, workload, trace)
            status = "ok" if problem is None else f"FAIL {problem}"
            print(f"{workload:<15} trace={trace}: {status}", flush=True)
            if problem is not None:
                problems.append(f"{workload} trace={trace}: {problem}")
    problem = _check_bare_directory()
    print(f"bare directory: {'ok' if problem is None else 'FAIL'}")
    if problem is not None:
        problems.append(problem)
    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)
    print("selftest " + ("ok" if not problems else f"failed ({len(problems)})"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
