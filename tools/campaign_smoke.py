"""CI smoke: campaigns survive worker crashes, parent SIGKILLs, and a
dead shard.

Drives the real ``python -m repro.sweep`` CLI end to end through two
recovery stories, deterministically:

**Kill-and-resume** (``--campaign`` + ``--resume``):

1. Launch a small campaign under ``--on-failure continue`` with two
   faults armed through the :mod:`repro.testing.faults` env hooks:
   scenario *k* hard-crashes (the campaign ledgers a ``worker-death``
   and runs the rest), and the last scenario hangs forever (so the
   parent is provably mid-campaign).
2. Poll the result store until every scenario but the crashed and the
   hung one has landed durably and the ledger holds the
   ``worker-death``, then SIGKILL the campaign's whole process group —
   the unceremonious end of a host.
3. Re-run the same CLI command with ``--resume`` and no faults armed,
   plus ``--serial-check``: the resumed campaign must complete exactly
   the crashed and the hung scenario, and the merged report must be
   bit-identical to the uninterrupted in-process serial reference.

**Two shards, one store** (``--shard i/N`` over a shared directory):

1. Start ``--shard 0/2`` and ``--shard 1/2`` at the same time over one
   fresh store directory, both traced.  Shard 1 has a hang fault armed
   on one of its own scenarios (chosen with ``shard_of``), so its host
   is provably mid-shard; each shard owns at least two scenarios.
2. Once every other scenario has landed and shard 0 has exited
   cleanly, SIGKILL shard 1's whole process group — a dead host.
3. Rerun the dead shard with ``--shard 1/2 --resume --serial-check
   --trace`` and no faults: it runs only the hung scenario, and its
   serial check covers everything the store holds, shard 0's results
   included.

The shard story doubles as the telemetry acceptance check: the merged
trace (the SIGKILL'd files included) must pass
``tools/trace_validate.py`` with three ``campaign.run`` spans (shard 0,
the killed shard 1, its rerun), exactly one ``campaign.attempt`` span
per attempt, and ``scenario.run`` and ``store.append`` spans; and
``--status --json`` must agree with the store's own counts exactly,
its ``trace`` digest with the trace directory's file count and with
the one ``campaign.attempt`` span per attempt.

Exit code 0 means both stories held, including the crash in the
failure ledger and one record file per shard in the shared store.

Run from the repo root: ``PYTHONPATH=src python tools/campaign_smoke.py``.
"""

import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.parallel import shard_of  # noqa: E402
from repro.parallel.store import ResultStore  # noqa: E402
from repro.testing.faults import ENV_FAULTS  # noqa: E402
from repro.workloads.grid import GeometrySpec, ScenarioGrid  # noqa: E402
from repro.workloads.suites import WORKLOAD_SUITE  # noqa: E402

SEEDS = 3
#: seeds of the shard story: 5 gives each of the two shards >= 2 scenarios.
SHARD_SEEDS = 5


def argv(seeds: int) -> list[str]:
    return [
        sys.executable, "-m", "repro.sweep",
        "--workloads", "web_0",
        "--seeds", str(seeds),
        "--days", "0.02",
        "--blocks", "64", "--pages-per-block", "64",
        "--on-failure", "continue",
        "--workers", "2",
        "--resume",
    ]


ARGV = argv(SEEDS)


def scenario_ids(seeds: int = SEEDS) -> list[str]:
    grid = ScenarioGrid(
        workloads=(WORKLOAD_SUITE["web_0"],),
        geometries=(GeometrySpec(blocks=64, pages_per_block=64),),
        seeds=seeds,
        duration_days=0.02,
    )
    return [s.scenario_id for s in grid]


def kill_resume_smoke() -> int:
    ids = scenario_ids()
    crash_target, hang_target = ids[1], ids[-1]
    with tempfile.TemporaryDirectory() as tmp:
        store = Path(tmp) / "store"
        env = dict(
            os.environ,
            **{ENV_FAULTS: f"crash:*:{crash_target};hang:*:{hang_target}"},
        )
        print(f"[1/3] campaign with crash@{crash_target} hang@{hang_target}")
        process = subprocess.Popen(
            ARGV + ["--campaign", str(store)],
            env=env,
            start_new_session=True,
        )
        try:
            deadline = time.monotonic() + 300
            expected = set(ids) - {crash_target, hang_target}
            while (
                ResultStore(store).scenario_ids() != expected
                or not ResultStore(store).failures()
            ):
                if process.poll() is not None:
                    print("FAIL: campaign exited before the kill")
                    return 1
                if time.monotonic() > deadline:
                    print("FAIL: campaign made no progress before the kill")
                    return 1
                time.sleep(0.2)
        finally:
            try:
                os.killpg(process.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            process.wait()
        print(f"[2/3] SIGKILL'd campaign with {len(expected)}/{len(ids)} stored")
        ledger = [
            (entry["scenario_id"], entry["kind"])
            for entry in ResultStore(store).failures()
        ]
        if ledger != [(crash_target, "worker-death")]:
            print(f"FAIL: expected only the injected crash in the ledger: {ledger}")
            return 1
        print("[3/3] resume without faults, with --serial-check")
        resumed = subprocess.run(ARGV + ["--campaign", str(store), "--serial-check"])
        if resumed.returncode != 0:
            print("FAIL: resumed campaign (or its serial check) failed")
            return 1
        stored = ResultStore(store).scenario_ids()
        if stored != set(ids):
            print(f"FAIL: resumed store incomplete: {sorted(stored)}")
            return 1
    print("campaign kill-and-resume smoke: OK")
    return 0


def shard_smoke() -> int:
    ids = scenario_ids(SHARD_SEEDS)
    owned = [[i for i in ids if shard_of(i, 2) == k] for k in (0, 1)]
    if min(len(mine) for mine in owned) < 2:
        print(f"FAIL: a shard owns fewer than 2 scenarios: {owned}")
        return 1
    hang_target = owned[1][0]
    with tempfile.TemporaryDirectory() as tmp:
        store = Path(tmp) / "store"
        shard_argv = argv(SHARD_SEEDS) + ["--campaign", str(store), "--trace"]
        print(f"[1/4] shards 0/2 and 1/2 over one store (hang@{hang_target})")
        shard0 = subprocess.Popen(
            shard_argv + ["--shard", "0/2"], start_new_session=True
        )
        shard1 = subprocess.Popen(
            shard_argv + ["--shard", "1/2"],
            env=dict(os.environ, **{ENV_FAULTS: f"hang:*:{hang_target}"}),
            start_new_session=True,
        )
        try:
            deadline = time.monotonic() + 300
            expected = set(ids) - {hang_target}
            while (
                ResultStore(store).scenario_ids() != expected
                or shard0.poll() is None
            ):
                if shard1.poll() is not None:
                    print("FAIL: shard 1 exited before the kill")
                    return 1
                if shard0.poll() not in (None, 0):
                    print(f"FAIL: shard 0 exited {shard0.returncode}")
                    return 1
                if time.monotonic() > deadline:
                    print("FAIL: the shards made no progress before the kill")
                    return 1
                time.sleep(0.2)
        finally:
            for process in (shard0, shard1):
                try:
                    os.killpg(process.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                process.wait()
        if shard0.returncode != 0:
            print(f"FAIL: shard 0 exited {shard0.returncode}")
            return 1
        print(f"[2/4] SIGKILL'd shard 1 with {len(expected)}/{len(ids)} stored")
        print("[3/4] rerun shard 1/2 without faults, with --serial-check")
        rerun = subprocess.run(
            shard_argv + ["--shard", "1/2", "--serial-check"]
        )
        if rerun.returncode != 0:
            print("FAIL: rerun shard (or its serial check) failed")
            return 1
        stored = ResultStore(store).scenario_ids()
        if stored != set(ids):
            print(f"FAIL: shared store incomplete: {sorted(stored)}")
            return 1
        files = sorted(p.name for p in (store / "records").glob("*.jsonl"))
        if files != ["shard0of2.jsonl", "shard1of2.jsonl"]:
            print(f"FAIL: expected one record file per shard, got {files}")
            return 1
        print("[4/4] the rerun shard completed the grid and --serial-check passed")
        if trace_checks(store, ids) != 0:
            return 1
    print("two-shard smoke: OK")
    return 0


def trace_checks(store: Path, ids: list[str]) -> int:
    """Telemetry acceptance over the finished two-shard store.

    Validates the merged trace of both shards and the rerun
    structurally, counts one attempt span per attempt, cross-checks
    ``--status --json`` against the store, and checks the document's
    ``trace`` digest against the trace directory and the attempt count.
    """
    import json
    from collections import Counter

    from repro.obs.tracing import merge_spans, trace_file_paths

    # Every scenario ran once, and the hung one once more in the rerun.
    attempts = len(ids) + 1
    print("[5/7] validate the shards' merged trace")
    validator = subprocess.run(
        [sys.executable, str(Path(__file__).resolve().parent / "trace_validate.py"),
         str(store / "trace"),
         "--expect", "campaign.run:3",
         "--expect", f"campaign.attempt:{attempts}",
         "--expect", "scenario.run",
         "--expect", "store.append"],
    )
    if validator.returncode != 0:
        print("FAIL: trace validation failed")
        return 1
    names = Counter(span["name"] for span in merge_spans(store / "trace"))
    if (names["campaign.run"], names["campaign.attempt"]) != (3, attempts):
        print(
            f"FAIL: {names['campaign.run']} campaign.run and "
            f"{names['campaign.attempt']} campaign.attempt spans, expected "
            f"3 and {attempts}"
        )
        return 1
    print("[6/7] --status --json agrees with the store")
    status = subprocess.run(
        [sys.executable, "-m", "repro.sweep", "--status", str(store), "--json"],
        capture_output=True, text=True,
    )
    if status.returncode != 0:
        print(f"FAIL: --status --json exited {status.returncode}")
        return 1
    doc = json.loads(status.stdout)
    stored = ResultStore(store).scenario_ids()
    if doc["completed"] != len(stored) or doc["completed"] != len(ids):
        print(f"FAIL: status completed={doc['completed']} != store {len(stored)}")
        return 1
    if doc["scenario_count"] != len(ids):
        print(f"FAIL: status scenario_count={doc['scenario_count']}")
        return 1
    print("[7/7] the status document's trace digest agrees with the trace")
    trace = doc["trace"]
    span_files = len(trace_file_paths(store / "trace"))
    if trace["files"] != span_files:
        print(
            f"FAIL: status trace.files={trace['files']} != {span_files} "
            f"files in the trace directory"
        )
        return 1
    digested = trace["spans"].get("campaign.attempt", {}).get("count")
    if digested != attempts:
        print(
            f"FAIL: status trace digests {digested} campaign.attempt "
            f"spans, expected {attempts}"
        )
        return 1
    return 0


def main() -> int:
    code = kill_resume_smoke()
    if code != 0:
        return code
    return shard_smoke()


if __name__ == "__main__":
    sys.exit(main())
