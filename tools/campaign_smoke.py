"""CI smoke: campaigns survive worker crashes, parent SIGKILLs, and
elastic-worker deaths.

Drives the real ``python -m repro.sweep`` CLI end to end through two
recovery stories, deterministically:

**Kill-and-resume** (``--campaign`` + ``--resume``):

1. Launch a small campaign with two faults armed through the
   :mod:`repro.testing.faults` env hooks: scenario *k* hard-crashes its
   first attempt (``--on-failure retry:2`` must retry it), and the last
   scenario hangs forever (so the parent is provably mid-campaign).
2. Poll the result store until every non-hung scenario has landed
   durably, then SIGKILL the campaign's whole process group — the
   unceremonious end of a host.
3. Re-run the same CLI command with ``--resume`` and no faults armed,
   plus ``--serial-check``: the resumed campaign must complete only the
   missing scenario and the merged report must be bit-identical to the
   uninterrupted in-process serial reference.

**Elastic reclaim** (``--elastic``, no shard arithmetic):

1. Start elastic worker A with a hang fault on the first scenario and a
   short lease TTL: A claims batch ``b00000`` and is pinned mid-lease,
   heartbeating but never finishing.
2. Start elastic worker B (no faults) over the *same* store with
   ``--serial-check``: B completes every other batch, then spins on
   ``b00000`` — held live by A's heartbeats.
3. SIGKILL A's process group mid-lease.  B reclaims the batch once the
   heartbeat lapses (with a higher fencing token), finishes the grid,
   and its serial check must pass bit-for-bit.

The elastic story runs with ``--trace`` armed, so it doubles as the
telemetry acceptance check: the merged trace (including A's torn,
SIGKILL'd files) must pass ``tools/trace_validate.py`` with spans for
every scenario attempt, lease claim/renew, and store append; the
reclaim must be visible as a ``lease.claim`` span with ``takeover`` and
a fencing token >= 2; ``--status --json`` must agree with the store's
own counts exactly; and ``python -m repro.obs.export`` over the same
store must agree with that status document, the store, and the trace
directory.

Exit code 0 means both stories held, including the crash attempt in
the failure ledger and the fenced re-claim in the lease file.

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

from repro.parallel.store import ResultStore  # noqa: E402
from repro.testing.faults import ENV_FAULTS, ENV_STATE  # noqa: E402
from repro.workloads.grid import GeometrySpec, ScenarioGrid  # noqa: E402
from repro.workloads.suites import WORKLOAD_SUITE  # noqa: E402

SEEDS = 3
ARGV = [
    sys.executable, "-m", "repro.sweep",
    "--workloads", "web_0",
    "--seeds", str(SEEDS),
    "--days", "0.02",
    "--blocks", "64", "--pages-per-block", "64",
    "--on-failure", "retry:2",
    "--workers", "2",
    "--resume",
]


def scenario_ids() -> list[str]:
    grid = ScenarioGrid(
        workloads=(WORKLOAD_SUITE["web_0"],),
        geometries=(GeometrySpec(blocks=64, pages_per_block=64),),
        seeds=SEEDS,
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
            **{
                ENV_FAULTS: f"crash:1:{crash_target};hang:*:{hang_target}",
                ENV_STATE: str(Path(tmp) / "faults"),
            },
        )
        print(f"[1/3] campaign with crash@{crash_target} hang@{hang_target}")
        process = subprocess.Popen(
            ARGV + ["--campaign", str(store)],
            env=env,
            start_new_session=True,
        )
        try:
            deadline = time.monotonic() + 300
            expected = set(ids) - {hang_target}
            while ResultStore(store).scenario_ids() != expected:
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
        ledger = ResultStore(store).failures()
        if not any(entry["kind"] == "worker-death" for entry in ledger):
            print(f"FAIL: injected crash not in the failure ledger: {ledger}")
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


def elastic_smoke() -> int:
    from repro.parallel.leases import LeaseLedger

    ids = sorted(scenario_ids())
    hang_target = ids[0]  # sorted ids, batch size 1 -> batch b00000
    lease_ttl = "2.0"
    with tempfile.TemporaryDirectory() as tmp:
        store = Path(tmp) / "store"
        elastic_argv = [
            sys.executable, "-m", "repro.sweep",
            "--workloads", "web_0",
            "--seeds", str(SEEDS),
            "--days", "0.02",
            "--blocks", "64", "--pages-per-block", "64",
            "--campaign", str(store),
            "--elastic", "--lease-batch", "1", "--lease-ttl", lease_ttl,
            "--trace",
        ]
        env_a = dict(os.environ, **{ENV_FAULTS: f"hang:*:{hang_target}"})
        print(f"[1/4] elastic worker A pinned mid-lease (hang@{hang_target})")
        worker_a = subprocess.Popen(
            elastic_argv + ["--worker-name", "wA", "--workers", "1"],
            env=env_a,
            start_new_session=True,
        )
        worker_b = None
        try:
            deadline = time.monotonic() + 300
            claims = store / "leases" / "b00000.jsonl"
            while not claims.exists():
                if worker_a.poll() is not None:
                    print("FAIL: worker A exited before claiming its lease")
                    return 1
                if time.monotonic() > deadline:
                    print("FAIL: worker A never claimed a lease")
                    return 1
                time.sleep(0.1)
            print("[2/4] elastic worker B joins the same store")
            worker_b = subprocess.Popen(
                elastic_argv + ["--worker-name", "wB", "--workers", "2",
                                "--serial-check"],
                start_new_session=True,
            )
            # B drains every batch except A's; A heartbeats but never
            # finishes (its only scenario hangs).
            others = set(ids) - {hang_target}
            while ResultStore(store).scenario_ids() != others:
                for name, worker in (("A", worker_a), ("B", worker_b)):
                    if worker.poll() is not None:
                        print(f"FAIL: worker {name} exited prematurely")
                        return 1
                if time.monotonic() > deadline:
                    print("FAIL: worker B made no progress")
                    return 1
                time.sleep(0.2)
        finally:
            try:
                os.killpg(worker_a.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            worker_a.wait()
        print("[3/4] SIGKILL'd worker A mid-lease; B must reclaim and finish")
        if worker_b.wait(timeout=300) != 0:
            print("FAIL: survivor worker B (or its serial check) failed")
            return 1
        stored = ResultStore(store).scenario_ids()
        if stored != set(ids):
            print(f"FAIL: elastic store incomplete: {sorted(stored)}")
            return 1
        state = LeaseLedger(store, owner="smoke-check").state("b00000")
        if not state.done or state.token < 2 or state.owner != "wB":
            print(f"FAIL: b00000 was not fenced and reclaimed by B: {state}")
            return 1
        print(
            f"[4/4] B reclaimed b00000 with fencing token {state.token} "
            f"and --serial-check passed"
        )
        if trace_checks(store, ids) != 0:
            return 1
    print("elastic reclaim smoke: OK")
    return 0


def trace_checks(store: Path, ids: list[str]) -> int:
    """Telemetry acceptance over the finished elastic store.

    Validates the elastic run's merged trace structurally, asserts the
    fenced reclaim is visible as a span, cross-checks
    ``--status --json`` against the store, and checks the exported
    ``metrics.json`` / ``metrics.prom`` against both.
    """
    import json

    from repro.obs.tracing import merge_spans, trace_file_paths

    print("[5/7] validate the elastic run's merged trace")
    validator = subprocess.run(
        [sys.executable, str(Path(__file__).resolve().parent / "trace_validate.py"),
         str(store / "trace"),
         "--expect", "campaign.run:2",
         "--expect", f"campaign.attempt:{len(ids)}",
         "--expect", "scenario.run",
         "--expect", "lease.claim",
         "--expect", "lease.renew",
         "--expect", "store.append"],
    )
    if validator.returncode != 0:
        print("FAIL: trace validation failed")
        return 1
    spans = merge_spans(store / "trace")
    reclaims = [
        span for span in spans
        if span["name"] == "lease.claim"
        and span["attrs"].get("batch") == "b00000"
        and span["attrs"].get("takeover")
        and span["attrs"].get("token", 0) >= 2
    ]
    if not reclaims:
        print("FAIL: no takeover lease.claim span for b00000 in the trace")
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
    print("[7/7] python -m repro.obs.export agrees with status, store, trace")
    out = store.parent / "obs-export"
    export = subprocess.run(
        [sys.executable, "-m", "repro.obs.export", str(store), "--out", str(out)]
    )
    if export.returncode != 0:
        print(f"FAIL: repro.obs.export exited {export.returncode}")
        return 1
    snapshot = json.loads((out / "metrics.json").read_text())
    for key in ("completed", "scenario_count", "zombie_writes", "corrupt_records"):
        if snapshot["status"][key] != doc[key]:
            print(
                f"FAIL: export status {key}={snapshot['status'][key]} "
                f"!= --status --json {doc[key]}"
            )
            return 1
    counters = snapshot["metrics"]["counters"]
    if counters["campaign.completed"] != len(stored):
        print(
            f"FAIL: export campaign.completed={counters['campaign.completed']} "
            f"!= store {len(stored)}"
        )
        return 1
    span_files = len(trace_file_paths(store / "trace"))
    if counters["trace.span_files"] != span_files:
        print(
            f"FAIL: export trace.span_files={counters['trace.span_files']} "
            f"!= {span_files} files in the trace directory"
        )
        return 1
    prom = (out / "metrics.prom").read_text().splitlines()
    if f"repro_campaign_completed_total {len(stored)}" not in prom:
        print("FAIL: metrics.prom lacks the repro_campaign_completed_total line")
        return 1
    return 0


def main() -> int:
    code = kill_resume_smoke()
    if code != 0:
        return code
    return elastic_smoke()


if __name__ == "__main__":
    sys.exit(main())
