"""Equivalence suite for fault-tolerant campaigns.

The acceptance bar: a campaign that crashed, was killed, timed out,
was resumed, and ran as shards must produce a report bit-identical to
one uninterrupted serial ``SweepRunner(workers=1)`` run.  Nothing is
retried within a run: a failed scenario is completed by a resume.
Every failure mode here is injected deterministically via
:mod:`repro.testing.faults` — crash/hang/raise on named scenario ids,
torn and bit-rotted store records — never by timing luck.

Scenarios use the counter backend throughout: these tests pin the
store and the scheduler, which see a flash-chip scenario exactly as
they see a counter one, and a counter scenario runs in milliseconds.
"""

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time

import pytest

import repro
from repro import obs
from repro.obs import load_trace_dir
from repro.parallel import (
    Campaign,
    ScenarioFailure,
    StreamingAggregate,
    SweepRunner,
    campaign_status,
    parse_shard,
    shard_of,
)
from repro.parallel.store import ResultStore
from repro.testing.faults import (
    CRASH_EXIT_CODE,
    ENV_FAULTS,
    FaultSpec,
    injected_faults,
    truncate_store_tail,
)
from repro.workloads.grid import GeometrySpec, ScenarioGrid
from repro.workloads.suites import WORKLOAD_SUITE


def counter_grid(seeds=3):
    return ScenarioGrid(
        workloads=(WORKLOAD_SUITE["web_0"],),
        geometries=(GeometrySpec(blocks=64, pages_per_block=64),),
        seeds=seeds,
        duration_days=0.02,
    )


@pytest.fixture(scope="module")
def grid():
    return counter_grid()


@pytest.fixture(scope="module")
def serial_report(grid):
    return SweepRunner(workers=1).run(grid)


def ids_of(grid):
    return [s.scenario_id for s in grid]


def attempt_label(scenario_id):
    """Trace label of a scenario's attempt in the non-sharded campaign
    ("all"); a run makes one attempt per scenario."""
    return f"all.{scenario_id.replace('/', '-')}"


def attempt_pids(trace_dir):
    """Worker pid in the header of every attempt's trace file, by label."""
    return {
        entry["header"]["label"]: entry["header"]["pid"]
        for entry in load_trace_dir(trace_dir)
        if entry["header"] is not None
        and entry["header"]["label"].startswith("all.")
    }


# ----------------------------------------------------------------------
# The happy path: campaign ≡ serial, resume skips stored work
# ----------------------------------------------------------------------


def test_campaign_report_equals_serial(grid, serial_report, tmp_path):
    campaign = Campaign(grid, tmp_path / "store", workers=2)
    report = campaign.run()
    assert report.results == serial_report.results
    assert campaign.resumed == 0 and not campaign.ledger
    assert campaign.aggregate.snapshot()["completed"] == len(grid)
    assert multiprocessing.active_children() == []  # no worker outlives run


# ----------------------------------------------------------------------
# The worker pool: reuse, replacement, no state carried between runs
# ----------------------------------------------------------------------


def test_one_worker_runs_every_attempt(grid, serial_report, tmp_path):
    """workers=1 forks one worker for the whole run: each attempt still
    writes its own trace file, and every file comes from that process."""
    obs.configure(tmp_path / "trace", label="parent")
    try:
        report = Campaign(grid, tmp_path / "store", workers=1).run()
    finally:
        obs.reset()
    assert report.results == serial_report.results
    pids = attempt_pids(tmp_path / "trace")
    assert sorted(pids) == sorted(attempt_label(i) for i in ids_of(grid))
    assert len(set(pids.values())) == 1
    assert os.getpid() not in pids.values()


def test_worker_that_raised_is_replaced(grid, serial_report, tmp_path):
    """A worker whose scenario raised is never reused: every later
    scenario runs in a fresh process."""
    target = ids_of(grid)[0]
    obs.configure(tmp_path / "trace", label="parent")
    try:
        with injected_faults(FaultSpec("raise", None, target)):
            campaign = Campaign(
                grid, tmp_path / "store", workers=1, on_failure="continue"
            )
            report = campaign.run()
    finally:
        obs.reset()
    expected = [r for r in serial_report.results if r.scenario_id != target]
    assert list(report.results) == expected
    assert [f["kind"] for f in campaign.ledger] == ["exception"]
    pids = attempt_pids(tmp_path / "trace")
    raised = pids.pop(attempt_label(target))
    assert sorted(pids) == sorted(attempt_label(i) for i in ids_of(grid)[1:])
    (replacement,) = set(pids.values())
    assert replacement != raised


def test_reused_worker_carries_no_state(grid, serial_report, tmp_path):
    """One worker runs the grid forward, another backward: the reports
    match each other and the in-process serial runner."""
    forward = Campaign(grid, tmp_path / "forward", workers=1).run()
    backward = Campaign(
        list(reversed(list(grid))), tmp_path / "backward", workers=1
    ).run()
    assert forward.results == serial_report.results
    assert backward.results == serial_report.results


def test_resume_skips_stored_scenarios(grid, serial_report, tmp_path):
    Campaign(grid, tmp_path / "store", workers=2).run()
    resumed = Campaign(grid, tmp_path / "store", workers=2)
    report = resumed.run()
    assert resumed.resumed == len(grid)  # nothing re-ran
    assert report.results == serial_report.results
    # The streaming aggregate still reflects the whole campaign.
    assert resumed.aggregate.snapshot()["completed"] == len(grid)


def test_partial_store_resumes_only_the_missing(grid, serial_report, tmp_path):
    scenarios = list(grid)
    store = ResultStore(tmp_path / "store")
    store.bind(scenarios)
    with store:  # pre-store one result, as a killed run would have
        store.append(serial_report.results[0])
    campaign = Campaign(grid, tmp_path / "store", workers=2)
    report = campaign.run()
    assert campaign.resumed == 1
    assert report.results == serial_report.results


def test_campaign_rejects_wrong_grid_store(grid, tmp_path):
    ResultStore(tmp_path / "store").bind(list(grid))
    with pytest.raises(ValueError, match="different.*grid"):
        Campaign(counter_grid(seeds=5), tmp_path / "store").run()


# ----------------------------------------------------------------------
# Failure policies: crash, hang, raise; a resume completes the failed
# ----------------------------------------------------------------------


def test_crashed_worker_is_resumed_bit_identically(
    grid, serial_report, tmp_path
):
    target = ids_of(grid)[0]
    with injected_faults(FaultSpec("crash", None, target)):
        campaign = Campaign(
            grid, tmp_path / "store", workers=2, on_failure="continue"
        )
        report = campaign.run()
    assert report.scenario_ids == sorted(set(ids_of(grid)) - {target})
    assert [f["kind"] for f in campaign.ledger] == ["worker-death"]
    assert str(CRASH_EXIT_CODE) in campaign.ledger[0]["detail"]
    # The ledger is durable, not just in-memory.
    assert ResultStore(tmp_path / "store").failures() == campaign.ledger
    # A fault-free resume runs the crashed scenario, and only it.
    resumed = Campaign(grid, tmp_path / "store", workers=2)
    assert resumed.run().results == serial_report.results
    assert resumed.resumed == len(grid) - 1 and not resumed.ledger


def test_hung_worker_is_killed_and_resumed(grid, serial_report, tmp_path):
    """A hung scenario holds the only worker until its timeout: the
    worker is killed, the rest of the grid runs, progress ticks keep
    firing meanwhile, and a resume completes the hung scenario."""
    target = ids_of(grid)[0]
    snapshots = []
    with injected_faults(FaultSpec("hang", None, target)):
        campaign = Campaign(
            grid, tmp_path / "store", workers=1, on_failure="continue",
            timeout=0.5, progress_interval=0.05,
        )
        report = campaign.run(progress=snapshots.append)
    assert multiprocessing.active_children() == []  # the hung one was killed
    assert report.scenario_ids == sorted(set(ids_of(grid)) - {target})
    assert [f["kind"] for f in campaign.ledger] == ["timeout"]
    assert campaign.ledger[0]["scenario_id"] == target
    assert campaign.ledger[0]["duration_seconds"] >= 0.5
    # Ticks fired while the hung scenario held the worker.
    assert sum(s["completed"] == 0 for s in snapshots) >= 5
    report = Campaign(grid, tmp_path / "store", workers=1).run()
    assert report.results == serial_report.results


def test_continue_policy_completes_the_rest(grid, serial_report, tmp_path):
    target = ids_of(grid)[0]
    with injected_faults(FaultSpec("raise", None, target)):
        campaign = Campaign(
            grid, tmp_path / "store", workers=2, on_failure="continue"
        )
        report = campaign.run()
    assert [f["kind"] for f in campaign.ledger] == ["exception"]
    assert "InjectedFault" in campaign.ledger[0]["detail"]
    expected = [r for r in serial_report.results if r.scenario_id != target]
    assert list(report.results) == expected
    # A later fault-free resume completes the failed scenario too.
    report = Campaign(grid, tmp_path / "store", workers=2).run()
    assert report.results == serial_report.results


def test_fail_fast_aborts_but_keeps_stored_results(grid, tmp_path):
    target = ids_of(grid)[-1]
    with injected_faults(FaultSpec("raise", None, target)):
        campaign = Campaign(grid, tmp_path / "store", workers=1)
        with pytest.raises(ScenarioFailure) as excinfo:
            campaign.run()
    assert excinfo.value.scenario_id == target
    assert multiprocessing.active_children() == []  # the abort killed all
    # workers=1 runs in grid order, so everything before the bomb landed.
    stored = ResultStore(tmp_path / "store").scenario_ids()
    assert stored == set(ids_of(grid)[:-1])


# ----------------------------------------------------------------------
# Kill-and-resume: the campaign parent itself dies
# ----------------------------------------------------------------------


def _campaign_argv(grid_seeds, store, extra=()):
    return [
        sys.executable, "-m", "repro.sweep",
        "--workloads", "web_0", "--seeds", str(grid_seeds),
        "--days", "0.02", "--blocks", "64", "--pages-per-block", "64",
        # Two slots: the deliberately hung scenario pins one, the other
        # keeps draining the rest of the grid.
        "--campaign", str(store), "--resume", "--workers", "2",
        *extra,
    ]


def test_sigkilled_campaign_resumes_bit_identically(
    grid, serial_report, tmp_path
):
    """The acceptance scenario: a worker crash (injected) *and* a
    SIGKILL of the whole campaign process group mid-run, then a resume —
    the final report must match the uninterrupted serial run exactly."""
    ids = ids_of(grid)
    store = tmp_path / "store"
    env = dict(
        os.environ,
        PYTHONPATH=str(os.path.dirname(os.path.dirname(repro.__file__))),
        # Crash the second scenario (a worker death the campaign ledgers
        # and moves past), then hang the last scenario forever so the
        # parent is deterministically mid-campaign when we shoot it.
        **{ENV_FAULTS: f"crash:*:{ids[1]};hang:*:{ids[-1]}"},
    )
    process = subprocess.Popen(
        _campaign_argv(len(ids), store, extra=("--on-failure", "continue")),
        env=env,
        start_new_session=True,  # so killpg reaps campaign workers too
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    try:
        deadline = time.monotonic() + 120
        expected = set(ids) - {ids[1], ids[-1]}
        while (
            ResultStore(store).scenario_ids() != expected
            or not ResultStore(store).failures()
        ):
            assert process.poll() is None, "campaign exited prematurely"
            assert time.monotonic() < deadline, "campaign made no progress"
            time.sleep(0.05)
    finally:
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        process.wait()
    # Every stored result survived the kill; the crashed and the hung
    # scenario did not land.  Resume in-process with no faults armed.
    assert [f["kind"] for f in ResultStore(store).failures()] == ["worker-death"]
    campaign = Campaign(grid, store, workers=2, on_failure="continue")
    report = campaign.run()
    assert campaign.resumed == len(ids) - 2
    assert report.results == serial_report.results


def _alive(pid):
    """Whether *pid* still runs; a zombie awaiting its reaper has exited."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            state = handle.read().rpartition(")")[2].split()[0]
    except FileNotFoundError:
        return False
    return state not in ("Z", "X")


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads /proc")
def test_idle_worker_exits_when_its_parent_is_sigkilled(grid, tmp_path):
    """SIGKILL only the campaign parent (not its process group) while one
    worker hangs and the other idles.  The idle worker must see EOF on
    its pipe and exit: no process, itself or its hung sibling included,
    may keep a copy of the parent's end of that pipe."""
    ids = ids_of(grid)
    store = tmp_path / "store"
    trace = store / "trace"
    env = dict(
        os.environ,
        PYTHONPATH=str(os.path.dirname(os.path.dirname(repro.__file__))),
        **{ENV_FAULTS: f"hang:*:{ids[0]}"},
    )
    process = subprocess.Popen(
        _campaign_argv(len(ids), store, extra=("--trace",)),
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    pids = {}
    try:
        # The hung scenario pins one worker; the other runs the rest and
        # then idles.  Wait for both states, then shoot the parent alone.
        deadline = time.monotonic() + 120
        while (
            ResultStore(store).scenario_ids() != set(ids[1:])
            or attempt_label(ids[0]) not in pids
        ):
            assert process.poll() is None, "campaign exited prematurely"
            assert time.monotonic() < deadline, "campaign made no progress"
            time.sleep(0.05)
            pids = attempt_pids(trace) if trace.exists() else {}
        hung = pids[attempt_label(ids[0])]
        (idle,) = set(pids.values()) - {hung}
        os.kill(process.pid, signal.SIGKILL)
        process.wait()
        deadline = time.monotonic() + 10
        while _alive(idle) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not _alive(idle), "the idle worker outlived its parent"
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
        for pid in set(pids.values()):
            if _alive(pid):
                os.kill(pid, signal.SIGKILL)


def test_torn_append_reruns_on_resume(grid, serial_report, tmp_path):
    """A parent killed mid-append leaves a torn record; resume re-runs
    exactly that scenario and the report still matches serial."""
    store = tmp_path / "store"
    Campaign(grid, store, workers=1).run()
    truncate_store_tail(store)
    campaign = Campaign(grid, store, workers=1)
    report = campaign.run()
    assert campaign.resumed == len(grid) - 1  # one scenario re-ran
    assert report.results == serial_report.results


# ----------------------------------------------------------------------
# Sharding
# ----------------------------------------------------------------------


def test_shard_partition_is_stable_and_total(grid):
    ids = ids_of(counter_grid(seeds=8))
    owners = {scenario_id: shard_of(scenario_id, 3) for scenario_id in ids}
    assert owners == {s: shard_of(s, 3) for s in ids}  # stable
    assert set(owners.values()) <= {0, 1, 2}
    counts = [list(owners.values()).count(k) for k in range(3)]
    assert all(count > 0 for count in counts)  # 8 ids spread over 3 shards


def test_sharded_stores_merge_to_the_serial_report(tmp_path):
    grid = counter_grid(seeds=6)
    serial = SweepRunner(workers=1).run(grid)
    host_a, host_b = tmp_path / "host-a", tmp_path / "host-b"
    shard_a = Campaign(grid, host_a, workers=2, shard="0/2")
    shard_b = Campaign(grid, host_b, workers=2, shard=(1, 2))
    report_a = shard_a.run()
    report_b = shard_b.run()
    assert len(report_a.results) + len(report_b.results) == len(grid)
    assert not set(report_a.scenario_ids) & set(report_b.scenario_ids)
    # Merge host B into host A's store; the merged report is serial.
    merged_store = ResultStore(host_a)
    merged_store.bind(list(grid))
    merged_store.ingest(host_b)
    merged = Campaign(grid, host_a, workers=1).report()
    assert merged.results == serial.results


def _run_shard(grid, store, shard):
    Campaign(grid, store, workers=1, shard=shard).run()


def test_two_shards_sharing_one_store_equal_serial(tmp_path):
    """Two shard campaigns run at once into one fresh store directory:
    both bind it, each appends under its own writer file, and the
    store's report is bit-identical to the serial sweep."""
    grid = counter_grid(seeds=5)  # shard 0 owns 2 scenarios, shard 1 owns 3
    serial = SweepRunner(workers=1).run(grid)
    store = tmp_path / "store"
    context = multiprocessing.get_context("fork")
    shards = [
        context.Process(target=_run_shard, args=(grid, store, f"{i}/2"))
        for i in range(2)
    ]
    for process in shards:
        process.start()
    for process in shards:
        process.join(timeout=120)
    assert [process.exitcode for process in shards] == [0, 0]
    assert sorted(p.name for p in (store / "records").glob("*.jsonl")) == [
        "shard0of2.jsonl", "shard1of2.jsonl",
    ]
    assert Campaign(grid, store, workers=1).report().results == serial.results


def test_parse_shard_accepts_and_rejects():
    assert parse_shard("0/2") == (0, 2)
    assert parse_shard("3/4") == (3, 4)
    for bad in ("2/2", "-1/2", "0", "a/b", "1/0", ""):
        with pytest.raises(ValueError, match="shard"):
            parse_shard(bad)


# ----------------------------------------------------------------------
# Stores left by the deleted elastic scheduler
# ----------------------------------------------------------------------


def test_store_written_under_leases_loads_resumes_and_reports(
    grid, serial_report, tmp_path
):
    """A store written by the deleted elastic scheduler: its records
    carry a ``lease`` envelope beside the checksum and ``leases/`` holds
    the batch plan and claim files.  Nothing reads either: the store
    loads, resumes the missing scenario and reports like serial."""
    store = tmp_path / "store"
    ResultStore(store).bind(list(grid))
    with ResultStore(store, writer="wA") as writer:
        for result in serial_report.results[:-1]:
            writer.append(result)
    records = store / "records" / "wA.jsonl"
    lines = []
    for index, line in enumerate(records.read_text().splitlines()):
        record = json.loads(line)
        record["lease"] = {"batch": f"b{index:05d}", "owner": "wA", "token": 1}
        lines.append(json.dumps(record, sort_keys=True, separators=(",", ":")))
    records.write_text("".join(f"{line}\n" for line in lines))
    leases = store / "leases"
    leases.mkdir()
    (leases / "batches.json").write_text(json.dumps({
        "format": "repro-campaign-leases", "version": 1, "batch_size": 1,
        "scenario_count": len(grid), "ids_sha256": "0" * 64,
    }))
    (leases / "b00000.jsonl").write_text(
        '{"at":1.0,"op":"claim","owner":"wA","token":1}\n'
        '{"at":2.0,"op":"done","owner":"wA","token":1}\n'
    )
    loaded = ResultStore(store)
    assert loaded.load() == {
        r.scenario_id: r for r in serial_report.results[:-1]
    }
    assert loaded.corrupt_records == 0
    assert campaign_status(store)["completed"] == len(grid) - 1
    campaign = Campaign(grid, store, workers=1)
    report = campaign.run()
    assert campaign.resumed == len(grid) - 1
    assert report.results == serial_report.results
    assert campaign_status(store)["completed"] == len(grid)


# ----------------------------------------------------------------------
# Policy parsing and the streaming aggregate
# ----------------------------------------------------------------------


def test_failure_policy_parsing(grid, tmp_path):
    """Two policies, ``fail_fast`` and ``continue``.  Anything else,
    ``retry:N`` included, raises before the store directory is touched."""
    for policy in ("fail_fast", "continue"):
        assert Campaign(grid, tmp_path / policy, on_failure=policy).on_failure == policy
    for bad in ("retry:2", "retry", "panic", "continue:2"):
        with pytest.raises(ValueError, match="unknown failure policy"):
            Campaign(grid, tmp_path / "bad", on_failure=bad)
    assert not (tmp_path / "bad").exists()


def test_streaming_aggregate_percentiles(serial_report):
    from repro.parallel.results import ScenarioResult

    aggregate = StreamingAggregate()
    for i in range(10):
        aggregate.observe(
            ScenarioResult(
                scenario_id=f"s/{i}",
                stats={"peak_block_reads_per_interval": 10 * (i + 1),
                       "max_pe_cycles": 100},
                backend={"uncorrectable_pages": i, "data_loss_events": 0},
                trajectory=[{"worst_block_rber": (i + 1) / 1000}],
            )
        )
    aggregate.observe_failure()
    snapshot = aggregate.snapshot()
    assert snapshot["completed"] == 10
    assert snapshot["failed_attempts"] == 1
    assert snapshot["uncorrectable_pages"] == sum(range(10))
    rber = snapshot["worst_block_rber"]
    assert rber["n"] == 10
    assert rber["p50"] == pytest.approx(0.005)
    assert rber["max"] == pytest.approx(0.010)
    assert rber["p99"] == rber["max"]
    peak = snapshot["peak_block_reads_per_interval"]
    assert (peak["p90"], peak["p99"], peak["max"]) == (90, 100, 100)
    # Nearest rank is the ceil(q * n)-th smallest value: with three
    # results p50 is the 2nd and p90/p99 the 3rd.
    three = StreamingAggregate()
    for i in range(3):
        three.observe(
            ScenarioResult(
                scenario_id=f"t/{i}",
                stats={"peak_block_reads_per_interval": 10 * (i + 1),
                       "max_pe_cycles": 100},
                backend={"uncorrectable_pages": 0, "data_loss_events": 0},
            )
        )
    peak = three.snapshot()["peak_block_reads_per_interval"]
    assert (peak["p50"], peak["p90"], peak["p99"]) == (20, 30, 30)
    # Real counter results carry no trajectory RBER: percentile is None.
    empty = StreamingAggregate()
    empty.observe(serial_report.results[0])
    assert empty.snapshot()["worst_block_rber"] is None


def test_progress_callback_streams_snapshots(grid, tmp_path):
    snapshots = []
    Campaign(grid, tmp_path / "store", workers=2).run(
        progress=snapshots.append
    )
    assert len(snapshots) == len(grid)
    assert [s["completed"] for s in sorted(snapshots, key=lambda s: s["completed"])] == [1, 2, 3]


def test_failure_ledger_schema_is_pinned(grid, tmp_path):
    """The durable failure record carries exactly these fields — in
    particular both clocks: wall time (humans, cross-host ordering) and
    a monotonic duration (how long the scenario ran before it failed,
    truthful across NTP steps).  A run makes one attempt per scenario,
    so the entry carries no attempt number.  Anything depending on the
    ledger pins against this."""
    target = ids_of(grid)[0]
    with injected_faults(FaultSpec("raise", None, target)):
        campaign = Campaign(
            grid, tmp_path / "store", workers=1, on_failure="continue"
        )
        campaign.run()
    entries = ResultStore(tmp_path / "store").failures()
    assert entries == campaign.ledger  # durable ≡ in-memory, field-exact
    (entry,) = entries
    assert set(entry) == {
        "scenario_id", "kind", "detail", "wall_time", "duration_seconds",
    }
    assert entry["scenario_id"] == target
    assert isinstance(entry["wall_time"], float) and entry["wall_time"] > 0
    assert isinstance(entry["duration_seconds"], float)
    assert entry["duration_seconds"] >= 0
