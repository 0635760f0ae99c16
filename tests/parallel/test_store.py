"""Crash-safety suite for the campaign result store.

The store's contract: an append either lands completely or not at all,
anything torn or bit-rotted is detected and skipped (the scenario just
re-runs on resume), stores of one grid merge by file copy, and stores
of *different* grids refuse to mix.  Corruption is injected from the
outside via :mod:`repro.testing.faults` — the store gets no say.
"""

import json
import multiprocessing

import pytest

from repro.parallel.results import ScenarioResult
from repro.parallel.store import ResultStore, grid_fingerprint
from repro.testing.faults import corrupt_store_record, truncate_store_tail
from repro.workloads.grid import GeometrySpec, ScenarioGrid
from repro.workloads.suites import WORKLOAD_SUITE


def small_grid(seeds=2, root_seed=0):
    return ScenarioGrid(
        workloads=(WORKLOAD_SUITE["web_0"],),
        geometries=(GeometrySpec(blocks=64, pages_per_block=64),),
        seeds=seeds,
        duration_days=0.02,
        root_seed=root_seed,
    )


def fake_result(scenario_id="s/1", value=1.5):
    return ScenarioResult(
        scenario_id=scenario_id,
        stats={"host_reads": 10, "write_amplification": value},
        backend={"backend": "counter"},
        per_block={"pe_cycles": [1, 2, 3]},
        trajectory=[{"window": 0, "worst_block_rber": value / 100}],
    )


# ----------------------------------------------------------------------
# Round-trip exactness
# ----------------------------------------------------------------------


def test_append_load_round_trip_is_exact(tmp_path):
    results = [fake_result(f"s/{i}", value=1.0 / (i + 3)) for i in range(4)]
    with ResultStore(tmp_path) as store:
        for result in results:
            store.append(result)
    loaded = ResultStore(tmp_path).load()
    assert len(loaded) == 4
    for result in results:
        # Dataclass equality covers every field; floats round-trip
        # bit-for-bit through JSON (shortest-repr), so this is exact.
        assert loaded[result.scenario_id] == result


def test_real_scenario_result_round_trips_exactly(tmp_path):
    """The full result of a real run — numpy-derived floats and all —
    survives the store bit-for-bit (the resume ≡ serial keystone)."""
    from repro.controller.factory import run_scenario

    scenario = small_grid(seeds=1).scenarios()[0]
    result = run_scenario(scenario)
    with ResultStore(tmp_path) as store:
        store.append(result)
    assert ResultStore(tmp_path).load()[scenario.scenario_id] == result


def test_duplicate_identical_records_merge(tmp_path):
    result = fake_result()
    with ResultStore(tmp_path, writer="a") as store:
        store.append(result)
        store.append(result)  # a retry that raced its own completion
    with ResultStore(tmp_path, writer="b") as store:
        store.append(result)  # an overlapping shard
    assert ResultStore(tmp_path).load() == {result.scenario_id: result}


def test_conflicting_duplicate_records_raise(tmp_path):
    with ResultStore(tmp_path, writer="a") as store:
        store.append(fake_result(value=1.5))
    with ResultStore(tmp_path, writer="b") as store:
        store.append(fake_result(value=2.5))
    with pytest.raises(ValueError, match="two different results"):
        ResultStore(tmp_path).load()


def stamp_lease(path, token):
    """Add the ``lease`` envelope the deleted elastic scheduler wrote
    beside each record's checksum (outside the checksummed payload)."""
    lines = []
    for line in path.read_text().splitlines():
        record = json.loads(line)
        record["lease"] = {"batch": "b00000", "owner": path.stem, "token": token}
        lines.append(json.dumps(record, sort_keys=True, separators=(",", ":")))
    path.write_text("".join(f"{line}\n" for line in lines))


def test_agreeing_duplicates_under_two_lease_tokens_merge(tmp_path):
    result = fake_result("s/00")
    for token, writer in enumerate(("w1", "w2"), start=1):
        with ResultStore(tmp_path, writer=writer) as store:
            store.append(result)
        stamp_lease(tmp_path / "records" / f"{writer}.jsonl", token)
    store = ResultStore(tmp_path)
    assert store.load() == {"s/00": result}
    assert store.corrupt_records == 0


def test_disagreeing_duplicates_still_raise_regardless_of_tokens(tmp_path):
    for token, value in enumerate((0.5, 0.9), start=1):
        writer = f"w{token}"
        with ResultStore(tmp_path, writer=writer) as store:
            store.append(fake_result("s/00", value=value))
        stamp_lease(tmp_path / "records" / f"{writer}.jsonl", token)
    with pytest.raises(ValueError, match="two different results"):
        ResultStore(tmp_path).load()


# ----------------------------------------------------------------------
# Torn and corrupted records
# ----------------------------------------------------------------------


def test_torn_final_line_is_skipped_not_fatal(tmp_path):
    with ResultStore(tmp_path) as store:
        store.append(fake_result("s/0"))
        store.append(fake_result("s/1"))
    truncate_store_tail(tmp_path, nbytes=20)  # parent died mid-append
    store = ResultStore(tmp_path)
    loaded = store.load()
    assert set(loaded) == {"s/0"}
    assert store.corrupt_records == 1
    assert store.scenario_ids() == {"s/0"}


def test_checksum_catches_bit_rot(tmp_path):
    with ResultStore(tmp_path) as store:
        store.append(fake_result("s/0"))
        store.append(fake_result("s/1"))
    assert corrupt_store_record(tmp_path, "s/1") == 1
    store = ResultStore(tmp_path)
    assert set(store.load()) == {"s/0"}
    assert store.corrupt_records == 1


def test_every_scan_recounts_corrupt_records(tmp_path):
    with ResultStore(tmp_path) as store:
        store.append(fake_result("s/0"))
        store.append(fake_result("s/1"))
    truncate_store_tail(tmp_path, nbytes=20)
    store = ResultStore(tmp_path)
    store.load()
    assert store.scenario_ids() == {"s/0"}
    assert store.corrupt_records == 1  # restarted per scan, not summed


def test_rerun_after_torn_record_restores_it(tmp_path):
    result = fake_result("s/0")
    with ResultStore(tmp_path) as store:
        store.append(result)
    truncate_store_tail(tmp_path)
    assert ResultStore(tmp_path).scenario_ids() == set()
    with ResultStore(tmp_path) as store:  # what resume does: re-run, append
        store.append(result)
    assert ResultStore(tmp_path).load() == {"s/0": result}


# ----------------------------------------------------------------------
# Manifest binding
# ----------------------------------------------------------------------


def test_bind_writes_then_verifies_manifest(tmp_path):
    grid = small_grid()
    store = ResultStore(tmp_path)
    assert not ResultStore.is_initialized(tmp_path)
    manifest = store.bind(list(grid))
    assert ResultStore.is_initialized(tmp_path)
    assert manifest["grid_fingerprint"] == grid_fingerprint(list(grid))
    # Re-binding the same grid (a resume) is a no-op verification.
    assert ResultStore(tmp_path).bind(list(grid)) == manifest


def test_bind_rejects_a_different_grid(tmp_path):
    store = ResultStore(tmp_path)
    store.bind(list(small_grid()))
    with pytest.raises(ValueError, match="different.*grid"):
        ResultStore(tmp_path).bind(list(small_grid(seeds=3)))
    with pytest.raises(ValueError, match="different.*grid"):
        ResultStore(tmp_path).bind(list(small_grid(root_seed=1)))


def test_fingerprint_is_order_free_and_shard_free():
    scenarios = small_grid(seeds=3).scenarios()
    assert grid_fingerprint(scenarios) == grid_fingerprint(scenarios[::-1])
    assert grid_fingerprint(scenarios) != grid_fingerprint(scenarios[:-1])


def _bind_behind_barrier(barrier, roots, scenarios, errors):
    for root in roots:
        barrier.wait()
        try:
            ResultStore(root).bind(scenarios)
            ResultStore(root).read_manifest()
        except Exception as exc:  # noqa: BLE001 - reported to the parent
            errors.put(f"{root.name}: {exc!r}")


def test_concurrent_binds_of_a_fresh_store_all_succeed(tmp_path):
    """Shards started together over one fresh directory all bind it at
    once.  Each manifest write uses its own temp file, so no bind loses
    its temp file to another's rename and no reader sees a torn
    manifest."""
    scenarios = list(small_grid())
    roots = [tmp_path / f"trial{i}" for i in range(40)]
    context = multiprocessing.get_context("fork")
    barrier = context.Barrier(4)
    errors = context.Queue()
    binders = [
        context.Process(
            target=_bind_behind_barrier,
            args=(barrier, roots, scenarios, errors),
        )
        for _ in range(4)
    ]
    for process in binders:
        process.start()
    for process in binders:
        process.join(timeout=60)
    assert [process.exitcode for process in binders] == [0] * 4
    failures = []
    while not errors.empty():
        failures.append(errors.get())
    assert failures == []
    fingerprint = grid_fingerprint(scenarios)
    for root in roots:
        assert ResultStore(root).read_manifest()["grid_fingerprint"] == fingerprint
        assert [p.name for p in root.iterdir() if p.name.endswith(".tmp")] == []


def test_unrecognized_manifest_is_rejected(tmp_path):
    (tmp_path / "manifest.json").write_text(json.dumps({"format": "other"}))
    with pytest.raises(ValueError, match="manifest"):
        ResultStore(tmp_path).read_manifest()


def test_writer_names_are_validated(tmp_path):
    for bad in ("", "a/b", ".hidden"):
        with pytest.raises(ValueError, match="writer"):
            ResultStore(tmp_path, writer=bad)


def test_store_holding_a_segment_tier_fails_loudly(tmp_path):
    """Records compacted into ``segments/`` are unreadable: loading
    around them would make a finished store look partial."""
    store = ResultStore(tmp_path)
    store.bind(list(small_grid()))
    with store:
        store.append(fake_result("s/0"))
    (tmp_path / "segments").mkdir()
    with pytest.raises(ValueError, match="segment tiers are no longer read"):
        ResultStore(tmp_path)


# ----------------------------------------------------------------------
# Cross-store merge (the shard workflow)
# ----------------------------------------------------------------------


def test_ingest_merges_shard_stores(tmp_path):
    grid = list(small_grid(seeds=2))
    a, b = tmp_path / "host-a", tmp_path / "host-b"
    store_a = ResultStore(a, writer="shard0of2")
    store_b = ResultStore(b, writer="shard1of2")
    store_a.bind(grid)
    store_b.bind(grid)
    result_0, result_1 = fake_result("s/0"), fake_result("s/1")
    with store_a:
        store_a.append(result_0)
    with store_b:
        store_b.append(result_1)
    assert store_a.ingest(store_b) == 1
    assert ResultStore(a).load() == {"s/0": result_0, "s/1": result_1}


def test_ingest_keeps_failure_ledgers(tmp_path):
    grid = list(small_grid())
    a, b = tmp_path / "a", tmp_path / "b"
    store_a, store_b = ResultStore(a, writer="w1"), ResultStore(b, writer="w2")
    store_a.bind(grid)
    store_b.bind(grid)
    with store_b:
        entry = store_b.record_failure(
            "s/9", "timeout", "hung for 600s", duration=600.25
        )
    store_a.ingest(store_b)
    assert ResultStore(a).failures() == [entry]
    assert entry["duration_seconds"] == 600.25
    assert entry["wall_time"] > 0


def test_ingest_renames_colliding_writer_files(tmp_path):
    grid = list(small_grid())
    a, b = tmp_path / "a", tmp_path / "b"
    store_a, store_b = ResultStore(a), ResultStore(b)  # both writer="all"
    store_a.bind(grid)
    store_b.bind(grid)
    result = fake_result()
    with store_a:
        store_a.append(result)
    with store_b:
        store_b.append(result)
    assert store_a.ingest(store_b) == 1
    names = {p.name for p in (a / "records").glob("*.jsonl")}
    assert "all.jsonl" in names and len(names) == 2  # nothing clobbered
    assert ResultStore(a).load() == {result.scenario_id: result}


def test_ingest_rejects_stores_of_different_grids(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    store_a, store_b = ResultStore(a), ResultStore(b)
    store_a.bind(list(small_grid()))
    store_b.bind(list(small_grid(seeds=3)))
    with pytest.raises(ValueError, match="different scenario grids"):
        store_a.ingest(store_b)


def test_ingest_rejects_an_uninitialized_source_and_creates_nothing(tmp_path):
    store = ResultStore(tmp_path / "a")  # the destination may stay unbound
    typo = tmp_path / "typo"
    with pytest.raises(ValueError, match="not an initialized"):
        store.ingest(typo)
    assert not typo.exists()
