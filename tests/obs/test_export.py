"""Snapshot export suite: a campaign directory in, ``metrics.json`` +
Prometheus textfile out — built from store and trace state alone.

The campaign here is real (driven through the sweep CLI with
``--trace``), so the snapshot is exercised against exactly the
artifacts a crashed or finished campaign would leave behind.
"""

import json

import pytest

from repro.obs.export import (
    EXPORT_FORMAT,
    EXPORT_VERSION,
    build_snapshot,
    export_snapshot,
    main as export_main,
    trace_summary,
)
from repro.parallel.store import ResultStore
from repro.sweep import main as sweep_main

CAMPAIGN_ARGV = [
    "--workloads", "web_0",
    "--days", "0.01",
    "--blocks", "64", "--pages-per-block", "64",
]


@pytest.fixture(scope="module")
def traced_store(tmp_path_factory):
    """One finished single-scenario campaign with tracing armed."""
    store = tmp_path_factory.mktemp("campaign") / "store"
    assert sweep_main(CAMPAIGN_ARGV + ["--campaign", str(store), "--trace"]) == 0
    from repro import obs

    obs.reset()  # the CLI armed this process's global telemetry
    return store


def test_snapshot_document_shape(traced_store):
    snapshot = build_snapshot(traced_store)
    assert snapshot["format"] == EXPORT_FORMAT
    assert snapshot["version"] == EXPORT_VERSION
    assert snapshot["status"]["completed"] == 1
    assert snapshot["status"]["scenario_count"] == 1
    # The trace digest saw the campaign's own spans.
    spans = snapshot["trace"]["spans"]
    for name in ("campaign.run", "campaign.attempt", "scenario.run",
                 "store.append"):
        assert spans[name]["count"] >= 1
        assert spans[name]["seconds"] >= 0.0
    assert snapshot["trace"]["files"] >= 2  # coordinator + worker


def test_flat_metrics_agree_with_status(traced_store):
    snapshot = build_snapshot(traced_store)
    metrics = snapshot["metrics"]
    assert metrics["counters"]["campaign.completed"] == 1
    assert metrics["counters"]["campaign.failures"] == 0
    assert metrics["counters"]["trace.span_files"] == (
        snapshot["trace"]["files"]
    )
    assert metrics["gauges"] == {"campaign.scenario_count": 1}
    assert "store.zombie_writes" not in metrics["counters"]
    assert metrics["histograms"]["trace.scenario.run"]["count"] >= 1


def test_export_writes_json_and_prom(traced_store):
    written = export_snapshot(traced_store)
    assert written["json"] == traced_store / "obs" / "metrics.json"
    on_disk = json.loads(written["json"].read_text())
    assert on_disk == json.loads(
        json.dumps(written["snapshot"])
    )
    prom = written["prom"].read_text()
    assert "# TYPE repro_campaign_completed_total counter" in prom
    assert "repro_campaign_completed_total 1" in prom
    assert "repro_campaign_scenario_count 1" in prom


def test_export_cli_entrypoint(traced_store, tmp_path, capsys):
    out = tmp_path / "obs-out"
    assert export_main([str(traced_store), "--out", str(out)]) == 0
    assert (out / "metrics.json").exists()
    assert (out / "metrics.prom").exists()
    assert "metrics.json" in capsys.readouterr().out


def test_snapshot_tolerates_missing_trace_dir(tmp_path):
    store = tmp_path / "store"
    assert sweep_main(CAMPAIGN_ARGV + ["--campaign", str(store)]) == 0
    snapshot = build_snapshot(store)
    assert snapshot["trace"] == {
        "files": 0, "skipped_lines": 0, "spans": {},
    }
    assert snapshot["status"]["completed"] == len(
        ResultStore(store).scenario_ids()
    )


def test_trace_summary_skips_open_spans_durations(tmp_path):
    from repro.obs.tracing import Tracer

    tracer = Tracer(tmp_path, "w0")
    with tracer.span("closed"):
        pass
    tracer.begin("abandoned")
    tracer.close()
    summary = trace_summary(tmp_path)
    assert summary["spans"]["abandoned"]["count"] == 1
    assert summary["spans"]["abandoned"]["seconds"] == 0.0
    assert summary["spans"]["closed"]["seconds"] >= 0.0
