"""Reruns traced into one directory keep every run's spans.

A resumed campaign, a rerun shard or a second traced sweep reuses the
first run's labels (``all``, ``shard<i>of<N>``, ``sweep``, and the
campaign's ``<writer>.<scenario>`` worker labels).  The
second writer of a label takes ``<label>-r<k>``, so span ids stay
unique, the merged trace validates, and every run's root span survives.
"""

import importlib.util
from collections import Counter
from pathlib import Path

from repro.obs.tracing import Tracer, load_trace_file, merge_spans
from repro.sweep import build_grid, build_parser, main
from repro.testing.faults import FaultSpec, injected_faults

_spec = importlib.util.spec_from_file_location(
    "trace_validate",
    Path(__file__).resolve().parents[2] / "tools" / "trace_validate.py",
)
trace_validate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(trace_validate)

ARGV = [
    "--workloads", "web_0",
    "--days", "0.01",
    "--blocks", "64", "--pages-per-block", "64",
]


def root_spans(trace_dir, name):
    return [
        span for span in merge_spans(trace_dir)
        if span["name"] == name and span["parent"] is None
    ]


def test_second_writer_of_a_label_takes_the_next_free_rerun_label(tmp_path):
    labels = []
    for _ in range(3):
        tracer = Tracer(tmp_path, "w0")
        with tracer.span("run"):
            pass
        tracer.close()
        labels.append(tracer.label)
    assert labels == ["w0", "w0-r2", "w0-r3"]
    for label in labels:
        loaded = load_trace_file(tmp_path / f"trace-{label}.jsonl")
        assert loaded["header"]["label"] == label
        assert [span["id"] for span in loaded["spans"]] == [f"{label}:000000"]


def test_traced_campaign_and_traced_resume_keep_both_runs(tmp_path):
    """The first run ledgers one scenario as failed under ``continue``;
    the resume reruns it.  Both the parent label (``all``) and that
    scenario's worker label are written twice."""
    store = tmp_path / "store"
    trace = store / "trace"
    argv = ARGV + [
        "--seeds", "2", "--workers", "1", "--on-failure", "continue",
        "--campaign", str(store), "--trace",
    ]
    failed = build_grid(build_parser().parse_args(argv)).scenarios()[0]
    with injected_faults(FaultSpec("raise", None, failed.scenario_id)):
        assert main(argv) == 0
    assert main(argv + ["--resume"]) == 0
    assert trace_validate.validate(
        trace, [("campaign.run", 2), ("campaign.attempt", 3)]
    ) == []
    assert len(root_spans(trace, "campaign.run")) == 2
    names = Counter(span["name"] for span in merge_spans(trace))
    assert (names["campaign.attempt"], names["scenario.run"]) == (3, 3)


def test_sweep_traced_twice_into_one_directory_keeps_both_runs(tmp_path):
    trace = tmp_path / "trace"
    for _ in range(2):
        assert main(ARGV + ["--workers", "1", "--trace", str(trace)]) == 0
    assert trace_validate.validate(trace, [("sweep.run", 2)]) == []
    assert len(root_spans(trace, "sweep.run")) == 2
    assert sorted(path.name for path in trace.iterdir()) == [
        "trace-sweep-r2.jsonl", "trace-sweep.jsonl",
    ]
