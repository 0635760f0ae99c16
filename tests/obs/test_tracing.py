"""Trace writer/loader suite: nesting, crash tolerance, merge identity.

The trace format's promises are all file-level, so every test here
round-trips real ``Tracer`` output through the same loader the CLI and
``tools/trace_validate.py`` use: begin/end pairing, deterministic ids,
implicit parenting, torn-tail and SIGKILL tolerance, and the
cross-file merge that stitches worker traces to the coordinator's.
"""

import gc
import json
import multiprocessing
import os
import sys
import warnings

import pytest

from repro import obs
from repro.obs.tracing import (
    TRACE_FORMAT,
    TRACE_VERSION,
    Tracer,
    load_trace_file,
    merge_spans,
    trace_file_paths,
    trace_summary,
)


def spans_by_name(loaded):
    return {span["name"]: span for span in loaded["spans"]}


# ----------------------------------------------------------------------
# Writing and round-tripping
# ----------------------------------------------------------------------


def test_header_is_first_line_and_schema_versioned(tmp_path):
    tracer = Tracer(tmp_path, "w0")
    with tracer.span("outer"):
        pass
    tracer.close()
    first = json.loads(tracer.path.read_text().splitlines()[0])
    assert first["k"] == "header"
    assert first["format"] == TRACE_FORMAT
    assert first["version"] == TRACE_VERSION
    assert first["label"] == "w0"


def test_nested_spans_parent_implicitly_and_order_by_time(tmp_path):
    tracer = Tracer(tmp_path, "w0")
    with tracer.span("outer", depth=0):
        with tracer.span("inner", depth=1):
            with tracer.span("leaf"):
                pass
    tracer.close()
    loaded = load_trace_file(tracer.path)
    assert loaded["skipped"] == 0
    named = spans_by_name(loaded)
    assert named["outer"]["parent"] is None
    assert named["inner"]["parent"] == named["outer"]["id"]
    assert named["leaf"]["parent"] == named["inner"]["id"]
    # Temporal nesting: children start after and end before the parent.
    assert named["outer"]["t0"] <= named["inner"]["t0"] <= named["leaf"]["t0"]
    assert named["leaf"]["t1"] <= named["inner"]["t1"] <= named["outer"]["t1"]
    # Ids are label-prefixed and sequential in begin order.
    assert [span["id"] for span in loaded["spans"]] == [
        "w0:000000", "w0:000001", "w0:000002",
    ]


def test_sibling_spans_share_the_parent(tmp_path):
    tracer = Tracer(tmp_path, "w0")
    with tracer.span("outer"):
        with tracer.span("first"):
            pass
        with tracer.span("second"):
            pass
    tracer.close()
    named = spans_by_name(load_trace_file(tracer.path))
    assert named["first"]["parent"] == named["outer"]["id"]
    assert named["second"]["parent"] == named["outer"]["id"]
    assert named["first"]["t1"] <= named["second"]["t0"]


def test_end_attrs_merge_over_begin_attrs(tmp_path):
    tracer = Tracer(tmp_path, "w0")
    span = tracer.begin("campaign.attempt", scenario="s/0")
    tracer.end(span, outcome="ok")
    tracer.close()
    named = spans_by_name(load_trace_file(tracer.path))
    assert named["campaign.attempt"]["attrs"] == {
        "scenario": "s/0", "outcome": "ok",
    }


def test_exception_inside_span_records_error_attr(tmp_path):
    tracer = Tracer(tmp_path, "w0")
    with pytest.raises(RuntimeError):
        with tracer.span("scenario.run"):
            raise RuntimeError("boom")
    tracer.close()
    named = spans_by_name(load_trace_file(tracer.path))
    assert named["scenario.run"]["open"] is False
    assert named["scenario.run"]["attrs"]["error"] == "RuntimeError"


def test_loader_reads_complete_span_lines_of_older_traces(tmp_path):
    """Traces written before per-block spans went hold one-line
    ``"k": "span"`` records; the loader still reads them as closed
    spans under their parent."""
    header = {"k": "header", "format": TRACE_FORMAT, "version": TRACE_VERSION,
              "label": "w0", "pid": 1, "wall_start": 0.0}
    lines = [
        header,
        {"k": "b", "id": "w0:000000", "parent": None,
         "name": "physics.execute", "t0": 1.0},
        {"k": "span", "id": "w0:000000/b3", "parent": "w0:000000",
         "name": "physics.block", "t0": 1.0, "t1": 2.0,
         "attrs": {"block": 3, "pages": 4}},
        {"k": "e", "id": "w0:000000", "t1": 2.5},
    ]
    path = tmp_path / "trace-w0.jsonl"
    path.write_text("".join(json.dumps(line) + "\n" for line in lines))
    loaded = load_trace_file(path)
    assert loaded["skipped"] == 0
    named = spans_by_name(loaded)
    block = named["physics.block"]
    assert block["id"] == "w0:000000/b3"
    assert block["parent"] == named["physics.execute"]["id"]
    assert (block["t0"], block["t1"], block["open"]) == (1.0, 2.0, False)
    assert block["attrs"] == {"block": 3, "pages": 4}


def test_detached_spans_do_not_become_implicit_parents(tmp_path):
    tracer = Tracer(tmp_path, "w0")
    root = tracer.begin("campaign.run")
    attempt = tracer.begin(
        "campaign.attempt", parent=root.id, detached=True
    )
    with tracer.span("store.append"):
        pass
    tracer.end(attempt, outcome="ok")
    tracer.end(root)
    tracer.close()
    named = spans_by_name(load_trace_file(tracer.path))
    # The detached attempt never joined the stack: the append's parent
    # is the root, not the attempt held open by the scheduler.
    assert named["store.append"]["parent"] == root.id
    assert named["campaign.attempt"]["parent"] == root.id


# ----------------------------------------------------------------------
# Crash tolerance
# ----------------------------------------------------------------------


def test_torn_tail_is_skipped_not_fatal(tmp_path):
    tracer = Tracer(tmp_path, "w0")
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    tracer.close()
    with open(tracer.path, "a") as handle:
        handle.write('{"k":"b","id":"w0:0000')  # the SIGKILL'd last line
    loaded = load_trace_file(tracer.path)
    assert loaded["skipped"] == 1
    assert sorted(spans_by_name(loaded)) == ["inner", "outer"]


def test_killed_writer_leaves_open_spans(tmp_path):
    """A begin with no end — the writer died mid-span — loads as an
    open span (t1 None), preserving its identity and parent link."""
    tracer = Tracer(tmp_path, "w0")
    outer = tracer.begin("campaign.run")
    tracer.begin("campaign.attempt", parent=outer.id, scenario="s/9")
    del tracer  # never ended, never closed: the SIGKILL shape
    path = trace_file_paths(tmp_path)[0]
    loaded = load_trace_file(path)
    assert loaded["skipped"] == 0
    named = spans_by_name(loaded)
    assert named["campaign.run"]["open"] is True
    assert named["campaign.run"]["t1"] is None
    assert named["campaign.attempt"]["parent"] == named["campaign.run"]["id"]
    assert named["campaign.attempt"]["attrs"] == {"scenario": "s/9"}


def test_trace_summary_skips_open_spans_durations(tmp_path):
    """The digest counts an open span (a killed writer's) and gives it
    zero seconds."""
    tracer = Tracer(tmp_path, "w0")
    with tracer.span("closed"):
        pass
    tracer.begin("abandoned")
    tracer.close()
    summary = trace_summary(tmp_path)
    assert summary["files"] == 1 and summary["skipped_lines"] == 0
    assert summary["spans"]["abandoned"] == {"count": 1, "seconds": 0.0}
    assert summary["spans"]["closed"]["count"] == 1
    assert summary["spans"]["closed"]["seconds"] >= 0.0


def test_orphan_end_is_skipped(tmp_path):
    tracer = Tracer(tmp_path, "w0")
    with tracer.span("real"):
        pass
    tracer.close()
    with open(tracer.path, "a") as handle:
        handle.write('{"k":"e","id":"other:000042","t1":1.0}\n')
    loaded = load_trace_file(tracer.path)
    assert loaded["skipped"] == 1
    assert list(spans_by_name(loaded)) == ["real"]


def test_unreadable_header_yields_empty_source(tmp_path):
    path = tmp_path / "trace-junk.jsonl"
    path.write_text('{"k":"header","format":"other","version":9}\n')
    loaded = load_trace_file(path)
    assert loaded["header"] is None
    assert loaded["spans"] == []
    assert loaded["skipped"] == 1


# ----------------------------------------------------------------------
# Multi-writer merge
# ----------------------------------------------------------------------


def write_worker_pair(directory):
    """A coordinator file plus a worker file whose root span parents
    across files to the coordinator's attempt span (the campaign
    shape).  Returns the attempt span's id."""
    coordinator = Tracer(directory, "wA")
    root = coordinator.begin("campaign.run")
    attempt = coordinator.begin(
        "campaign.attempt", parent=root.id, detached=True
    )
    worker = Tracer(directory, "wA.s0")
    with worker.span("scenario.run", parent=attempt.id):
        pass
    worker.close()
    coordinator.end(attempt, outcome="ok")
    coordinator.end(root)
    coordinator.close()
    return attempt.id


def test_merge_is_deterministic_across_runs(tmp_path):
    """Same logical run, same labels -> byte-for-byte identical merged
    span identities, regardless of which run produced them."""
    first = tmp_path / "run1"
    second = tmp_path / "run2"
    write_worker_pair(first)
    write_worker_pair(second)
    strip = lambda spans: [  # noqa: E731 - timing fields differ by run
        {k: s[k] for k in ("id", "parent", "name", "open", "file")}
        for s in spans
    ]
    assert strip(merge_spans(first)) == strip(merge_spans(second))


def test_merge_links_worker_spans_to_coordinator(tmp_path):
    attempt_id = write_worker_pair(tmp_path)
    merged = {span["id"]: span for span in merge_spans(tmp_path)}
    scenario = next(
        span for span in merged.values() if span["name"] == "scenario.run"
    )
    assert scenario["parent"] == attempt_id
    assert merged[attempt_id]["file"] != scenario["file"]
    # Merged order is id-sorted, so it is stable under file arrival order.
    assert list(merged) == sorted(merged)


def test_merge_rejects_colliding_labels(tmp_path):
    for _ in range(2):
        tracer = Tracer(tmp_path, "same-label")
        with tracer.span("x"):
            pass
        tracer.close()
        # A second writer of a label present in the directory takes
        # <label>-r2, so simulate a collision (e.g. a copied-in file)
        # by renaming the first file out of the way.
        if not (tmp_path / "trace-other.jsonl").exists():
            tracer.path.rename(tmp_path / "trace-other.jsonl")
    with pytest.raises(ValueError, match="appears in both"):
        merge_spans(tmp_path)


# ----------------------------------------------------------------------
# Rebinding: one file per campaign scenario, in long-lived workers
# ----------------------------------------------------------------------


def test_configure_leaves_the_environment_untouched(tmp_path):
    """Tracing state lives in the configuring process and the workers
    it forks: arming and disarming it writes no environment variable."""
    before = dict(os.environ)
    obs.configure(tmp_path, label="w0")
    armed = dict(os.environ)
    obs.reset()
    assert armed == before
    assert dict(os.environ) == before


def test_rebind_closes_the_file_the_previous_scenario_opened(tmp_path):
    """A reused campaign worker rebinds once per scenario.  Each rebind
    closes the file the previous scenario's tracer opened in this
    process, so no handle is left for the garbage collector."""
    obs.configure(tmp_path, label="all")
    labels = [f"all.web_0-s{i}" for i in range(3)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        for label in labels:
            obs.rebind(label)
            with obs.tracer().span("scenario.run"):
                pass
        obs.reset()
        gc.collect()
    assert [w.message for w in caught if w.category is ResourceWarning] == []
    for label in labels:
        loaded = load_trace_file(tmp_path / f"trace-{label}.jsonl")
        assert [span["name"] for span in loaded["spans"]] == ["scenario.run"]


def _rebind_in_forked_child(inherited):
    obs.rebind("all.child")
    with obs.tracer().span("scenario.run"):
        pass
    handle = inherited._handle
    sys.exit(0 if handle is not None and not handle.closed else 3)


def test_rebind_never_closes_a_handle_inherited_across_fork(tmp_path):
    obs.configure(tmp_path, label="all")
    parent = obs.tracer()
    with parent.span("campaign.run"):  # opens the parent's file
        child = multiprocessing.get_context("fork").Process(
            target=_rebind_in_forked_child, args=(parent,)
        )
        child.start()
        child.join(timeout=60)
    assert child.exitcode == 0, "the child closed the parent's handle"
    obs.reset()
    assert [s["name"] for s in load_trace_file(parent.path)["spans"]] == [
        "campaign.run"
    ]
    assert load_trace_file(tmp_path / "trace-all.child.jsonl")["spans"]
