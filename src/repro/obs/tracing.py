"""Span tracing: nested timed spans as crash-tolerant JSONL.

One :class:`Tracer` writes one append-only ``trace-<label>.jsonl`` file
in the trace directory.  Every process that participates in a run —
the campaign parent, each per-scenario worker, forked sweep workers —
gets its own file (a writer never shares a file handle across a fork),
and the per-file span **ids** are what stitch the files back together:
``merge_spans`` unions a directory's files into one id-keyed span set,
and cross-file parent links (a worker's root span pointing at the
parent process's attempt span) reconstruct the full tree.

**File format** (schema-versioned, one JSON object per line):

- line 1 — header: ``{"k": "header", "format": "repro-trace",
  "version": 1, "label": ..., "pid": ..., "wall_start": ...}``
- span begin: ``{"k": "b", "id": ..., "parent": ..., "name": ...,
  "t0": ..., "attrs": {...}}``
- span end: ``{"k": "e", "id": ..., "t1": ..., "attrs": {...}}``
- a complete span in one line: ``{"k": "span", "id": ..., "parent":
  ..., "name": ..., "t0": ..., "t1": ..., "attrs": {...}}``.  Nothing
  writes these any more; the loader still reads them from older traces.

``t0``/``t1`` are monotonic-clock seconds — comparable within a file,
not across files.  Spans are written as **begin/end event pairs** (not
one line at end) deliberately: a parent's begin line always precedes
its children's lines, so parent links resolve even in the trace of a
worker that was SIGKILL'd mid-span — the unmatched begins load as
*open* spans (``t1 is None``) instead of vanishing.

**Crash tolerance** mirrors the result store's records: every event is
a single line-buffered ``write()`` of a full line, so a SIGKILL can
tear at most the trailing line, and :func:`load_trace_file` skips any
line that fails to parse — a dead worker's trace still loads.

**Determinism of ids.**  Span ids are ``<label>:<seq>`` with a
per-tracer monotonic sequence number — under deterministic control
flow (everything in this repo) the ids are stable across runs, which
is what lets two runs' merged traces be compared structurally.  A
writer whose ``trace-<label>.jsonl`` an earlier run left in the
directory (a ``--resume``, a shard rerun, a second traced sweep) takes
the first free ``<label>-r<k>``, k = 2, 3, … (see
:meth:`Tracer._ensure_open`), so a rerun never reuses an id.

**What a traced run writes** is decided by the run, not by a knob:
windows, scenarios, attempts and store appends, plus every flash-chip
read flush with its plan/execute/merge phases.

**Out-of-band contract.**  Nothing here feeds RNG streams, scenario
ids, or result payloads; a tracer failing to write must never fail the
run (writes raise only on programmer error, not on I/O — see
``_emit``).
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path

__all__ = [
    "TRACE_FORMAT",
    "TRACE_VERSION",
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "NULL_SPAN",
    "trace_file_paths",
    "load_trace_file",
    "load_trace_dir",
    "trace_summary",
    "merge_spans",
]

TRACE_FORMAT = "repro-trace"
TRACE_VERSION = 1


class Span:
    """One in-flight span; becomes a JSONL line when ended."""

    __slots__ = ("id", "parent", "name", "t0", "attrs")

    def __init__(self, span_id: str, parent: str | None, name: str,
                 t0: float, attrs: dict):
        self.id = span_id
        self.parent = parent
        self.name = name
        self.t0 = t0
        self.attrs = attrs

    def __repr__(self) -> str:
        return f"Span(id={self.id!r}, name={self.name!r})"


class _SpanContext:
    """Context-manager shim for ``with tracer.span(...)``."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span):
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        return self._span

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self._tracer.end(self._span, error=exc_type.__name__)
        else:
            self._tracer.end(self._span)
        return False


class Tracer:
    """Emit spans for one process into ``<directory>/trace-<label>.jsonl``.

    Parameters
    ----------
    directory:
        The trace directory (created on first write).  For a campaign
        this is ``<campaign>/trace``; every participating process
        writes its own file here.
    label:
        This writer's logical name — it prefixes every span id, so it
        must be unique among the run's writers *and* stable across
        runs for ids to be comparable (campaign workers use
        ``<writer>.<scenario>``, not a pid).  When the
        directory already holds this label's file, the tracer writes
        as ``<label>-r<k>`` instead (:attr:`label` tells which).
    """

    enabled = True

    def __init__(self, directory: str | os.PathLike, label: str):
        self.directory = Path(directory)
        self.label = str(label)
        self._seq = 0
        self._pid = os.getpid()
        self._handle = None
        # Handles inherited across fork (see _ensure_open).
        self._inherited_handles = []
        self._lock = threading.Lock()
        self._stacks = threading.local()

    # ------------------------------------------------------------------
    # File lifecycle
    # ------------------------------------------------------------------

    @property
    def path(self) -> Path:
        return self.directory / f"trace-{self.label}.jsonl"

    def _ensure_open(self):
        """Open (or fork-reopen) this writer's file, header first.

        A forked child inherits the tracer object but must never share
        the parent's file handle or id space: on the first write after
        a pid change the tracer re-labels itself ``<label>-p<pid>``,
        resets its sequence, and opens a fresh file.  (Campaign
        scenario workers avoid the pid suffix entirely by re-binding a
        deterministic label first — see :func:`repro.obs.rebind`.)

        The file is created exclusively.  If an earlier writer — a
        previous run traced into the same directory — already holds
        ``trace-<label>.jsonl``, the tracer takes the first free
        ``<label>-r<k>`` (k = 2, 3, …), so its ids cannot collide with
        the earlier run's and the loader never overwrites its spans.
        """
        pid = os.getpid()
        if self._handle is not None and pid == self._pid:
            return self._handle
        if self._handle is not None:
            # Forked: the inherited handle is the parent's.  It stays
            # referenced, never written, flushed or closed here: dropped,
            # the garbage collector would close it.  The thread's
            # inherited span stack is kept: spans the parent opened are
            # this child's natural implicit parents (their begin lines
            # live in the parent's file; only the parent ends them).
            self._inherited_handles.append(self._handle)
            self._handle = None
            self.label = f"{self.label}-p{pid}"
            self._seq = 0
            self._lock = threading.Lock()
        self._pid = pid
        self.directory.mkdir(parents=True, exist_ok=True)
        # Line-buffered: each span is one write() of one line, so a
        # SIGKILL tears at most the trailing line.
        base, rerun = self.label, 1
        while self._handle is None:
            try:
                self._handle = open(self.path, "x", buffering=1)
            except FileExistsError:
                rerun += 1
                self.label = f"{base}-r{rerun}"
        self._emit({
            "k": "header",
            "format": TRACE_FORMAT,
            "version": TRACE_VERSION,
            "label": self.label,
            "pid": pid,
            "wall_start": time.time(),
        })
        return self._handle

    def _emit(self, record: dict) -> None:
        line = json.dumps(record, separators=(",", ":"), sort_keys=True)
        handle = self._handle
        handle.write(line + "\n")

    def close(self) -> None:
        """Close this writer's file if this process opened it.  A handle
        inherited across fork is left alone: it is the parent's."""
        if self._handle is not None and self._pid == os.getpid():
            try:
                self._handle.close()
            except OSError:
                pass
            self._handle = None

    # ------------------------------------------------------------------
    # Span API
    # ------------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._stacks, "spans", None)
        if stack is None:
            stack = self._stacks.spans = []
        return stack

    def current_id(self) -> str | None:
        """Id of this thread's innermost open span (implicit parent)."""
        stack = self._stack()
        return stack[-1].id if stack else None

    def begin(self, name: str, *, parent: str | None = None,
              detached: bool = False, **attrs) -> Span:
        """Open a span; pair with :meth:`end` (or use :meth:`span`).

        The parent defaults to this thread's innermost open span.
        *detached* spans are not pushed on the thread's stack — use it
        for spans that overlap arbitrarily (e.g. concurrent campaign
        attempts held open by the scheduler) with an explicit *parent*.
        """
        if parent is None:
            parent = self.current_id()
        t0 = time.monotonic()
        with self._lock:
            self._ensure_open()
            span_id = f"{self.label}:{self._seq:06d}"
            self._seq += 1
            record = {"k": "b", "id": span_id, "parent": parent,
                      "name": name, "t0": t0}
            if attrs:
                record["attrs"] = dict(attrs)
            self._emit(record)
        span = Span(span_id, parent, name, t0, dict(attrs))
        if not detached:
            self._stack().append(span)
        return span

    def end(self, span: Span, **attrs) -> None:
        """Close *span* and write its end line; out-of-order ends are
        fine (the stack removal tolerates overlap)."""
        t1 = time.monotonic()
        stack = self._stack()
        if span in stack:
            stack.remove(span)
        record = {"k": "e", "id": span.id, "t1": t1}
        if attrs:
            record["attrs"] = attrs
        with self._lock:
            self._ensure_open()
            self._emit(record)

    def span(self, name: str, **attrs) -> _SpanContext:
        """``with tracer.span("engine.window", window=3): ...``"""
        return _SpanContext(self, self.begin(name, **attrs))

    def __repr__(self) -> str:
        return f"Tracer(label={self.label!r})"


class _NullSpanContext:
    __slots__ = ()

    def __enter__(self):
        return NULL_SPAN

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


class NullTracer:
    """The disabled tracer: every operation is a shared-singleton no-op."""

    enabled = False
    label = ""

    def begin(self, name: str, **kwargs) -> Span:
        return NULL_SPAN

    def end(self, span: Span, **attrs) -> None:
        pass

    def span(self, name: str, **attrs) -> _NullSpanContext:
        return _NULL_CONTEXT

    def current_id(self) -> None:
        return None

    def close(self) -> None:
        pass

    def __repr__(self) -> str:
        return "NullTracer()"


NULL_SPAN = Span("", None, "", 0.0, {})
NULL_TRACER = NullTracer()
_NULL_CONTEXT = _NullSpanContext()


# ----------------------------------------------------------------------
# Loading and merging
# ----------------------------------------------------------------------


def trace_file_paths(directory: str | os.PathLike) -> list[Path]:
    """Every trace file in *directory*, sorted by filename."""
    return sorted(Path(directory).glob("trace-*.jsonl"))


def load_trace_file(path: str | os.PathLike) -> dict:
    """Parse one trace file, skipping torn/corrupt lines.

    Returns ``{"path", "header", "spans", "skipped"}``; *header* is
    ``None`` when even the header line is unreadable (the file is then
    just an empty span source, like a store file that is all torn
    tail).  Begin/end event pairs are matched by id; a begin without an
    end — the worker died mid-span — loads as an *open* span with
    ``t1 is None`` and ``"open": True``.  An end without a begin (a
    fork child ending a span its parent opened) is dropped.  Raises
    only on an unreadable file, never on content.
    """
    path = Path(path)
    header = None
    spans: list[dict] = []
    by_id: dict[str, dict] = {}
    skipped = 0
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
                kind = record["k"]
            except (json.JSONDecodeError, TypeError, KeyError):
                skipped += 1  # torn tail or corruption — skip, like the store
                continue
            try:
                if kind == "header":
                    if (
                        record.get("format") == TRACE_FORMAT
                        and record.get("version") == TRACE_VERSION
                        and header is None
                    ):
                        header = record
                    else:
                        skipped += 1
                elif kind == "b":
                    span = {
                        "id": str(record["id"]),
                        "parent": record.get("parent"),
                        "name": str(record["name"]),
                        "t0": float(record["t0"]),
                        "t1": None,
                        "open": True,
                        "attrs": record.get("attrs") or {},
                        "file": path.name,
                    }
                    spans.append(span)
                    by_id[span["id"]] = span
                elif kind == "e":
                    span = by_id.get(str(record["id"]))
                    if span is None:
                        skipped += 1  # fork child closed a parent's span
                    else:
                        span["t1"] = float(record["t1"])
                        span["open"] = False
                        span["attrs"].update(record.get("attrs") or {})
                elif kind == "span":
                    spans.append({
                        "id": str(record["id"]),
                        "parent": record.get("parent"),
                        "name": str(record["name"]),
                        "t0": float(record["t0"]),
                        "t1": float(record["t1"]),
                        "open": False,
                        "attrs": record.get("attrs") or {},
                        "file": path.name,
                    })
                else:
                    skipped += 1
            except (KeyError, TypeError, ValueError):
                skipped += 1
    return {"path": path, "header": header, "spans": spans,
            "skipped": skipped}


def load_trace_dir(directory: str | os.PathLike) -> list[dict]:
    """Load every trace file of *directory* (sorted by filename)."""
    return [load_trace_file(path) for path in trace_file_paths(directory)]


def trace_summary(trace_dir: str | os.PathLike) -> dict:
    """Digest a trace directory: spans per name, seconds per name.

    Tolerates a missing directory (tracing was off) and torn files (a
    worker died mid-span) — both simply contribute nothing.
    """
    trace_dir = Path(trace_dir)
    by_name: dict[str, dict] = {}
    files = 0
    skipped = 0
    if trace_dir.is_dir():
        for loaded in load_trace_dir(trace_dir):
            files += 1
            skipped += loaded["skipped"]
            for span in loaded["spans"]:
                entry = by_name.setdefault(
                    span["name"], {"count": 0, "seconds": 0.0}
                )
                entry["count"] += 1
                if span["t1"] is not None:  # open spans have no duration
                    entry["seconds"] += max(0.0, span["t1"] - span["t0"])
    for entry in by_name.values():
        entry["seconds"] = round(entry["seconds"], 6)
    return {
        "files": files,
        "skipped_lines": skipped,
        "spans": {name: by_name[name] for name in sorted(by_name)},
    }


def merge_spans(directory: str | os.PathLike) -> list[dict]:
    """Union a trace directory's spans into one id-sorted list.

    Duplicate ids across files raise — per-writer files and
    deterministic labels make ids globally unique by construction, so
    a collision means two writers shared a label (a bug worth
    surfacing, not folding away).
    """
    merged: dict[str, dict] = {}
    for loaded in load_trace_dir(directory):
        for span in loaded["spans"]:
            previous = merged.get(span["id"])
            if previous is not None and previous["file"] != span["file"]:
                raise ValueError(
                    f"span id {span['id']!r} appears in both "
                    f"{previous['file']} and {span['file']}"
                )
            merged[span["id"]] = span
    return [merged[span_id] for span_id in sorted(merged)]
