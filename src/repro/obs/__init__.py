"""``repro.obs``: the unified telemetry layer (span tracing).

Zero-dependency observability for the whole stack — the engine's
windows, the flash backend's plan/execute/merge flushes, the sweep
runner, and the campaign layer's attempts and store appends all report
here.  Two pieces:

- :mod:`repro.obs.tracing` — nested timed spans emitted as
  crash-tolerant, schema-versioned JSONL, one file per participating
  process, merged by deterministic span ids;
- :func:`repro.obs.tracing.trace_summary` — the per-span-name digest
  (span count + summed seconds) of a trace directory, which
  ``--status --json`` carries as its ``trace`` key, so the campaign's
  one machine-readable health document is read from store + trace
  state alone.

**The out-of-band contract.**  Telemetry observes the run; it never
participates.  Nothing in this package feeds an RNG stream, a scenario
id, a seed derivation, or a result payload — so every equivalence
suite (batched vs. per-op engines, ``workers=1`` vs. ``workers=N``,
resumed vs. uninterrupted campaigns) passes bit-for-bit
with tracing on, and the disabled path (the shared
:class:`~repro.obs.tracing.NullTracer`) is cheap enough that the
flash-chip bench gates it at <2% (``telemetry_overhead_ratio`` in
``BENCH_physics.json``).

**Process model.**  State is module-global and per-process, and has
two values: tracing into a directory under a label, or off.
:func:`configure` arms it (usually from the CLI's ``--trace``), forked
workers inherit it, and each worker that wants a deterministic
identity calls :func:`rebind` with its logical label (campaign
scenario workers do; anonymous forked sweep workers fall back to the
tracer's pid-suffix fork safety).  A worker started by spawn, which
shares no memory with its parent, runs untraced.
"""

from __future__ import annotations

import os

from repro.obs.tracing import (
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    load_trace_dir,
    load_trace_file,
    merge_spans,
    trace_file_paths,
    trace_summary,
)

__all__ = [
    "Span",
    "Tracer",
    "NullTracer",
    "configure",
    "rebind",
    "reset",
    "tracer",
    "load_trace_dir",
    "load_trace_file",
    "merge_spans",
    "trace_file_paths",
    "trace_summary",
]

_tracer: Tracer | NullTracer = NULL_TRACER


def tracer() -> Tracer | NullTracer:
    """The process's tracer (the shared no-op until :func:`configure`)."""
    return _tracer


def configure(
    trace_dir: str | os.PathLike | None, *, label: str | None = None
) -> None:
    """Arm (or with ``trace_dir=None`` disarm) tracing in this process.

    With a *trace_dir* the process gets a :class:`Tracer` writing
    ``trace-<label>.jsonl`` there; with ``None`` it gets the shared
    :class:`NullTracer` back.  *label* defaults to ``p<pid>`` —
    deterministic callers (the campaign CLI) pass their writer name
    instead.  A label whose file an earlier run left in *trace_dir*
    becomes ``<label>-r<k>`` (see :class:`Tracer`).
    """
    global _tracer
    _tracer.close()
    if trace_dir is None:
        _tracer = NULL_TRACER
    else:
        _tracer = Tracer(
            trace_dir, label if label is not None else f"p{os.getpid()}"
        )


def rebind(label: str) -> None:
    """Give this process's tracer a fresh deterministic identity.

    Called by workers that inherited a configured tracer across fork
    and know their logical name — e.g. a campaign scenario worker's
    ``<worker>.<scenario>``.
    The new tracer starts a fresh file and id sequence, so span ids
    are stable across runs regardless of pids or scheduling.  The old
    tracer's file is closed if this process opened it (the previous
    scenario of a reused worker), never if it was inherited across
    fork (:meth:`Tracer.close`)."""
    global _tracer
    if not _tracer.enabled:
        return
    old = _tracer
    old.close()
    _tracer = Tracer(old.directory, label)


def reset() -> None:
    """Disarm telemetry and drop all state (test isolation hook)."""
    configure(None)
