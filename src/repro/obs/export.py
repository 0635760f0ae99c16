"""Post-hoc telemetry snapshots: ``metrics.json`` + Prometheus textfile.

``python -m repro.obs.export <campaign-dir>`` renders a
machine-readable snapshot of a campaign directory from its durable
artifacts alone — the result store (records, failure ledger) and any
trace files under ``<campaign>/trace`` — so it works identically on a
running, crashed, or finished campaign, with no connection to any
worker.

Two files land in ``<campaign>/obs/`` (or ``--out DIR``):

``metrics.json``
    One schema-versioned document: the full campaign status (the same
    payload ``--status --json`` prints), a per-span-name trace digest
    (count + total seconds), and a flat ``metrics`` map.

``metrics.prom``
    The flat map rendered as a Prometheus-style textfile, ready for a
    node-exporter textfile collector.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

EXPORT_FORMAT = "repro-obs-snapshot"
EXPORT_VERSION = 3


def trace_summary(trace_dir: str | os.PathLike) -> dict:
    """Digest a trace directory: spans per name, seconds per name.

    Tolerates a missing directory (tracing was off) and torn files (a
    worker died mid-span) — both simply contribute nothing.
    """
    from repro.obs.tracing import load_trace_dir

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


def _flat_metrics(status: dict, trace: dict) -> dict:
    """The snapshot's flat counter/gauge map (what the .prom renders)."""
    failures = status.get("failures", {})
    counters = {
        "campaign.completed": status.get("completed", 0),
        "campaign.failures": failures.get("total", 0),
        "store.corrupt_records": status.get("corrupt_records", 0),
        "trace.span_files": trace.get("files", 0),
        "trace.skipped_lines": trace.get("skipped_lines", 0),
    }
    for kind, count in sorted(failures.get("kinds", {}).items()):
        counters[f"campaign.failures.{kind.replace('-', '_')}"] = count
    gauges = {
        "campaign.scenario_count": status.get("scenario_count") or 0,
    }
    histograms = {
        f"trace.{name}": {
            "count": entry["count"],
            "total": entry["seconds"],
            "min": None,
            "max": None,
            "mean": None,
        }
        for name, entry in trace.get("spans", {}).items()
    }
    return {"counters": counters, "gauges": gauges,
            "histograms": histograms}


def _series(name: str) -> str:
    """A dotted metric name's Prometheus series name."""
    return "repro_" + name.replace(".", "_")


def render_prometheus(flat: dict) -> str:
    """Render the flat metrics map as a Prometheus-style textfile.

    Counters gain ``_total``, gauges render as-is, and histograms
    render as a summary's ``_count`` / ``_sum`` pair.
    """
    lines = []
    for name, value in sorted(flat.get("counters", {}).items()):
        lines.append(f"# TYPE {_series(name)}_total counter")
        lines.append(f"{_series(name)}_total {value}")
    for name, value in sorted(flat.get("gauges", {}).items()):
        lines.append(f"# TYPE {_series(name)} gauge")
        lines.append(f"{_series(name)} {value}")
    for name, summary in sorted(flat.get("histograms", {}).items()):
        lines.append(f"# TYPE {_series(name)} summary")
        lines.append(f"{_series(name)}_count {summary['count']}")
        lines.append(f"{_series(name)}_sum {summary['total']}")
    return "\n".join(lines) + "\n"


def build_snapshot(root: str | os.PathLike) -> dict:
    """The full snapshot document for a campaign directory."""
    from repro.parallel.campaign import campaign_status

    status = campaign_status(root)
    trace = trace_summary(Path(root) / "trace")
    return {
        "format": EXPORT_FORMAT,
        "version": EXPORT_VERSION,
        "status": status,
        "trace": trace,
        "metrics": _flat_metrics(status, trace),
    }


def export_snapshot(
    root: str | os.PathLike, out_dir: str | os.PathLike | None = None
) -> dict:
    """Write ``metrics.json`` + ``metrics.prom``; return their paths."""
    snapshot = build_snapshot(root)
    out = Path(out_dir) if out_dir is not None else Path(root) / "obs"
    out.mkdir(parents=True, exist_ok=True)
    json_path = out / "metrics.json"
    prom_path = out / "metrics.prom"
    json_path.write_text(
        json.dumps(snapshot, indent=2, sort_keys=True) + "\n"
    )
    prom_path.write_text(render_prometheus(snapshot["metrics"]))
    return {"snapshot": snapshot, "json": json_path, "prom": prom_path}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.export",
        description="Render a machine-readable telemetry snapshot of a "
        "campaign directory (store + traces; no live workers "
        "needed).",
    )
    parser.add_argument("root", type=Path, help="campaign store directory")
    parser.add_argument(
        "--out", type=Path, default=None, metavar="DIR",
        help="output directory (default: <root>/obs)",
    )
    args = parser.parse_args(argv)
    try:
        written = export_snapshot(args.root, args.out)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    print(f"wrote {written['json']}")
    print(f"wrote {written['prom']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
