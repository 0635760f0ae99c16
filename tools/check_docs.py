#!/usr/bin/env python
"""Docs gate for CI: public docstrings present, markdown links resolve,
README's throughput table matches the bench record, quoted commands
name real modules.

Four checks, all hard failures:

1. **Docstrings.**  Imports :mod:`repro` and verifies every name in
   ``repro.__all__`` plus the documented batched primitives (the API
   surface ``docs/architecture.md`` describes) carries a docstring.
2. **Links.**  Every relative markdown link in ``README.md`` and
   ``docs/*.md`` must point at an existing file (anchors are stripped;
   external ``http(s)`` links are not fetched).
3. **Bench numbers.**  Every measured number README's throughput table
   quotes is mapped to the ``BENCH_physics.json`` ``section.key`` it
   quotes (:data:`README_QUOTES`) and must lie within 10% of it.
4. **Module quotes.**  Every ``python -m repro.<module>`` quoted in
   ``README.md`` and ``docs/*.md`` must name a module
   :func:`importlib.util.find_spec` finds.  ``ROADMAP.md`` is left
   out: it proposes modules that do not exist yet.

Run from the repo root: ``PYTHONPATH=src python tools/check_docs.py``.
"""

from __future__ import annotations

import importlib.util
import json
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

#: attribute paths (under the repro package) whose docstrings are part of
#: the documented contract — the batched primitives and the sweep API.
DOCUMENTED_NAMES = [
    "flash.block.FlashBlock.page_error_counts",
    "flash.block.FlashBlock.threshold_sweep_counts",
    "flash.block.FlashBlock.invalidate_voltage_cache",
    "flash.block.FlashBlock.record_retry_sweep",
    "flash.block.FlashBlock.program_wordline_bits",
    "rng.block_spawn_key",
    "workloads.trace_cache.generated_trace",
    "ecc.decoder.EccDecoder.check_pages",
    "controller.backends.FlashChipBackend.on_reads",
    "controller.ftl.PageMappingFtl.relocate_block",
    "controller.ftl.PageMappingFtl.write_many",
    "controller.ftl.FtlObserver.on_write_run",
    "controller.factory.run_scenario",
    "controller.factory.build_engine",
    "rng.spawn_key",
    "workloads.grid.Scenario",
    "workloads.grid.ScenarioGrid",
    "workloads.suites.suite_grid",
    "parallel.runner.SweepRunner",
    "parallel.runner.SweepRunner.run",
    "parallel.runner.SweepRunner.map",
    "parallel.runner.run_tasks",
    "parallel.runner.check_grid",
    "parallel.campaign.Campaign.run",
    "parallel.results.ScenarioResult",
    "parallel.results.SweepReport",
]

MARKDOWN_FILES = ["README.md", "docs/architecture.md", "ROADMAP.md"]

_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")

#: (table row, column, pattern, section.key): where README's throughput
#: table quotes a number recorded in BENCH_physics.json.  The row is the
#: first cell, the column is "throughput" or "notes", and the pattern's
#: group captures the number with an optional k/M suffix.
README_QUOTES = [
    ("counter backend, batched", "throughput", r"~([\d.]+[kM]?) trace ops/s",
     "engine_throughput.counter_batched_ops_per_sec"),
    ("counter backend, batched", "notes", r"([\d.]+)x over per-op",
     "engine_throughput.counter_batched_speedup"),
    ("counter backend, per-op", "throughput", r"~([\d.]+[kM]?) trace ops/s",
     "engine_throughput.counter_per_op_ops_per_sec"),
    ("counter backend, batched, Figure-8 suite", "throughput",
     r"~([\d.]+[kM]?) trace ops/s", "engine_throughput.counter_suite_ops_per_sec"),
    ("counter backend, batched, Figure-8 suite", "notes", r"([\d.]+)x over per-op",
     "engine_throughput.counter_suite_speedup"),
    ("flash-chip backend, batched", "throughput", r"~([\d.]+[kM]?) trace ops/s",
     "engine_throughput.flash_chip_ops_per_sec"),
    ("relaxed-Vpass decode", "throughput", r"([\d.]+)x over scalar",
     "physics_hotpath.decode_relaxed_speedup"),
    ("full-block RBER measurement", "throughput", r"([\d.]+)x over scalar",
     "physics_hotpath.block_rber_speedup"),
    ("sharded sweeps (`workers=N`)", "throughput", r"([\d.]+)x at `workers=2`",
     "sweep_parallel.speedup_workers_2"),
]

#: largest relative gap allowed between a quoted and a recorded number.
README_TOLERANCE = 0.10

_SUFFIX = {"": 1.0, "k": 1e3, "M": 1e6}

#: a quoted ``python -m repro.<module>`` command, possibly wrapped over a
#: line break; the group captures the dotted module name.
_MODULE_QUOTE = re.compile(r"python3?\s+-m\s+(repro(?:\.\w+)*)")


def _resolve(path: str):
    import repro

    obj = repro
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


def check_docstrings() -> list[str]:
    import repro

    problems = []
    for name in repro.__all__:
        if name == "__version__":
            continue
        obj = getattr(repro, name, None)
        if obj is None:
            problems.append(f"repro.{name}: exported but missing")
        elif not isinstance(obj, (int, float, str)) and not getattr(
            obj, "__doc__", None
        ):
            problems.append(f"repro.{name}: missing docstring")
    for path in DOCUMENTED_NAMES:
        try:
            obj = _resolve(path)
        except AttributeError as exc:
            problems.append(f"repro.{path}: cannot resolve ({exc})")
            continue
        if not getattr(obj, "__doc__", None):
            problems.append(f"repro.{path}: missing docstring")
    return problems


def check_links() -> list[str]:
    problems = []
    for name in MARKDOWN_FILES:
        source = REPO / name
        if not source.exists():
            problems.append(f"{name}: file missing")
            continue
        for target in _LINK.findall(source.read_text()):
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            relative = target.split("#", 1)[0]
            if not relative:
                continue  # pure in-page anchor
            if not (source.parent / relative).exists():
                problems.append(f"{name}: broken link -> {target}")
    return problems


def _table_rows(readme: str) -> dict[str, dict[str, str]]:
    """Markdown table rows keyed by first cell, as throughput/notes cells."""
    rows = {}
    for line in readme.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if line.startswith("|") and len(cells) == 3:
            rows[cells[0]] = {"throughput": cells[1], "notes": cells[2]}
    return rows


def check_readme_numbers(readme: str, record: dict) -> list[str]:
    """Every README quote more than 10% away from its recorded value."""
    rows = _table_rows(readme)
    problems = []
    for row, column, pattern, path in README_QUOTES:
        where = f"README.md row {row!r} ({column})"
        cell = rows.get(row, {}).get(column)
        match = re.search(pattern, cell) if cell is not None else None
        if match is None:
            problems.append(f"{where}: no number matching {pattern!r}")
            continue
        section, key = path.split(".")
        recorded = record.get(section, {}).get(key)
        if recorded is None:
            problems.append(f"{where}: {path} is not in BENCH_physics.json")
            continue
        text = match.group(1)
        quoted = float(text.rstrip("kM")) * _SUFFIX[text.lstrip("0123456789.")]
        if abs(quoted - recorded) > README_TOLERANCE * abs(recorded):
            problems.append(
                f"{where}: quotes {text}, but {path} records {recorded}"
            )
    return problems


def check_module_quotes(documents: dict[str, str]) -> list[str]:
    """Every quoted ``python -m repro.<module>`` that names no module,
    over *documents* (display name -> markdown text)."""
    problems = []
    for name, text in documents.items():
        for module in sorted(set(_MODULE_QUOTE.findall(text))):
            try:
                found = importlib.util.find_spec(module) is not None
            except ModuleNotFoundError:  # a parent package is missing
                found = False
            if not found:
                problems.append(
                    f"{name}: quotes `python -m {module}`, but no such "
                    f"module exists"
                )
    return problems


def main() -> int:
    record = json.loads((REPO / "BENCH_physics.json").read_text())
    documents = {
        str(path.relative_to(REPO)): path.read_text()
        for path in [REPO / "README.md", *sorted((REPO / "docs").glob("*.md"))]
    }
    problems = (
        check_docstrings()
        + check_links()
        + check_readme_numbers(documents["README.md"], record)
        + check_module_quotes(documents)
    )
    if problems:
        print("docs check FAILED:")
        for problem in problems:
            print(f"  - {problem}")
        return 1
    print(
        f"docs check OK: {len(DOCUMENTED_NAMES)} documented names, "
        f"links resolve in {', '.join(MARKDOWN_FILES)}, "
        f"{len(README_QUOTES)} README numbers match BENCH_physics.json, "
        f"quoted modules exist in {', '.join(documents)}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
