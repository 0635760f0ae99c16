#!/usr/bin/env python
"""Docs gate for CI: public docstrings present, markdown links resolve.

Two checks, both hard failures:

1. **Docstrings.**  Imports :mod:`repro` and verifies every name in
   ``repro.__all__`` plus the documented batched primitives (the API
   surface ``docs/architecture.md`` describes) carries a docstring.
2. **Links.**  Every relative markdown link in ``README.md`` and
   ``docs/*.md`` must point at an existing file (anchors are stripped;
   external ``http(s)`` links are not fetched).

Run from the repo root: ``PYTHONPATH=src python tools/check_docs.py``.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

#: attribute paths (under the repro package) whose docstrings are part of
#: the documented contract — the batched primitives and the sweep API.
DOCUMENTED_NAMES = [
    "flash.block.FlashBlock.read_pages",
    "flash.block.FlashBlock.page_error_counts",
    "flash.block.FlashBlock.threshold_sweep_counts",
    "flash.block.FlashBlock.block_voltages",
    "flash.block.FlashBlock.invalidate_voltage_cache",
    "flash.block.FlashBlock.record_retry_sweep",
    "flash.block.FlashBlock.program_wordline_bits",
    "controller.executor.BlockExecutor",
    "controller.executor.BlockExecutor.from_spec",
    "controller.executor.BlockExecutor.map",
    "workloads.grid.parse_executor_spec",
    "rng.block_spawn_key",
    "workloads.trace_cache.generated_trace",
    "ecc.decoder.EccDecoder.decode_pages",
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


def main() -> int:
    problems = check_docstrings() + check_links()
    if problems:
        print("docs check FAILED:")
        for problem in problems:
            print(f"  - {problem}")
        return 1
    print(
        f"docs check OK: {len(DOCUMENTED_NAMES)} documented names, "
        f"links resolve in {', '.join(MARKDOWN_FILES)}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
