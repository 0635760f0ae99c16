"""The docs gate's README checks (tools/check_docs.py): the throughput
table must quote what ``BENCH_physics.json`` records, and every quoted
``python -m repro.<module>`` must name a module that exists."""

import importlib.util
import json
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location(
    "check_docs", REPO / "tools" / "check_docs.py"
)
check_docs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_docs)


def _committed():
    readme = (REPO / "README.md").read_text()
    record = json.loads((REPO / "BENCH_physics.json").read_text())
    return readme, record


def test_committed_readme_quotes_the_record():
    assert check_docs.check_readme_numbers(*_committed()) == []


def test_gate_catches_a_drifted_readme_number():
    readme, record = _committed()
    row = "flash-chip backend, batched"
    cell = check_docs._table_rows(readme)[row]["throughput"]
    # 20% above the record, past the gate's 10% tolerance.
    drifted_number = f"{1.2 * record['engine_throughput']['flash_chip_ops_per_sec']:.0f}"
    quote = f"| {row} | {cell} |"
    assert quote in readme
    drifted = readme.replace(quote, f"| {row} | ~{drifted_number} trace ops/s |")
    problems = check_docs.check_readme_numbers(drifted, record)
    assert len(problems) == 1
    assert "flash_chip_ops_per_sec" in problems[0] and drifted_number in problems[0]


def test_gate_catches_a_missing_row():
    readme, record = _committed()
    lines = [
        line for line in readme.splitlines()
        if not line.startswith("| relaxed-Vpass decode |")
    ]
    problems = check_docs.check_readme_numbers("\n".join(lines), record)
    assert any("relaxed-Vpass decode" in p for p in problems)


def test_gate_catches_a_quoted_module_that_does_not_exist():
    readme, _ = _committed()
    quoted = readme + "\n    PYTHONPATH=src python -m repro.no_such_module runs/x\n"
    problems = check_docs.check_module_quotes({"README.md": quoted})
    assert len(problems) == 1
    assert "repro.no_such_module" in problems[0]
