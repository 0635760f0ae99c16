"""The docs gate's README check (tools/check_docs.py): the throughput
table must quote what ``BENCH_physics.json`` records."""

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
    quote = "| flash-chip backend, batched | ~31.6k trace ops/s |"
    assert quote in readme
    drifted = readme.replace(quote, "| flash-chip backend, batched | ~38k trace ops/s |")
    problems = check_docs.check_readme_numbers(drifted, record)
    assert len(problems) == 1
    assert "flash_chip_ops_per_sec" in problems[0] and "38k" in problems[0]


def test_gate_catches_a_missing_row():
    readme, record = _committed()
    lines = [
        line for line in readme.splitlines()
        if not line.startswith("| relaxed-Vpass decode |")
    ]
    problems = check_docs.check_readme_numbers("\n".join(lines), record)
    assert any("relaxed-Vpass decode" in p for p in problems)
