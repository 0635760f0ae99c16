"""Traced flash-chip read flushes, end to end through the engine.

Tracing is on or off, and the run decides its span set.  Every traced
read flush writes one ``physics.flush`` span with its
``physics.plan``/``physics.execute``/``physics.merge`` children, and no
per-block span.  The trace accounts for the work: the ``engine.window``
spans' ``ops`` cover every trace op once.  Tracing stays out-of-band:
the traced run's stats and summary equal the untraced run's.
"""

import importlib.util
from pathlib import Path

import numpy as np

from repro import obs
from repro.controller import FlashChipBackend, SimulationEngine, SsdConfig
from repro.obs.tracing import merge_spans
from repro.units import days
from repro.workloads import IoTrace, OP_READ, OP_WRITE

_spec = importlib.util.spec_from_file_location(
    "trace_validate",
    Path(__file__).resolve().parents[2] / "tools" / "trace_validate.py",
)
trace_validate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(trace_validate)

CONFIG = SsdConfig(blocks=12, pages_per_block=16, overprovision=0.25)


def _run():
    """A mixed 90%-read day over 100 lpns; returns (stats, summary)."""
    rng = np.random.default_rng(13)
    footprint, n_ops = 100, 1_500
    precondition = IoTrace(
        np.zeros(footprint),
        np.full(footprint, OP_WRITE, dtype=np.int64),
        rng.permutation(footprint).astype(np.int64),
        "precondition",
    )
    trace = IoTrace(
        np.sort(rng.uniform(days(0.05), days(1.0), n_ops)),
        np.where(rng.random(n_ops) < 0.9, OP_READ, OP_WRITE).astype(np.int64),
        rng.integers(0, footprint, n_ops).astype(np.int64),
        "mixed",
    )
    backend = FlashChipBackend(bitlines_per_block=128, seed=7)
    engine = SimulationEngine(CONFIG, backend=backend)
    engine.run_trace(precondition)
    stats = engine.run_trace(trace)
    return stats, backend.summary()


def test_traced_flushes_validate_and_change_nothing(tmp_path):
    untraced = _run()
    obs.configure(tmp_path, label="engine")
    traced = _run()
    obs.reset()
    assert traced == untraced

    phases = ("physics.flush", "physics.plan", "physics.execute", "physics.merge")
    assert trace_validate.validate(tmp_path, [(name, 1) for name in phases]) == []
    spans = merge_spans(tmp_path)
    by_id = {span["id"]: span for span in spans}

    def named(name):
        return [span for span in spans if span["name"] == name]

    def parent_name(span):
        return by_id[span["parent"]]["name"]

    flushes = named("physics.flush")
    for name in phases[1:]:
        assert len(named(name)) == len(flushes)
        assert all(parent_name(span) == "physics.flush" for span in named(name))
    assert named("physics.block") == []
    # Some flush executed several blocks, all inside its one execute span.
    assert max(span["attrs"]["blocks"] for span in named("physics.execute")) > 1
    windows = named("engine.window")
    # Every op of both traces (100 precondition writes + the 1,500-op
    # mixed day) lands in exactly one window.
    assert sum(span["attrs"]["ops"] for span in windows) == 1_600
