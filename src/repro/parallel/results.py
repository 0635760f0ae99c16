"""Typed, picklable result records of the sweep runner.

These dataclasses are the wire format between worker processes and the
merging parent, so they hold only plain values (strings, numbers, dicts,
lists) — no numpy arrays, no live simulator objects.  Pickling a result
and unpickling it in another process is exact (floats round-trip
bit-for-bit), which is one half of the runner's serial/parallel
bit-identity guarantee; the other half is per-scenario seed derivation
(:func:`repro.rng.spawn_key`).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field


@dataclass(frozen=True)
class ScenarioResult:
    """Everything one scenario run reports back.

    - *stats*: the engine's :class:`~repro.controller.engine.SsdRunStats`
      as a plain dict (host reads/writes, write amplification, GC and
      maintenance counts, peak per-interval read pressure, wear).
    - *backend*: the backend's ``summary()`` dict (for the flash-chip
      backend: pages checked, corrected bits, uncorrectable pages, RDR
      attempts/recoveries, data-loss events).
    - *per_block*: end-of-run per-block counters (P/E cycles, reads since
      program, valid pages), as lists indexed by physical block.
    - *trajectory*: optional per-maintenance-window records (see
      :func:`repro.controller.factory.run_scenario`), including the RBER
      trajectory when the scenario's backend models real cells.
    """

    scenario_id: str
    stats: dict
    backend: dict
    per_block: dict[str, list] = field(default_factory=dict)
    trajectory: list[dict] | None = None

    def as_dict(self) -> dict:
        """Plain-dict form (JSON-ready)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "ScenarioResult":
        """Rebuild a result from :meth:`as_dict` output (exact).

        The record fields are all JSON-native (plain ints, floats,
        strings, dicts, lists — enforced by the result-store round-trip
        test), and JSON preserves them bit-for-bit, so a result loaded
        from a campaign store compares equal to the freshly computed
        one — the property the resumed ≡ serial equivalence suite pins.
        """
        return cls(
            scenario_id=payload["scenario_id"],
            stats=payload["stats"],
            backend=payload["backend"],
            per_block=payload.get("per_block", {}),
            trajectory=payload.get("trajectory"),
        )


class ScenarioFailure(RuntimeError):
    """A scenario raised, or its worker died; carries the scenario id.

    The runner raises this in the parent process, so a failing sweep
    always names the scenario that broke (not just a worker traceback).
    A worker that died without reporting (SIGKILL, OOM kill,
    ``os._exit``) ran one scenario at a time, so the failure names
    exactly the scenario in flight on it.  The explicit
    :meth:`__reduce__` keeps the exception picklable — it crosses the
    worker/parent process boundary as a value.
    """

    def __init__(self, scenario_id: str, detail: str):
        super().__init__(f"scenario {scenario_id!r} failed: {detail}")
        self.scenario_id = scenario_id
        self.detail = detail

    def __reduce__(self):
        return (type(self), (self.scenario_id, self.detail))


@dataclass(frozen=True)
class SweepReport:
    """Merged outcome of one sweep: results keyed by scenario id.

    Results are sorted by scenario id, so the report is identical for
    any execution order and any worker count — the determinism suite
    (``tests/parallel/test_sweep_runner.py``) pins this.
    """

    results: tuple[ScenarioResult, ...]
    workers: int

    def __post_init__(self) -> None:
        ids = [r.scenario_id for r in self.results]
        if sorted(ids) != ids:
            raise ValueError("report results must be sorted by scenario id")
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate scenario ids in report: {ids}")

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self):
        return iter(self.results)

    def __getitem__(self, scenario_id: str) -> ScenarioResult:
        for result in self.results:
            if result.scenario_id == scenario_id:
                return result
        raise KeyError(scenario_id)

    @property
    def scenario_ids(self) -> list[str]:
        return [r.scenario_id for r in self.results]

    def as_dict(self) -> dict:
        """Plain-dict form: ``{scenario_id: result_dict}`` plus metadata."""
        return {
            "workers": self.workers,
            "scenarios": {r.scenario_id: r.as_dict() for r in self.results},
        }

    def to_json(self, indent: int = 2) -> str:
        """JSON text of :meth:`as_dict` (the CLI's ``--json`` payload)."""
        return json.dumps(self.as_dict(), indent=indent, sort_keys=True)
