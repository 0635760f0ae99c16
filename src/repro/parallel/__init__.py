"""Sharded parallel scenario sweeps and fault-tolerant campaigns.

The paper's campaigns — RBER vs. read counts, Vpass sweeps,
refresh/reclaim ablations — are grids of independent simulations, and
this package runs them across worker processes with results bit-identical
to serial execution:

- describe the campaign with a :class:`~repro.workloads.grid.ScenarioGrid`
  (workload x geometry x policy x backend x seeds);
- run it with :class:`SweepRunner` (``SweepRunner(workers=4).run(grid)``)
  or the ``python -m repro.sweep`` CLI;
- read the merged :class:`SweepReport`, keyed by scenario id.

For grids too large or too long-lived to run in one sitting, the
campaign layer adds durability on the same substrate:

- :class:`ResultStore` — an append-only, crash-safe on-disk store of
  per-scenario results (checksummed records, fsync'd appends, atomic
  manifest) that merges across shards and hosts by construction;
- :class:`Campaign` — checkpoint/resume over a store, a failure
  policy (``fail_fast`` | ``continue``; a failed scenario is rerun by
  resuming, exact by determinism), wall-clock timeouts that kill hung
  workers, hash-sharding (``shard="i/N"``, the one way to split a grid
  across hosts), and streaming aggregation;
- :func:`campaign_status` — live health of any campaign directory.

See ``docs/architecture.md`` ("The sweep subsystem", "Campaigns",
"Live health") for the determinism contract and ``tests/parallel/``
for the equivalence suite.
"""

from repro.parallel.campaign import (
    Campaign,
    StreamingAggregate,
    campaign_status,
    parse_shard,
    shard_of,
)
from repro.parallel.results import ScenarioFailure, ScenarioResult, SweepReport
from repro.parallel.runner import SweepRunner, default_workers, run_sweep
from repro.parallel.store import ResultStore, grid_fingerprint

__all__ = [
    "Campaign",
    "ResultStore",
    "campaign_status",
    "ScenarioFailure",
    "ScenarioResult",
    "StreamingAggregate",
    "SweepReport",
    "SweepRunner",
    "default_workers",
    "grid_fingerprint",
    "parse_shard",
    "run_sweep",
    "shard_of",
]
