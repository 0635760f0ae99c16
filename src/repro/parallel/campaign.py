"""Fault-tolerant, resumable sweep campaigns.

:class:`~repro.parallel.runner.SweepRunner` is one shot, results in
memory: a worker exception kills the whole sweep, a hung worker stalls
it forever, and a killed run restarts from zero.  A :class:`Campaign`
runs on the same deterministic substrate and the same worker pool for
grids where that is unacceptable — the paper's 10⁴–10⁶-scenario
characterization cross-products:

- **Persistence.**  Every finished scenario is appended durably to a
  :class:`~repro.parallel.store.ResultStore` *as it lands*, so no
  completed work is ever lost.
- **Checkpoint/resume.**  A campaign started over a store simply skips
  every scenario the store already holds; killing the campaign parent
  at any point (power loss included — appends are fsync'd) and
  rerunning it continues instead of restarting.
- **Failure isolation.**  Scenarios run in long-lived worker processes
  (:mod:`repro.parallel.runner`'s pool and its one scheduling loop),
  one scenario in flight per worker, so a crash (segfault, OOM kill,
  ``os._exit``) takes down one scenario, not the campaign; a worker
  that raised, timed out or died is replaced, never reused.  The
  failure policy is ``fail_fast`` (first failure aborts, completed
  results stay stored) or ``continue`` (record and move on); every
  failure lands in the store's failure ledger.  Nothing is retried
  within a run: a scenario is bit-determined by its description, so a
  failed scenario is rerun with ``--resume``.
- **Timeouts.**  A per-scenario wall-clock timeout kills hung workers
  (the only cure for a genuine hang) and counts as a failure.
- **Sharding.**  ``shard="i/N"`` selects the scenarios whose id hashes
  to shard *i* of *N*: the one way to split a grid across hosts.
  Shards write into one shared store directory (each under its own
  writer file) or into one store per host, merged afterwards with
  :meth:`~repro.parallel.store.ResultStore.ingest`.  Nothing reclaims a
  dead host's shard automatically: rerun it with ``--shard i/N
  --resume``, which is exact because results are deterministic.
- **Streaming aggregation.**  Worst-block-RBER / wear / read-pressure
  percentiles update as results land (:class:`StreamingAggregate`), so
  a week-long campaign is observable while it runs.

**The determinism contract does the hard part.**  Scenario results are
bit-determined by the scenario alone (spawn-keyed seeding) and reports
merge order-free by scenario id — so a campaign that crashed, resumed,
timed out, and ran as two shards on two hosts *must* produce a report
bit-identical to one uninterrupted serial
``SweepRunner(workers=1).run(grid)``.  The equivalence suite
(``tests/parallel/test_campaign.py``) pins exactly that, with every
failure mode injected deterministically via :mod:`repro.testing.faults`.
"""

from __future__ import annotations

import hashlib
import os
import re
from collections import Counter
from collections.abc import Iterable

from repro import obs
from repro.parallel.results import ScenarioFailure, ScenarioResult, SweepReport
from repro.parallel.runner import check_grid, default_workers, run_tasks
from repro.parallel.store import ResultStore
from repro.workloads.grid import Scenario, ScenarioGrid

# repro.controller.factory is imported lazily (see runner.py: the factory
# imports repro.parallel.results, so importing it here would be circular
# at package init).

#: the failure policies: abort at the first failure, or ledger it and
#: run the rest.
FAILURE_POLICIES = ("fail_fast", "continue")

#: ledger kind (and attempt-span outcome) of each scheduling-loop outcome.
_OUTCOMES = {
    "ok": "ok",
    "err": "exception",
    "died": "worker-death",
    "timeout": "timeout",
}


def _trace_slug(scenario_id: str) -> str:
    """Filename-safe form of a scenario id for trace labels."""
    return re.sub(r"[^A-Za-z0-9_.-]+", "-", scenario_id)


def shard_of(scenario_id: str, shards: int) -> int:
    """Which shard of *shards* owns *scenario_id*.

    A stable content hash (never Python's randomized ``hash``), so every
    host computes the same partition and the N shard runs cover the grid
    exactly once with no coordination.
    """
    digest = hashlib.sha256(scenario_id.encode()).digest()
    return int.from_bytes(digest[:8], "big") % shards


def parse_shard(spec: str) -> tuple[int, int]:
    """Parse ``"i/N"`` (0-based shard index) into ``(i, N)``."""
    index_text, sep, total_text = spec.partition("/")
    try:
        if not sep:
            raise ValueError
        index, total = int(index_text), int(total_text)
    except ValueError:
        raise ValueError(
            f"bad shard spec {spec!r}; expected 'i/N' with 0 <= i < N"
        ) from None
    if total < 1 or not 0 <= index < total:
        raise ValueError(
            f"bad shard spec {spec!r}; expected 'i/N' with 0 <= i < N"
        )
    return index, total


class StreamingAggregate:
    """Live campaign digest, updated as each result lands.

    Tracks exact percentile inputs (one scalar per scenario — a million
    scenarios is a few megabytes), so :meth:`snapshot` reports true
    percentiles of the results so far, not sketch approximations:
    worst-block RBER (flash-chip scenarios with a trajectory), peak
    per-interval read pressure, and end-of-run wear, plus summed
    uncorrectable/data-loss counters.
    """

    def __init__(self) -> None:
        self.completed = 0
        self.failed_attempts = 0
        self.uncorrectable_pages = 0
        self.data_loss_events = 0
        self._worst_rber: list[float] = []
        self._peak_reads: list[float] = []
        self._max_wear: list[float] = []

    def observe(self, result: ScenarioResult) -> None:
        """Fold one landed scenario result into the aggregate."""
        self.completed += 1
        backend = result.backend
        self.uncorrectable_pages += int(backend.get("uncorrectable_pages", 0))
        self.data_loss_events += int(backend.get("data_loss_events", 0))
        self._peak_reads.append(
            float(result.stats.get("peak_block_reads_per_interval", 0))
        )
        self._max_wear.append(float(result.stats.get("max_pe_cycles", 0)))
        if result.trajectory:
            rber = result.trajectory[-1].get("worst_block_rber")
            if rber is not None:
                self._worst_rber.append(float(rber))

    def observe_failure(self) -> None:
        self.failed_attempts += 1

    @staticmethod
    def _percentiles(values: list[float]) -> dict | None:
        if not values:
            return None
        ordered = sorted(values)
        n = len(ordered)

        def rank(percent: int) -> float:
            # Nearest rank: the ceil(percent * n / 100)-th smallest value.
            return ordered[-(-percent * n // 100) - 1]

        return {
            "p50": rank(50),
            "p90": rank(90),
            "p99": rank(99),
            "max": ordered[-1],
            "n": n,
        }

    def snapshot(self) -> dict:
        """Point-in-time digest (JSON-ready)."""
        return {
            "completed": self.completed,
            "failed_attempts": self.failed_attempts,
            "uncorrectable_pages": self.uncorrectable_pages,
            "data_loss_events": self.data_loss_events,
            "worst_block_rber": self._percentiles(self._worst_rber),
            "peak_block_reads_per_interval": self._percentiles(self._peak_reads),
            "max_pe_cycles": self._percentiles(self._max_wear),
        }


def _campaign_worker(
    scenario: Scenario,
    trace_label: str | None = None,
    span_parent: str | None = None,
) -> ScenarioResult:
    """Pool task: run one attempt of *scenario* in a worker process.

    *trace_label* / *span_parent* carry the parent's telemetry identity
    in: each attempt traces into its own deterministically named file,
    with its ``scenario.run`` root span parented (cross-file) under the
    scheduler's per-attempt span.
    """
    from repro.controller.factory import run_scenario

    if trace_label is not None:
        # rebind gives this attempt its own file and a pid-free
        # deterministic id prefix under the fork-inherited tracer.
        obs.rebind(trace_label)
    return run_scenario(scenario, span_parent=span_parent)


class Campaign:
    """A resumable, fault-tolerant run of one scenario grid over a store.

    Parameters
    ----------
    grid:
        A :class:`~repro.workloads.grid.ScenarioGrid` or iterable of
        scenarios, checked by :func:`~repro.parallel.runner.check_grid`
        (unique ids, runnable geometries) before any store is touched.
        The *full* grid, even when sharding — the shard filter is
        applied internally so every shard binds the store to the same
        grid fingerprint.
    store:
        A :class:`~repro.parallel.store.ResultStore` or a directory
        path.  Scenarios already in the store are skipped (resume).
    workers:
        Maximum in-flight scenarios, one per long-lived worker process
        (default :func:`~repro.parallel.runner.default_workers`).
        Every scenario runs in a worker regardless — ``workers`` bounds
        concurrency, it does not choose an execution mode — so
        crash/timeout isolation is uniform from 1 worker up.
    on_failure:
        ``"fail_fast"`` (abort at the first failure; stored results
        survive) or ``"continue"`` (ledger it and run the rest).  A
        failed scenario is not retried within the run; a later run over
        the same store (``--resume``) runs it again.
    timeout:
        Per-scenario wall-clock seconds before the scenario's worker is
        killed (``None`` = never).
    shard:
        ``"i/N"`` (or an ``(i, N)`` tuple) to run only the scenarios
        hashing to shard *i* of *N* (:func:`shard_of`).  The shard's
        writer name, ``shard<i>of<N>``, keeps its records apart from
        other shards sharing the store directory.
    progress_interval:
        Emit the *progress* callback every this-many seconds, whether
        or not a result landed (instead of after every landed result).

    :meth:`run` returns the merged :class:`SweepReport` of everything
    the store now holds for this grid — bit-identical to one serial
    uninterrupted sweep over the same completed scenarios.
    """

    def __init__(
        self,
        grid: ScenarioGrid | Iterable[Scenario],
        store: ResultStore | str,
        *,
        workers: int | None = None,
        on_failure: str = "fail_fast",
        timeout: float | None = None,
        shard: str | tuple[int, int] | None = None,
        progress_interval: float | None = None,
    ):
        self.scenarios = check_grid(grid)
        self.workers = default_workers() if workers is None else int(workers)
        if self.workers < 1:
            raise ValueError("need at least one worker")
        if on_failure not in FAILURE_POLICIES:
            raise ValueError(
                f"unknown failure policy {on_failure!r}; expected one of "
                f"{FAILURE_POLICIES}"
            )
        self.on_failure = on_failure
        if timeout is not None and timeout <= 0:
            raise ValueError("timeout must be positive seconds (or None)")
        self.timeout = timeout
        self.shard = (
            parse_shard(shard) if isinstance(shard, str) else shard
        )
        if self.shard is not None:
            index, total = self.shard
            if total < 1 or not 0 <= index < total:
                raise ValueError(f"bad shard {self.shard!r}")
        #: this run's store-writer name and trace label.
        self.writer = (
            "all"
            if self.shard is None
            else f"shard{self.shard[0]}of{self.shard[1]}"
        )
        self.store = (
            store
            if isinstance(store, ResultStore)
            else ResultStore(store, writer=self.writer)
        )
        self.progress_interval = (
            None if progress_interval is None else float(progress_interval)
        )
        #: scenarios this run skipped because the store already held them.
        self.resumed = 0
        #: every failure of this run (mirror of the store ledger).
        self.ledger: list[dict] = []
        self.aggregate = StreamingAggregate()

    # ------------------------------------------------------------------
    # Shard / scope helpers
    # ------------------------------------------------------------------

    def _mine(self) -> list[Scenario]:
        """The scenarios this campaign instance is responsible for."""
        if self.shard is None:
            return list(self.scenarios)
        index, total = self.shard
        return [
            s
            for s in self.scenarios
            if shard_of(s.scenario_id, total) == index
        ]

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def run(self, progress=None) -> SweepReport:
        """Run (or resume) the campaign and return the merged report.

        *progress*, when given, is called with
        ``self.aggregate.snapshot()`` after every landed result (every
        *progress_interval* seconds, if set), before the next scenario
        launches.  The report covers every grid scenario the store holds
        once this run's scenarios finish — under a shard spec that
        includes any other shards' results already merged into the
        store.
        """
        self.store.bind(self.scenarios)
        mine = self._mine()
        stored = self.store.load()
        grid_ids = {s.scenario_id for s in self.scenarios}
        for scenario_id, result in stored.items():
            if scenario_id in grid_ids:
                self.aggregate.observe(result)
        to_run = [s for s in mine if s.scenario_id not in stored]
        self.resumed = len(mine) - len(to_run)
        tracer = obs.tracer()
        root_span = None
        if tracer.enabled:
            root_span = tracer.begin(
                "campaign.run",
                worker=self.writer,
                scenarios=len(self.scenarios),
                resumed=self.resumed,
            )
        # Open attempt spans by scenario id: begun when the loop pulls the
        # scenario to launch it (so a SIGKILL'd worker still has one) and
        # ended with its outcome.
        spans = {}

        def tasks():
            for scenario in to_run:
                trace_label = span_id = None
                if root_span is not None:
                    # Deterministic worker identity, stable across runs; a
                    # rerun's writer takes <label>-r<k> (see obs.Tracer).
                    trace_label = (
                        f"{self.writer}.{_trace_slug(scenario.scenario_id)}"
                    )
                    # Detached: concurrent attempts overlap arbitrarily,
                    # so none sits on the scheduler thread's span stack.
                    span = spans[scenario.scenario_id] = tracer.begin(
                        "campaign.attempt",
                        parent=root_span.id,
                        detached=True,
                        scenario=scenario.scenario_id,
                    )
                    span_id = span.id
                yield (
                    scenario.scenario_id,
                    _campaign_worker,
                    (scenario, trace_label, span_id),
                )

        def land(scenario_id: str, kind: str, payload, seconds: float) -> None:
            outcome = _OUTCOMES[kind]
            if scenario_id in spans:
                tracer.end(spans.pop(scenario_id), outcome=outcome)
            if kind == "ok":
                self.store.append(payload)
                self.aggregate.observe(payload)
                if progress is not None and self.progress_interval is None:
                    progress(self.aggregate.snapshot())
                return
            # A run makes one attempt per scenario: a rerun is a new run.
            self.ledger.append(
                self.store.record_failure(
                    scenario_id, outcome, payload, duration=seconds
                )
            )
            self.aggregate.observe_failure()
            if self.on_failure == "fail_fast":
                raise ScenarioFailure(scenario_id, f"[{outcome}] {payload}")

        tick = None
        if progress is not None and self.progress_interval is not None:
            def tick():
                progress(self.aggregate.snapshot())

        try:
            run_tasks(
                tasks(),
                self.workers,
                land,
                timeout=self.timeout,
                on_tick=tick,
                tick_seconds=self.progress_interval,
            )
        except BaseException as exc:
            # fail_fast, a store error, or KeyboardInterrupt: the pool
            # has killed every worker on the way out.
            for span in spans.values():
                tracer.end(span, outcome="aborted")
            if root_span is not None:
                tracer.end(root_span, error=type(exc).__name__)
                root_span = None
            raise
        finally:
            self.store.close()
            if root_span is not None:
                tracer.end(root_span, completed=self.aggregate.completed)
        return self.report()

    def report(self) -> SweepReport:
        """Merged report of everything the store holds for this grid."""
        results = self.store.load()
        grid_ids = {s.scenario_id for s in self.scenarios}
        ordered = tuple(
            sorted(
                (r for i, r in results.items() if i in grid_ids),
                key=lambda r: r.scenario_id,
            )
        )
        return SweepReport(results=ordered, workers=self.workers)


def campaign_status(root: str | os.PathLike) -> dict:
    """Live health of a campaign directory, from store state alone.

    Works on a running, crashed, or finished campaign — everything is
    derived from the durable artifacts (manifest, records, failure
    ledger, and the trace files under ``<root>/trace``, digested by
    :func:`~repro.obs.tracing.trace_summary`), so ``--status`` needs no
    connection to any worker.  A directory without a store manifest
    raises :class:`ValueError` and is left untouched.
    """
    if not ResultStore.is_initialized(root):
        raise ValueError(f"{root} is not an initialized campaign store")
    store = ResultStore(root)
    manifest = store.read_manifest()
    results = store.load()
    aggregate = StreamingAggregate()
    for scenario_id in sorted(results):
        aggregate.observe(results[scenario_id])
    failures = store.failures()
    kinds = Counter(f.get("kind", "unknown") for f in failures)
    return {
        "root": str(root),
        "scenario_count": manifest.get("scenario_count"),
        "completed": len(results),
        "corrupt_records": store.corrupt_records,
        "store": {"live_files": len(list(store.records_dir.glob("*.jsonl")))},
        "failures": {"total": len(failures), "kinds": dict(kinds)},
        "aggregate": aggregate.snapshot(),
        "trace": obs.trace_summary(store.root / "trace"),
    }
