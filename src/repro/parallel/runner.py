"""Sharded multi-process sweep execution.

:class:`SweepRunner` fans a scenario grid out to worker processes, each
running its own :class:`~repro.controller.engine.SimulationEngine`, and
merges the per-scenario results into a :class:`~repro.parallel.results.SweepReport`.

Design rules that make ``workers=N`` bit-identical to serial execution:

1. **Scenarios are pure.**  A worker receives the picklable
   :class:`~repro.workloads.grid.Scenario` and rebuilds everything —
   trace, engine, backend — from it.  No state crosses scenarios.
2. **Seeds are spawn-keyed.**  Every RNG stream derives from
   ``(root_seed, scenario_id, component)`` via
   :func:`repro.rng.spawn_key`; worker identity and scheduling order
   never enter the derivation.
3. **Merging is order-free.**  Results come back tagged with their
   scenario id and the report sorts by it, so an unordered pool, a
   shuffled scenario list, and a serial loop all produce the same
   report.  Duplicate ids are rejected up front.
4. **Failures carry their scenario.**  An exception in a worker is
   wrapped into :class:`~repro.parallel.results.ScenarioFailure` naming
   the scenario id and re-raised in the parent.

``workers=1`` runs in-process with no pool and no pickling — the serial
reference the equivalence suite compares against.
"""

from __future__ import annotations

import multiprocessing
import os
import traceback
from collections import Counter
from collections.abc import Callable, Iterable, Sequence
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Any

from repro.parallel.results import (
    ScenarioFailure,
    ScenarioResult,
    SweepReport,
    SweepWorkerLost,
)
from repro.workloads.grid import Scenario, ScenarioGrid

# repro.controller.factory is imported lazily inside SweepRunner.run: the
# factory itself imports repro.parallel.results (the records it returns),
# so a module-level import here would be circular at package init.


def default_workers() -> int:
    """Worker count when the caller does not choose: one per CPU.

    Honors ``REPRO_SWEEP_WORKERS`` (useful to pin CI smokes) and falls
    back to :func:`os.cpu_count`.
    """
    env = os.environ.get("REPRO_SWEEP_WORKERS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ValueError(
                f"REPRO_SWEEP_WORKERS must be an integer worker count, "
                f"got {env!r}"
            ) from None
    return max(1, os.cpu_count() or 1)


def _pool_context() -> multiprocessing.context.BaseContext:
    """Fork where available (cheap, inherits the imported simulator);
    spawn otherwise.  The choice cannot affect results — workers rebuild
    every run from the pickled scenario alone."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


def _run_tagged(tagged: tuple[int, str, Callable[[Any], Any], Any]):
    """Worker entry: run one item, never raise across the process boundary.

    Returns ``(index, result)`` on success or ``(index, ScenarioFailure)``
    carrying the item's label — exceptions themselves may not pickle, so
    the failure travels as a typed record (with the worker's full
    traceback as text, since the live traceback cannot cross the process
    boundary) and is re-raised by the parent.
    """
    index, label, fn, item = tagged
    try:
        return index, fn(item)
    except Exception:  # noqa: BLE001 - reported to the parent
        return index, ScenarioFailure(label, traceback.format_exc().strip())


def _run_tagged_chunk(chunk: list) -> list:
    """Worker entry for a chunk: run items until one fails.

    Stops at the first failing item — the parent aborts the whole map on
    it, so finishing the chunk would only burn compute on a broken grid.
    """
    results = []
    for tagged in chunk:
        results.append(_run_tagged(tagged))
        if isinstance(results[-1][1], ScenarioFailure):
            break
    return results


def _kill_pool(executor: ProcessPoolExecutor) -> None:
    """Abandon *executor* without draining it: cancel queued work and
    kill the worker processes mid-item (the terminate() a raw Pool had).
    """
    processes = dict(getattr(executor, "_processes", None) or {})
    executor.shutdown(wait=False, cancel_futures=True)
    for process in processes.values():
        try:
            process.kill()
        except (OSError, ValueError):
            pass


class SweepRunner:
    """Run independent work items across worker processes, deterministically.

    The primary entry point is :meth:`run`, which executes a scenario
    grid; :meth:`map` is the generic substrate (also used by the
    migrated ablation benchmarks) for any picklable function over any
    picklable items.

    Parameters
    ----------
    workers:
        Process count.  ``1`` (in-process, no pool) is the serial
        reference; ``None`` picks :func:`default_workers`.
    chunksize:
        Items handed to a worker per dispatch.  ``1`` (default) shards
        finest — best for few, long scenarios; raise it for very many
        tiny items.
    """

    def __init__(self, workers: int | None = None, chunksize: int = 1):
        self.workers = default_workers() if workers is None else int(workers)
        if self.workers < 1:
            raise ValueError("need at least one worker")
        if chunksize < 1:
            raise ValueError("chunksize must be at least 1")
        self.chunksize = int(chunksize)

    # ------------------------------------------------------------------
    # Generic deterministic parallel map
    # ------------------------------------------------------------------

    def map(
        self,
        fn: Callable[[Any], Any],
        items: Sequence[Any],
        labels: Sequence[str] | None = None,
    ) -> list[Any]:
        """Apply *fn* to every item; results in item order regardless of
        worker scheduling.

        *fn* and the items must be picklable for ``workers > 1`` (a
        module-level function and plain-data items; lambdas only work
        in-process).  *labels* name the items in failure reports
        (defaults to ``item[<index>]``).  A failing item raises
        :class:`ScenarioFailure` with its label and stops the run —
        serially at the first failing item, in parallel as soon as any
        worker reports one (the pool is terminated rather than drained,
        so a broken grid does not burn the rest of the fleet's compute;
        with several failing items, *which* one is reported may vary
        with scheduling).

        A worker that *dies* without reporting — SIGKILL, OOM kill,
        ``os._exit`` — can return nothing, which stalled the previous
        ``multiprocessing.Pool`` implementation forever.  The pool here
        is a :class:`~concurrent.futures.ProcessPoolExecutor`, which
        detects the death; the run raises :class:`SweepWorkerLost`
        naming every label whose result had not yet arrived (a small
        superset of what was actually in flight on the dead worker).
        """
        items = list(items)
        if labels is None:
            labels = [f"item[{i}]" for i in range(len(items))]
        elif len(labels) != len(items):
            raise ValueError("labels must match items one-to-one")
        if not items:
            return []
        outputs: list[Any] = [None] * len(items)
        if self.workers == 1 or len(items) == 1:
            # In-process: no pickling, and the original traceback is
            # freely available — chain it instead of flattening to text.
            for index, item in enumerate(items):
                try:
                    outputs[index] = fn(item)
                except Exception as exc:
                    detail = "".join(
                        traceback.format_exception_only(type(exc), exc)
                    ).strip()
                    raise ScenarioFailure(labels[index], detail) from exc
            return outputs
        tagged = [
            (index, labels[index], fn, item) for index, item in enumerate(items)
        ]
        chunks = [
            tagged[i : i + self.chunksize]
            for i in range(0, len(tagged), self.chunksize)
        ]
        received = [False] * len(items)
        failure: ScenarioFailure | None = None
        executor = ProcessPoolExecutor(
            max_workers=min(self.workers, len(chunks)),
            mp_context=_pool_context(),
        )
        try:
            pending = {executor.submit(_run_tagged_chunk, c) for c in chunks}
            while pending and failure is None:
                done, pending = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    for index, outcome in future.result():
                        if isinstance(outcome, ScenarioFailure):
                            failure = outcome
                            break
                        outputs[index] = outcome
                        received[index] = True
                    if failure is not None:
                        break
        except BrokenProcessPool as exc:
            _kill_pool(executor)
            lost = [labels[i] for i in range(len(items)) if not received[i]]
            raise SweepWorkerLost(lost, str(exc) or type(exc).__name__) from exc
        except BaseException:
            _kill_pool(executor)
            raise
        if failure is not None:
            _kill_pool(executor)
            raise failure
        executor.shutdown(wait=True)
        return outputs

    # ------------------------------------------------------------------
    # Scenario sweeps
    # ------------------------------------------------------------------

    def run(
        self, grid: ScenarioGrid | Iterable[Scenario]
    ) -> SweepReport:
        """Execute every scenario of *grid* and merge the results.

        *grid* may be a :class:`~repro.workloads.grid.ScenarioGrid` or
        any iterable of scenarios (ids must be unique).  The returned
        report is sorted by scenario id: the same grid yields the same
        report for any worker count and any scenario order.

        When the pool forks, the parent pre-warms the per-process trace
        cache (:mod:`repro.workloads.trace_cache`) first, so workers
        inherit every scenario's generated trace read-only via
        copy-on-write instead of regenerating it.  Traces are
        deterministic in the scenario, so warming cannot change a bit
        of the report — it only moves generation out of the workers.
        """
        from repro import obs
        from repro.controller.factory import run_scenario
        from repro.workloads.trace_cache import warm_trace_cache

        scenarios = list(grid)
        ids = [s.scenario_id for s in scenarios]
        duplicates = sorted(
            scenario_id for scenario_id, n in Counter(ids).items() if n > 1
        )
        if duplicates:
            raise ValueError(
                f"scenario ids must be unique; duplicated: {duplicates}"
            )
        if (
            self.workers > 1
            and len(scenarios) > 1
            and _pool_context().get_start_method() == "fork"
        ):
            warm_trace_cache(scenarios)
        with obs.tracer().span(
            "sweep.run", scenarios=len(scenarios), workers=self.workers
        ):
            results: list[ScenarioResult] = self.map(
                run_scenario, scenarios, labels=ids
            )
        ordered = tuple(sorted(results, key=lambda r: r.scenario_id))
        return SweepReport(results=ordered, workers=self.workers)


def run_sweep(
    grid: ScenarioGrid | Iterable[Scenario], workers: int | None = None
) -> SweepReport:
    """One-call convenience: ``SweepRunner(workers).run(grid)``."""
    return SweepRunner(workers=workers).run(grid)
