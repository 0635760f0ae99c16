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

**One worker pool, one loop.**  Every parallel scenario run,
:meth:`SweepRunner.map` here and :class:`~repro.parallel.campaign.Campaign`
alike, goes through :func:`run_tasks`: one scheduling loop over one
private pool of long-lived workers (:class:`_WorkerPool`) that lives
for one call.  Each worker runs tasks one at a time until one raises,
times out or dies; it is then reaped and replaced, never reused.  A
forked worker first closes every parent-side pipe end it inherited, so
it exits on EOF when the parent dies.  ``docs/architecture.md`` ("Worker
lifecycle") states the whole contract.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import time
import traceback
from collections import Counter
from collections.abc import Callable, Iterable, Sequence
from contextlib import suppress
from itertools import islice
from multiprocessing.connection import wait as _connection_wait
from typing import Any

from repro.parallel.results import ScenarioFailure, ScenarioResult, SweepReport
from repro.workloads.grid import Scenario, ScenarioGrid

# repro.controller.factory is imported lazily inside check_grid and
# SweepRunner.run: the factory itself imports repro.parallel.results (the
# records it returns), so a module-level import here would be circular
# at package init.


def default_workers() -> int:
    """Worker count when the caller does not choose: one per CPU in this
    process's affinity mask (:func:`os.sched_getaffinity`), else
    :func:`os.cpu_count`.  The default count of sweep worker
    processes, the one parallel tier."""
    if hasattr(os, "sched_getaffinity"):
        return max(1, len(os.sched_getaffinity(0)))
    return max(1, os.cpu_count() or 1)


def check_grid(grid: ScenarioGrid | Iterable[Scenario]) -> list[Scenario]:
    """The scenarios of *grid*, checked before any of them runs.

    The front door of :meth:`SweepRunner.run` and
    :class:`~repro.parallel.campaign.Campaign`: raises ``ValueError``
    for duplicate scenario ids, or for a geometry the FTL cannot run
    (one :func:`repro.controller.factory.ssd_config` rejects), before
    any worker starts or any store is bound.
    """
    from repro.controller.factory import ssd_config

    scenarios = list(grid)
    ids = Counter(s.scenario_id for s in scenarios)
    duplicates = sorted(scenario_id for scenario_id, n in ids.items() if n > 1)
    if duplicates:
        raise ValueError(f"scenario ids must be unique; duplicated: {duplicates}")
    for geometry in dict.fromkeys(s.geometry for s in scenarios):
        try:
            ssd_config(geometry)
        except ValueError as exc:
            raise ValueError(f"geometry {geometry.label}: {exc}") from None
    return scenarios


def _pool_context() -> multiprocessing.context.BaseContext:
    """Fork where available (cheap, inherits the imported simulator);
    spawn otherwise.  The choice cannot affect results — workers rebuild
    every run from the pickled scenario alone."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


def _serve(conn, inherited: tuple) -> None:
    """Worker entry: run ``(fn, args)`` tasks from *conn* one at a time.

    Replies ``("ok", fn(*args))``, or ``("err", traceback)`` (text: an
    exception may not pickle) and exits: a worker that raised is never
    reused.  A ``None`` task, or EOF from a dead parent, ends it.
    """
    for end in inherited:
        end.close()
    while True:
        try:
            task = conn.recv()
        except (EOFError, OSError):
            return
        if task is None:
            return
        fn, args = task
        try:
            conn.send(("ok", fn(*args)))
        except Exception:  # noqa: BLE001 - reported to the parent
            with suppress(OSError):
                conn.send(("err", traceback.format_exc().strip()))
            return


class _WorkerPool:
    """Long-lived workers for one call, each known by the parent's end
    of its duplex pipe.  :meth:`submit` returns that end; once it is
    ready, :meth:`recv` gives ``("ok", result)`` (the worker idles
    again), ``("err", traceback)`` or ``("died", detail)`` (it is
    reaped).  Leaving the ``with`` block normally stops idle workers;
    an exception kills every worker.
    """

    def __init__(self, context: multiprocessing.context.BaseContext):
        self.context = context
        self._processes: dict[Any, multiprocessing.process.BaseProcess] = {}
        self._idle: list = []

    def submit(self, fn: Callable, *args):
        """Run ``fn(*args)`` on an idle worker, forking one if none is."""
        if self._idle:
            conn = self._idle.pop()
        else:
            conn, child_conn = self.context.Pipe()
            # A forked child holds a copy of every parent end, and must
            # close them; a spawned one would get a dup of any it is given.
            fork = self.context.get_start_method() == "fork"
            inherited = (*self._processes, conn) if fork else ()
            process = self.context.Process(
                target=_serve, args=(child_conn, inherited), name="repro-worker"
            )
            process.start()
            child_conn.close()
            self._processes[conn] = process
        with suppress(OSError):  # died idle: recv reads EOF and says so
            conn.send((fn, args))
        return conn

    def recv(self, conn) -> tuple[str, Any]:
        """Collect the outcome of the task running behind *conn*."""
        try:
            kind, payload = conn.recv()
        except (EOFError, OSError):
            kind, payload = "died", None
        if kind == "ok":
            self._idle.append(conn)
            return kind, payload
        exitcode = self._reap(conn)  # an "err" worker exits by itself
        if kind == "died":
            payload = (
                f"worker process died with exit code {exitcode} before "
                f"reporting a result (crash, os._exit, or kill)"
            )
        return kind, payload

    def kill(self, conn) -> None:
        """Kill a busy worker (its task timed out) and reap it."""
        self._processes[conn].kill()
        self._reap(conn)

    def _reap(self, conn) -> int | None:
        process = self._processes.pop(conn)
        process.join()
        conn.close()
        return process.exitcode

    def __enter__(self) -> "_WorkerPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        for conn, process in self._processes.items():
            if exc_type is None and conn in self._idle:
                with suppress(OSError):
                    conn.send(None)
            else:
                process.kill()
        for conn in list(self._processes):
            self._reap(conn)
        self._idle.clear()


def run_tasks(
    tasks: Iterable[tuple[Any, Callable, tuple]],
    workers: int,
    on_outcome: Callable[[Any, str, Any, float], None],
    *,
    timeout: float | None = None,
    on_tick: Callable[[], None] | None = None,
    tick_seconds: float | None = None,
) -> None:
    """The worker pool's one scheduling loop.

    Keeps up to *workers* ``(key, fn, args)`` tasks in flight, one per
    worker of a private :class:`_WorkerPool` that lives for this call,
    pulling each task from *tasks* only when a worker is free for it.
    Every finished task is handed to
    ``on_outcome(key, kind, payload, seconds)`` before the next task
    launches, *seconds* being its monotonic run time:

    - ``"ok"``: *payload* is ``fn(*args)``;
    - ``"err"``: *payload* is the traceback text of what ``fn`` raised;
    - ``"died"``: the worker exited without reporting (SIGKILL, OOM
      kill, ``os._exit``); *payload* names its exit code;
    - ``"timeout"``: the task ran *timeout* seconds and its worker was
      killed.

    ``on_tick()`` fires at the start and then every *tick_seconds*,
    whether or not anything lands.  An exception from a callback ends
    the loop and kills every worker.
    """
    tasks = iter(tasks)
    inflight: dict[Any, tuple[Any, float]] = {}  # conn -> (key, started)
    next_tick = time.monotonic() if on_tick is not None else math.inf
    with _WorkerPool(_pool_context()) as pool:
        while True:
            for key, fn, args in islice(tasks, workers - len(inflight)):
                inflight[pool.submit(fn, *args)] = (key, time.monotonic())
            if not inflight:
                return
            wake = next_tick
            if timeout is not None:
                oldest = min(started for _, started in inflight.values())
                wake = min(wake, oldest + timeout)
            wait = None if wake == math.inf else max(0.0, wake - time.monotonic())
            for conn in _connection_wait(list(inflight), wait):
                key, started = inflight.pop(conn)
                kind, payload = pool.recv(conn)
                on_outcome(key, kind, payload, time.monotonic() - started)
            now = time.monotonic()
            if timeout is not None:
                for conn, (key, started) in list(inflight.items()):
                    if now - started < timeout:
                        continue
                    del inflight[conn]
                    pool.kill(conn)
                    detail = (
                        f"exceeded the {timeout:g}s wall-clock timeout; "
                        f"worker killed"
                    )
                    on_outcome(key, "timeout", detail, now - started)
            if now >= next_tick:
                on_tick()
                next_tick = now + tick_seconds


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
    """

    def __init__(self, workers: int | None = None):
        self.workers = default_workers() if workers is None else int(workers)
        if self.workers < 1:
            raise ValueError("need at least one worker")

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
        worker reports one (every worker is killed rather than drained,
        so a broken grid does not burn the rest of the fleet's compute;
        with several failing items, *which* one is reported may vary
        with scheduling).

        In parallel the items run through :func:`run_tasks`, one item
        in flight per worker, so a worker that *dies* without reporting
        — SIGKILL, OOM kill, ``os._exit`` — raises
        :class:`ScenarioFailure` naming exactly the label that was in
        flight on it, with the detail a campaign ledgers for a
        ``worker-death``.
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

        def land(index: int, kind: str, payload: Any, seconds: float) -> None:
            if kind != "ok":
                raise ScenarioFailure(labels[index], payload)
            outputs[index] = payload

        tasks = ((index, fn, (item,)) for index, item in enumerate(items))
        run_tasks(tasks, self.workers, land)
        return outputs

    # ------------------------------------------------------------------
    # Scenario sweeps
    # ------------------------------------------------------------------

    def run(
        self, grid: ScenarioGrid | Iterable[Scenario]
    ) -> SweepReport:
        """Execute every scenario of *grid* and merge the results.

        *grid* may be a :class:`~repro.workloads.grid.ScenarioGrid` or
        any iterable of scenarios; :func:`check_grid` rejects duplicate
        ids and unrunnable geometries before anything runs.  The
        returned report is sorted by scenario id: the same grid yields
        the same report for any worker count and any scenario order.
        Each worker generates the traces of the scenarios it runs.
        """
        from repro import obs
        from repro.controller.factory import run_scenario

        scenarios = check_grid(grid)
        ids = [s.scenario_id for s in scenarios]
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
