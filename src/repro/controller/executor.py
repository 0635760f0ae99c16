"""Block-group executors: intra-scenario parallelism for the flash chip.

The sweep runner (:mod:`repro.parallel`) shards at *scenario*
granularity; within one scenario the engine used to be single-core.  The
flash-chip read path, however, is embarrassingly parallel per block:
once a flushed batch of reads is grouped by physical block, each block's
``sense + decode`` work touches only that block's :class:`FlashBlock`
(its cell arrays, its ``(now, voltage_epoch)`` voltage cache, its
exposure counters) — no shared mutable state at all.

:class:`~repro.controller.backends.FlashChipBackend.on_reads` exploits
that by splitting every flush into three phases:

1. **plan** (serial): group the batch per block and materialize any
   lazily-created blocks;
2. **execute** (this module): run the pure per-block tasks on a
   *block-group executor* — :class:`SerialExecutor` (in-place loop) or
   :class:`ThreadedExecutor` (``N`` worker threads; the per-block numpy
   kernels release the GIL, so threads buy parallelism at kernel
   granularity without pickling);
3. **merge** (serial): fold the per-block outcomes back into the shared
   counters and the RDR escalation path in ascending block order.

Because tasks are pure per block and the merge order is fixed,
``executor="threaded"`` is **bit-identical** to ``executor="serial"``
(pinned by ``tests/controller/test_block_executor.py``).
"""

from __future__ import annotations

import os
from collections.abc import Callable, Sequence
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Protocol, runtime_checkable

from repro import obs

#: executor kinds accepted by :func:`resolve_executor` and
#: :class:`~repro.workloads.grid.BackendSpec`.
EXECUTOR_KINDS = ("serial", "threaded")


def default_executor_workers() -> int:
    """Thread count when the caller does not choose: one per usable CPU.

    Honors ``REPRO_EXECUTOR_WORKERS`` (useful to pin CI smokes) and
    falls back to :func:`os.sched_getaffinity`, else :func:`os.cpu_count`.
    """
    env = os.environ.get("REPRO_EXECUTOR_WORKERS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ValueError(
                f"REPRO_EXECUTOR_WORKERS must be an integer worker count, "
                f"got {env!r}"
            ) from None
    if hasattr(os, "sched_getaffinity"):
        return max(1, len(os.sched_getaffinity(0)))
    return max(1, os.cpu_count() or 1)


@runtime_checkable
class BlockGroupExecutor(Protocol):
    """What the backend needs from an executor: an order-preserving map.

    ``map(fn, tasks)`` must return ``[fn(t) for t in tasks]`` — same
    results, same order — for *pure-per-task* callables (each task
    touches only its own block).  How the calls are scheduled is the
    executor's business; the caller's ordered merge depends only on the
    output order.
    """

    name: str

    def map(self, fn: Callable[[Any], Any], tasks: Sequence[Any]) -> list[Any]:
        """Apply *fn* to every task, results in task order."""


class SerialExecutor:
    """In-place loop: the reference executor (and the default)."""

    name = "serial"
    workers = 1

    def map(self, fn: Callable[[Any], Any], tasks: Sequence[Any]) -> list[Any]:
        obs.counter("executor.serial.tasks").inc(len(tasks))
        return [fn(task) for task in tasks]

    def __repr__(self) -> str:
        return "SerialExecutor()"


class ThreadedExecutor:
    """Run block tasks on a persistent pool of ``workers`` threads.

    The pool is created lazily on the first multi-task flush and reused
    for the life of the executor (thread startup would otherwise
    dominate small flushes); single-task flushes — e.g. the per-op
    reference loop, which flushes one read at a time — bypass the pool
    entirely.  ``ThreadPoolExecutor.map`` yields results in submission
    order, which is exactly the ordered-merge contract.
    """

    name = "threaded"

    def __init__(self, workers: int | None = None):
        self.workers = (
            default_executor_workers() if workers is None else int(workers)
        )
        if self.workers < 1:
            raise ValueError("need at least one executor worker")
        self._pool: ThreadPoolExecutor | None = None

    def map(self, fn: Callable[[Any], Any], tasks: Sequence[Any]) -> list[Any]:
        obs.counter("executor.threaded.tasks").inc(len(tasks))
        if self.workers == 1 or len(tasks) <= 1:
            return [fn(task) for task in tasks]
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.workers,
                thread_name_prefix="repro-block-group",
            )
        return list(self._pool.map(fn, tasks))

    def close(self) -> None:
        """Shut the pool down (idempotent; the executor stays usable —
        the next multi-task map lazily recreates the pool)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __repr__(self) -> str:
        return f"ThreadedExecutor(workers={self.workers})"


def parse_executor_spec(spec: str) -> tuple[str, int | None]:
    """Validate an executor spec string: ``"serial"``, ``"threaded"``, or
    ``"threaded:N"`` (N workers).

    Returns ``(kind, workers)``; *workers* is ``None`` when the spec
    leaves the count to :func:`default_executor_workers`.  This is the
    layering-safe validator :class:`~repro.workloads.grid.BackendSpec`
    calls at construction (the grid cannot import executor classes —
    the controller imports the workloads package, not vice versa — so
    specs ride the grid as strings and resolve here).
    """
    kind, sep, count = spec.partition(":")
    if kind not in EXECUTOR_KINDS:
        raise ValueError(
            f"unknown executor kind {kind!r}; expected one of {EXECUTOR_KINDS}"
        )
    if not sep:
        return kind, None
    if kind != "threaded":
        raise ValueError(f"executor {kind!r} does not take a worker count")
    try:
        workers = int(count)
    except ValueError:
        raise ValueError(f"bad executor worker count {count!r}") from None
    if workers < 1:
        raise ValueError("executor worker count must be at least 1")
    return kind, workers


def resolve_executor(
    spec: str | BlockGroupExecutor | None,
) -> BlockGroupExecutor:
    """Turn an executor spec into a live executor.

    Accepts a ready executor instance (returned as-is), ``None`` /
    ``"serial"`` (the reference :class:`SerialExecutor`),
    or ``"threaded[:N]"`` (a :class:`ThreadedExecutor`; one thread per
    CPU when ``N`` is omitted).
    """
    if spec is None:
        return SerialExecutor()
    if not isinstance(spec, str):
        if not isinstance(spec, BlockGroupExecutor):
            raise TypeError(f"not a block-group executor: {spec!r}")
        return spec
    kind, workers = parse_executor_spec(spec)
    if kind == "serial":
        return SerialExecutor()
    return ThreadedExecutor(workers)
