"""The block executor: intra-scenario parallelism for flash-chip reads.

The sweep runner (:mod:`repro.parallel`) shards at *scenario*
granularity; within one scenario the engine is single-core except for
one step.  The flash-chip read path is embarrassingly parallel per
block: once a flushed batch of reads is grouped by physical block, each
block's ``sense + decode`` work touches only that block's
:class:`FlashBlock` (its cell arrays, its ``(now, voltage_epoch)``
voltage cache and sensing-screen bounds, its exposure counters) — no
shared mutable state beyond a memo of pure wear factors per P/E level.

:class:`~repro.controller.backends.FlashChipBackend.on_reads` exploits
that by splitting every flush into three phases:

1. **plan** (serial): group the batch per block and materialize any
   lazily-created blocks;
2. **execute** (this module): run the pure per-block tasks on one
   :class:`BlockExecutor` — an in-place loop with one worker, else a
   pool of worker threads (the per-block numpy kernels release the GIL,
   so threads buy parallelism at kernel granularity without pickling);
3. **merge** (serial): fold the per-block outcomes back into the shared
   counters and the RDR escalation path in ascending block order.

Every other step — wordline programs, erases, RBER probes — runs in the
backend's one serial code path whatever the executor.  Because tasks
are pure per block and the merge order is fixed, ``executor="threaded"``
is **bit-identical** to ``executor="serial"`` (pinned by
``tests/controller/test_block_executor.py``).
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from concurrent.futures import ThreadPoolExecutor
from typing import Any

from repro.parallel.runner import default_workers
from repro.workloads.grid import parse_executor_spec


class BlockExecutor:
    """Order-preserving map of pure per-block tasks over ``workers`` threads.

    ``map(fn, tasks)`` returns ``[fn(t) for t in tasks]``: same results,
    same order.  With one worker, and for single-task maps (the per-op
    reference loop flushes one read at a time), it is exactly that
    in-place loop.  Otherwise the tasks run on a pool of ``workers``
    threads, created on the first multi-task map and reused until
    :meth:`close` (thread startup would otherwise dominate small
    flushes); ``ThreadPoolExecutor.map`` yields results in submission
    order, which is the ordered-merge contract.
    """

    def __init__(self, workers: int):
        if workers < 1:
            raise ValueError("need at least one executor worker")
        self.workers = int(workers)
        self._pool: ThreadPoolExecutor | None = None

    @classmethod
    def from_spec(cls, spec: str) -> BlockExecutor:
        """The executor an executor spec names, parsed by
        :func:`~repro.workloads.grid.parse_executor_spec`: ``"serial"``
        is one worker, ``"threaded:N"`` is *N*, and a bare
        ``"threaded"`` is one per CPU in this process's affinity mask
        (:func:`~repro.parallel.runner.default_workers`, the sweep
        runner's default too)."""
        kind, workers = parse_executor_spec(spec)
        if kind == "serial":
            return cls(1)
        return cls(default_workers() if workers is None else workers)

    def map(self, fn: Callable[[Any], Any], tasks: Sequence[Any]) -> list[Any]:
        """Apply *fn* to every task, results in task order."""
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
        return f"BlockExecutor(workers={self.workers})"
