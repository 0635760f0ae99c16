"""The host-speed reference: a fixed kernel timed next to the measured work."""

from __future__ import annotations

import time

import numpy as np

#: seconds :func:`reference_seconds` takes on an uncontended core of the
#: recording host (2-vCPU x86_64, Python 3.11, numpy 2.4); the speed
#: every reported time is scaled to.
NOMINAL_REFERENCE_S = 0.018


def reference_seconds() -> float:
    """Seconds a fixed computation that never calls the simulator takes now.

    A shared host's speed drifts by up to ~2x over phases of seconds to
    tens of seconds.  Timing this kernel around each repetition (and,
    for the campaign, between its scenarios) measures the speed the
    repetition ran at.
    """
    rng = np.random.default_rng(7)
    cells = rng.random((32, 2048))
    # Preallocated: arrays above malloc's mmap threshold would make the
    # kernel's cost depend on the allocation history of the process.
    work = np.empty_like(cells)
    start = time.perf_counter()
    total = 0.0
    for _ in range(40):
        np.exp(cells, out=work)
        np.log1p(work, out=work)
        total += float(work.sum())
        total += float(rng.normal(size=4096).sum())
        total += float(np.sort(rng.integers(0, 1 << 20, 4096))[17])
    count = 0
    for step in range(200_000):
        count += step & 7
    return time.perf_counter() - start
