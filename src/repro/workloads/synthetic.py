"""Synthetic trace generation from workload statistics.

Each workload is summarized by the properties that drive read-disturb
behavior: operation intensity, read/write mix, footprint, and access skew.
Reads follow a bounded Zipf popularity law over the working set (the
uneven read distribution the paper highlights: "certain flash blocks
experience high temporal locality"), with an optional sequential-run
component; writes use an independent, typically milder skew.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.units import SECONDS_PER_DAY
from repro.workloads.trace import IoTrace, OP_READ, OP_WRITE


@dataclass(frozen=True)
class WorkloadSpec:
    """Statistical summary of one workload."""

    name: str
    description: str
    #: average operations per second.
    iops: float
    #: fraction of operations that are reads.
    read_fraction: float
    #: logical pages touched by the workload.
    working_set_pages: int
    #: Zipf exponent of read popularity (0 = uniform; ~1 = heavily skewed).
    read_zipf_theta: float
    #: Zipf exponent of write popularity.
    write_zipf_theta: float = 0.3
    #: fraction of reads that are part of sequential runs.
    sequential_read_fraction: float = 0.2
    #: mean sequential run length in pages.
    sequential_run_pages: int = 16

    def __post_init__(self) -> None:
        if self.iops <= 0:
            raise ValueError("iops must be positive")
        if not 0.0 <= self.read_fraction <= 1.0:
            raise ValueError("read fraction must be a probability")
        if self.working_set_pages < 1:
            raise ValueError("working set must contain at least one page")
        if self.read_zipf_theta < 0 or self.write_zipf_theta < 0:
            raise ValueError("zipf exponents cannot be negative")
        if not 0.0 <= self.sequential_read_fraction <= 1.0:
            raise ValueError("sequential fraction must be a probability")


def _zipf_cdf(n: int, theta: float) -> np.ndarray:
    """CDF of a bounded Zipf(theta) law over ranks 1..n."""
    ranks = np.arange(1, n + 1, dtype=np.float64)
    weights = ranks ** (-theta) if theta > 0 else np.ones(n)
    cdf = np.cumsum(weights)
    return cdf / cdf[-1]


class SyntheticWorkload:
    """Trace generator for a :class:`WorkloadSpec`.

    Popular pages are scattered across the address space with a fixed
    pseudo-random permutation (hot data is not physically contiguous),
    reproducibly derived from the seed.
    """

    def __init__(self, spec: WorkloadSpec, seed: int = 0):
        self.spec = spec
        self.seed = int(seed)

    def generate(self, duration_days: float, seed: int | None = None) -> IoTrace:
        """Generate a trace covering *duration_days* of activity."""
        if duration_days <= 0:
            raise ValueError("duration must be positive")
        spec = self.spec
        rng = np.random.default_rng(self.seed if seed is None else seed)
        n_ops = rng.poisson(spec.iops * duration_days * SECONDS_PER_DAY)
        if n_ops == 0:
            empty = np.empty(0)
            return IoTrace(
                empty, empty.astype(np.int64), empty.astype(np.int64), spec.name
            )

        timestamps = np.sort(
            rng.uniform(0.0, duration_days * SECONDS_PER_DAY, n_ops)
        )
        ops = np.where(
            rng.random(n_ops) < spec.read_fraction, OP_READ, OP_WRITE
        ).astype(np.int64)

        # Rank -> page permutation: hot ranks land on scattered pages.
        permutation = rng.permutation(spec.working_set_pages)
        read_cdf = _zipf_cdf(spec.working_set_pages, spec.read_zipf_theta)
        write_cdf = _zipf_cdf(spec.working_set_pages, spec.write_zipf_theta)

        lpns = np.empty(n_ops, dtype=np.int64)
        read_mask = ops == OP_READ
        lpns[read_mask] = self._sample_pages(rng, read_cdf, permutation, int(read_mask.sum()))
        lpns[~read_mask] = self._sample_pages(
            rng, write_cdf, permutation, int((~read_mask).sum())
        )

        # Sequential read runs: replace a fraction of reads with
        # consecutive-page runs following their predecessor.
        if spec.sequential_read_fraction > 0 and read_mask.any():
            read_idx = np.flatnonzero(read_mask)
            seq = rng.random(read_idx.size) < spec.sequential_read_fraction
            seq_idx = read_idx[seq]
            if seq_idx.size > 1:
                offsets = rng.integers(1, spec.sequential_run_pages + 1, seq_idx.size)
                lpns[seq_idx[1:]] = (
                    lpns[seq_idx[:-1]] + offsets[1:]
                ) % spec.working_set_pages

        return IoTrace(timestamps, ops, lpns, spec.name)

    @staticmethod
    def _sample_pages(
        rng: np.random.Generator,
        cdf: np.ndarray,
        permutation: np.ndarray,
        count: int,
    ) -> np.ndarray:
        # One walk of the CDF over the sorted draws is cache-friendly
        # where random-order queries are not; each draw's rank is the
        # same either way, so scattering them back through ``order``
        # gives the pages the unsorted search would.
        draws = rng.random(count)
        order = np.argsort(draws)
        pages = np.empty(count, dtype=np.int64)
        pages[order] = permutation[np.searchsorted(cdf, draws[order], side="left")]
        return pages
