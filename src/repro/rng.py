"""Deterministic random-number streams.

Every stochastic component of the simulator draws from a named stream so
experiments are reproducible bit-for-bit given a root seed, and so two
components never consume from each other's stream (which would make results
depend on call ordering).
"""

from __future__ import annotations

import zlib

import numpy as np

_ROOT_SALT = 0x9E3779B9


def _stream_key(name: str) -> int:
    """Map a stream *name* to a stable 32-bit key."""
    return zlib.crc32(name.encode("utf-8")) ^ _ROOT_SALT


def stream(name: str, seed: int = 0) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for the named stream.

    The same ``(name, seed)`` pair always yields an identical generator.
    Different names yield statistically independent generators even for the
    same seed.
    """
    if not isinstance(name, str) or not name:
        raise ValueError("stream name must be a non-empty string")
    return np.random.default_rng([_stream_key(name), int(seed) & 0xFFFFFFFF])


def spawn_key(seed: int, *parts: str | int | float) -> int:
    """Deterministically derive a child seed from *seed* and a label path.

    This is the worker-safe seeding primitive behind the sweep runner
    (:mod:`repro.parallel`): the derived key depends only on the root seed
    and the labels — never on process identity, worker assignment, or the
    order scenarios are executed in — so a scenario's RNG streams are
    bit-identical whether it runs in-process, in a worker pool, or alone.

    Each label folds into the key with the same CRC mix as
    :meth:`RngFactory.child` (``spawn_key(seed, x)`` equals
    ``RngFactory(seed).child(x).seed``); multiple labels chain, e.g.
    ``spawn_key(root, scenario_id, "workload")``.
    """
    mixed = int(seed)
    for part in parts:
        mixed = zlib.crc32(str(part).encode("utf-8")) ^ (mixed * 2654435761 & 0xFFFFFFFF)
    return mixed


def block_spawn_key(seed: int, block_id: int) -> int:
    """Spawn key of one flash block's RNG streams inside a scenario.

    ``block_spawn_key(seed, b)`` equals ``spawn_key(seed, f"block-{b}")``
    — the address :class:`~repro.flash.block.FlashBlock` has always used
    — stated as its own primitive: a block's streams depend only on the
    root seed and the block id, never on the order blocks are
    materialized or touched, so no RNG stream crosses between blocks.
    """
    return spawn_key(seed, f"block-{block_id}")


class RngFactory:
    """Factory producing named, reproducible RNG streams from one root seed.

    A factory is shared across the components of one experiment; each
    component requests its own stream by name.  Requesting the same name
    twice returns a *fresh* generator with identical state, so callers must
    request once and hold the generator if they need a persistent stream.
    """

    def __init__(self, seed: int = 0):
        self.seed = int(seed)

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for stream *name* under this root seed."""
        return stream(name, self.seed)

    def child(self, suffix: str | int) -> "RngFactory":
        """Derive a sub-factory (e.g. one per block) from this factory."""
        return RngFactory(spawn_key(self.seed, suffix))

    def spawn(self, *parts: str | int | float) -> "RngFactory":
        """Derive a sub-factory along a label path (see :func:`spawn_key`).

        ``factory.spawn(a, b)`` is ``factory.child(a).child(b)``: a
        stable address for one scenario's randomness inside a sweep,
        independent of which worker process runs it.
        """
        return RngFactory(spawn_key(self.seed, *parts))

    def for_block(self, block_id: int) -> "RngFactory":
        """Sub-factory owning flash block *block_id*'s streams.

        The factory-level form of :func:`block_spawn_key` (bit-identical
        to the historical ``child(f"block-{block_id}")`` derivation):
        each block's randomness has a stable per-block address, the
        property documented there.
        """
        return RngFactory(block_spawn_key(self.seed, block_id))

    def __repr__(self) -> str:
        return f"RngFactory(seed={self.seed})"
