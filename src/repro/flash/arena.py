"""File-backed block arenas: out-of-core block state.

A :class:`BlockStore` is one contiguous ``MAP_SHARED`` temporary file
holding one fixed-size *slab* per block.  A slab carries every piece of
mutable per-block device state:

- the :class:`~repro.flash.cell_array.CellArray` buffers (``v0``,
  ``susceptibility``, ``leak``, ``true_states``),
- the :class:`~repro.flash.block.FlashBlock` per-wordline bookkeeping
  (``program_time``, ``programmed``, ``exposure_targeted``,
  ``reads_targeted``),
- and the block's scalar meta slots (``meta_i``: P/E cycles, total
  reads, voltage epoch; ``meta_f``: total disturb exposure).

Every field is addressed by ``block_id`` alone (fixed
:class:`SlabLayout`).  Python-level caches (the ``(now, voltage_epoch)``
voltage cache, RNG generator objects) deliberately stay *outside* the
slab: they are derivatives of slab state, kept coherent by the voltage
epoch.

With a ``resident_limit``, least-recently-touched slabs are flushed to
the backing file and dropped from the resident set (``msync`` +
``MADV_DONTNEED``), so a drive with thousands of blocks runs under a
bounded resident-set size.  Eviction is purely a residency hint — views
stay valid and the next access refaults the pages from the file — so it
cannot change a bit of any result.
"""

from __future__ import annotations

import mmap
import os
import tempfile
import weakref
from collections import OrderedDict
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro.flash.geometry import FlashGeometry

#: slab sizes are rounded up to this, so every slab starts page-aligned —
#: the alignment ``mmap.flush`` / ``madvise`` need to operate per slab.
_PAGE_BYTES = 4096

# Scalar meta slots within a slab (also used by non-arena FlashBlocks,
# which keep the same two small arrays on the heap).
META_PE_CYCLES = 0
META_TOTAL_READS = 1
META_VOLTAGE_EPOCH = 2
META_I_SLOTS = 3
METAF_TOTAL_EXPOSURE = 0
META_F_SLOTS = 1


def _align8(offset: int) -> int:
    return (offset + 7) & ~7


@dataclass(frozen=True)
class _FieldSpec:
    name: str
    dtype: np.dtype
    shape: tuple[int, ...]
    offset: int

    @property
    def nbytes(self) -> int:
        return int(self.dtype.itemsize * int(np.prod(self.shape, dtype=np.int64)))


class SlabLayout:
    """Byte layout of one block's slab inside a :class:`BlockStore`.

    Purely a function of the geometry: field offsets are 8-byte aligned
    and the slab size is rounded up to a page, so every slab starts
    page-aligned and can be spilled on its own.
    """

    def __init__(self, geometry: FlashGeometry):
        wordlines = geometry.wordlines_per_block
        shape_2d = (wordlines, geometry.bitlines_per_block)
        fields = [
            ("v0", np.float32, shape_2d),
            ("susceptibility", np.float32, shape_2d),
            ("leak", np.float32, shape_2d),
            ("true_states", np.int8, shape_2d),
            ("program_time", np.float64, (wordlines,)),
            ("exposure_targeted", np.float64, (wordlines,)),
            ("reads_targeted", np.int64, (wordlines,)),
            ("programmed", np.bool_, (wordlines,)),
            ("meta_i", np.int64, (META_I_SLOTS,)),
            ("meta_f", np.float64, (META_F_SLOTS,)),
        ]
        self.fields: dict[str, _FieldSpec] = {}
        offset = 0
        for name, dtype, shape in fields:
            offset = _align8(offset)
            spec = _FieldSpec(name, np.dtype(dtype), shape, offset)
            self.fields[name] = spec
            offset += spec.nbytes
        #: bytes per block slab (page-aligned).
        self.slab_bytes = -(-offset // _PAGE_BYTES) * _PAGE_BYTES


class BlockSlab:
    """Numpy views over one block's slab (nothing is copied)."""

    __slots__ = (
        "block_id",
        "v0",
        "susceptibility",
        "leak",
        "true_states",
        "program_time",
        "exposure_targeted",
        "reads_targeted",
        "programmed",
        "meta_i",
        "meta_f",
    )

    def __init__(self, layout: SlabLayout, buffer, base: int, block_id: int):
        self.block_id = block_id
        for name, spec in layout.fields.items():
            view = np.frombuffer(
                buffer,
                dtype=spec.dtype,
                count=int(np.prod(spec.shape, dtype=np.int64)),
                offset=base + spec.offset,
            ).reshape(spec.shape)
            setattr(self, name, view)


class BlockStore:
    """One file-backed arena of per-block slabs, with an optional LRU spill.

    Parameters
    ----------
    geometry:
        Block geometry; together with *blocks* it fixes the
        :class:`SlabLayout` and the arena size.
    blocks:
        Number of slabs (defaults to ``geometry.blocks``).
    resident_limit:
        Keep at most this many slabs resident; least-recently-touched
        slabs are flushed to the file and dropped from memory (views
        stay valid; access refaults).  ``None`` never spills.
    on_evict:
        Called with the evicted ``block_id`` after each spill — the
        backend uses it to drop that block's (heap-resident) voltage
        cache, which is what actually bounds the resident set.

    **Ownership.**  The creating process owns the backing file: a
    forked child inherits the mapping, but :meth:`close` in a child
    never deletes the file (guarded by PID), and a ``weakref.finalize``
    backstop deletes it in the owner even if :meth:`close` is never
    called.
    """

    def __init__(
        self,
        geometry: FlashGeometry,
        blocks: int | None = None,
        resident_limit: int | None = None,
        on_evict: Callable[[int], None] | None = None,
        dir: str | None = None,
    ):
        if resident_limit is not None and resident_limit < 1:
            raise ValueError("resident_limit must be at least 1")
        self.geometry = geometry
        self.blocks = int(geometry.blocks if blocks is None else blocks)
        if self.blocks < 1:
            raise ValueError("arena needs at least one block")
        self.layout = SlabLayout(geometry)
        self.nbytes = self.layout.slab_bytes * self.blocks
        self.on_evict = on_evict
        self.evictions = 0
        self._slabs: dict[int, BlockSlab] = {}
        self._lru: OrderedDict[int, None] = OrderedDict()
        self._owner_pid = os.getpid()
        self._closed = False
        self.resident_limit = resident_limit
        fd, path = tempfile.mkstemp(prefix="repro-arena-", suffix=".bin", dir=dir)
        try:
            os.ftruncate(fd, self.nbytes)
            self._mmap = mmap.mmap(fd, self.nbytes, mmap.MAP_SHARED)
        finally:
            os.close(fd)
        #: the backing file (deleted by :meth:`close` or the finalizer).
        self.path = path
        self._finalizer = weakref.finalize(
            self, _cleanup_mmap, self._mmap, path, self._owner_pid
        )

    # ------------------------------------------------------------------
    # Slab access
    # ------------------------------------------------------------------

    def slab(self, block_id: int) -> BlockSlab:
        """Views over block *block_id*'s slab (cached; touches the LRU)."""
        slab = self._slabs.get(block_id)
        if slab is None:
            if not 0 <= block_id < self.blocks:
                raise IndexError(
                    f"block {block_id} outside arena of {self.blocks} blocks"
                )
            slab = BlockSlab(
                self.layout,
                self._mmap,
                block_id * self.layout.slab_bytes,
                block_id,
            )
            self._slabs[block_id] = slab
        self.touch(block_id)
        return slab

    def touch(self, block_id: int) -> None:
        """Mark *block_id* most-recently used; evict past the limit."""
        if self.resident_limit is None:
            return
        self._lru[block_id] = None
        self._lru.move_to_end(block_id)
        while len(self._lru) > self.resident_limit:
            victim, _ = self._lru.popitem(last=False)
            self._evict(victim)

    def _evict(self, block_id: int) -> None:
        """Write one slab back to the file and drop its resident pages.

        ``flush`` (msync) first, so the pages are clean before
        ``MADV_DONTNEED`` discards them — the next access refaults from
        the up-to-date file, bit-identical.  Slab offsets are
        page-aligned by construction.
        """
        offset = block_id * self.layout.slab_bytes
        self._mmap.flush(offset, self.layout.slab_bytes)
        if hasattr(mmap, "MADV_DONTNEED"):
            self._mmap.madvise(mmap.MADV_DONTNEED, offset, self.layout.slab_bytes)
        self.evictions += 1
        if self.on_evict is not None:
            self.on_evict(block_id)

    @property
    def resident_blocks(self) -> tuple[int, ...]:
        """Block ids currently resident (LRU order, oldest first).

        Only meaningful with a ``resident_limit``: an unlimited arena
        never spills.
        """
        if self.resident_limit is None:
            raise ValueError("resident tracking needs a resident_limit")
        return tuple(self._lru)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Release the mapping (idempotent).

        In the owning process this also deletes the backing file;
        forked children only drop their references.  Live numpy views
        may still pin the exported buffer — the mapping then persists
        until those views die, but the file is gone immediately, so
        nothing leaks in the temp dir.
        """
        if self._closed:
            return
        self._closed = True
        self._slabs.clear()
        self._lru.clear()
        self._finalizer.detach()
        _cleanup_mmap(self._mmap, self.path, self._owner_pid)

    def __repr__(self) -> str:
        return (
            f"BlockStore(blocks={self.blocks}, "
            f"slab_bytes={self.layout.slab_bytes}, nbytes={self.nbytes})"
        )


def _cleanup_mmap(mm, path: str, owner_pid: int) -> None:
    """Close (and, in the owner, delete) a file-backed arena; never raises."""
    try:
        mm.close()
    except BufferError:
        pass
    if os.getpid() == owner_pid:
        try:
            os.unlink(path)
        except FileNotFoundError:
            pass
