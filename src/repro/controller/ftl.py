"""Page-mapping flash translation layer.

Implements the standard controller mapping between logical pages and
physical flash pages: out-of-place writes into an open block, greedy
garbage collection (victim = fewest valid pages), and wear-leveling block
allocation (freest block with least wear).  The FTL tracks exactly the
per-block quantities the paper's mechanisms consume: read counts since
program (read disturb pressure), program timestamps (retention age and
refresh due-dates), and P/E cycles (wear).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from repro.controller.stats import per_block_read_counts


class BlockState(IntEnum):
    FREE = 0
    OPEN = 1
    CLOSED = 2


# Plain ints for the per-block step: an IntEnum member costs an int() per use.
_FREE, _OPEN, _CLOSED = int(BlockState.FREE), int(BlockState.OPEN), int(BlockState.CLOSED)


@dataclass(frozen=True)
class SsdConfig:
    """Geometry and policy knobs of the simulated SSD."""

    blocks: int = 256
    pages_per_block: int = 256
    #: fraction of physical space held back from the logical capacity.
    overprovision: float = 0.07
    #: GC runs when the free-block pool drops to this size.
    gc_threshold_blocks: int = 2

    def __post_init__(self) -> None:
        if self.blocks < 4 or self.pages_per_block < 1:
            raise ValueError("SSD needs at least 4 blocks and 1 page/block")
        if not 0.0 < self.overprovision < 0.5:
            raise ValueError("overprovision must be in (0, 0.5)")
        if self.gc_threshold_blocks < 1:
            raise ValueError("GC threshold must be at least one block")
        # Greedy GC only makes forward progress if, even with the free pool
        # at its threshold and one open block, the closed blocks cannot all
        # be 100% valid; otherwise every relocation is zero-gain and the
        # drive livelocks.  Guarantee that structurally.
        slack_blocks = self.blocks - self.gc_threshold_blocks - 1
        if self.logical_pages > slack_blocks * self.pages_per_block:
            raise ValueError(
                "overprovisioning too small for the GC threshold: logical "
                f"capacity {self.logical_pages} pages exceeds the "
                f"{slack_blocks} blocks available outside the reserve"
            )

    @property
    def physical_pages(self) -> int:
        return self.blocks * self.pages_per_block

    @property
    def logical_pages(self) -> int:
        """Host-visible capacity in pages."""
        return int(self.physical_pages * (1.0 - self.overprovision))


class GcStarvationError(RuntimeError):
    """Raised when garbage collection cannot reclaim a block (drive full)."""


class FtlObserver:
    """Hook points the FTL raises while mutating physical state.

    The simulation engine installs itself here to keep a physics backend
    in lockstep with the mapping: every page append, block erase, and
    relocation is visible the moment it happens.  All hooks default to
    no-ops so the bare FTL stays dependency-free and fast.
    """

    def on_append(
        self, block: int, page: int, lpn: int, old_ppn: int, now: float
    ) -> None:
        """A logical page was written to physical ``(block, page)``;
        *old_ppn* is the invalidated previous location (or INVALID)."""

    def on_open(self, block: int, now: float) -> None:
        """A free block was opened for writing (its read counter reset)."""

    def on_erase(self, block: int, now: float) -> None:
        """A block was erased (end of GC/refresh/reclaim relocation)."""

    def on_relocate_begin(self, block: int, now: float) -> None:
        """A relocation of *block* is about to start (mapping still old)."""

    def on_append_many(
        self,
        block: int,
        pages: np.ndarray,
        lpns: np.ndarray,
        old_ppns: np.ndarray,
        now: float,
    ) -> None:
        """A contiguous run of logical pages was appended to *block*
        (one relocation chunk; ``pages`` are consecutive, from the
        block's write pointer, in a read-only view of an FTL table).

        The default unrolls into per-page :meth:`on_append` calls in page
        order, so observers that only implement the scalar hook see the
        exact event sequence of a per-page append loop; observers on a
        hot path may override this with a batched handler instead.
        """
        for page, lpn, old_ppn in zip(pages, lpns, old_ppns):
            self.on_append(block, int(page), int(lpn), int(old_ppn), now)

    def on_write_run(
        self,
        block: int,
        pages: np.ndarray,
        lpns: np.ndarray,
        old_ppns: np.ndarray,
        times: np.ndarray,
    ) -> None:
        """A run of host writes landed on *block* (one run of
        :meth:`PageMappingFtl.write_many`): write *i* put ``lpns[i]`` on
        ``pages[i]`` at ``times[i]``, invalidating ``old_ppns[i]``.
        ``pages`` are consecutive, from the block's write pointer, in a
        read-only view of an FTL table.  A repeated lpn's old copy is
        its previous slot in the run.

        The default unrolls into per-write :meth:`on_append` calls with
        per-write timestamps, the event sequence of a :meth:`write` loop.
        """
        for page, lpn, old_ppn, now in zip(pages, lpns, old_ppns, times):
            self.on_append(block, int(page), int(lpn), int(old_ppn), float(now))


class PageMappingFtl:
    """The mapping engine of the simulated SSD controller."""

    INVALID = -1

    def __init__(self, config: SsdConfig | None = None):
        self.config = config if config is not None else SsdConfig()
        cfg = self.config
        # The property recomputes a float product; every host op checks it.
        self._logical_pages = cfg.logical_pages
        #: logical page -> physical page id (block * pages_per_block + page).
        self.l2p = np.full(self._logical_pages, self.INVALID, dtype=np.int64)
        #: physical page id -> logical page (or INVALID).  A view of a
        #: buffer one slot longer, whose last slot absorbs writes through
        #: an INVALID (-1) index.
        self._p2l_buffer = np.full(cfg.physical_pages + 1, self.INVALID, dtype=np.int64)
        self.p2l = self._p2l_buffer[:-1]
        self.valid_count = np.zeros(cfg.blocks, dtype=np.int64)
        self.block_state = np.full(cfg.blocks, int(BlockState.FREE), dtype=np.int8)
        self.pe_cycles = np.zeros(cfg.blocks, dtype=np.int64)
        self.reads_since_program = np.zeros(cfg.blocks, dtype=np.int64)
        self.program_time = np.zeros(cfg.blocks, dtype=np.float64)
        self.write_pointer = np.zeros(cfg.blocks, dtype=np.int64)
        self._free_blocks = list(range(cfg.blocks - 1, -1, -1))
        # Read-only 0, 1, 2, ...: _place hands out slices of it as page
        # numbers within a block and as physical page numbers.
        self._ids = _frozen(np.arange(cfg.physical_pages, dtype=np.int64))
        # Physical page -> block, and an INVALID (-1) index -> a spare
        # bin ``blocks``: a run's old copies count per block in one
        # bincount, never-written lpns in the spare bin.
        self._block_of = _frozen(
            np.append(
                np.repeat(np.arange(cfg.blocks, dtype=np.intp), cfg.pages_per_block),
                cfg.blocks,
            )
        )
        #: optional :class:`FtlObserver` notified of physical mutations.
        self.observer: FtlObserver | None = None
        self._active_block = self._allocate_block(0.0)
        # Accounting.
        self.host_writes = 0
        self.flash_writes = 0
        self.host_reads = 0
        self.unmapped_reads = 0
        self.gc_runs = 0

    # ------------------------------------------------------------------
    # Host interface
    # ------------------------------------------------------------------

    def read(self, lpn: int, now: float = 0.0) -> tuple[int, int] | None:
        """Host read: returns the physical ``(block, page)`` or None when
        the page was never written.  Counts read-disturb pressure.

        A read of a never-written page touches no flash cells, so it is
        counted in :attr:`unmapped_reads` rather than :attr:`host_reads`
        (and, as before, charges no disturb pressure).
        """
        self._check_lpn(lpn)
        ppn = self.l2p[lpn]
        if ppn == self.INVALID:
            self.unmapped_reads += 1
            return None
        self.host_reads += 1
        block, page = divmod(int(ppn), self.config.pages_per_block)
        self.reads_since_program[block] += 1
        return block, page

    def read_many(self, lpns: np.ndarray) -> np.ndarray:
        """Batched host reads against the *current* mapping.

        Performs exactly the bookkeeping :meth:`read` would do per
        operation — mapped-read and unmapped-read counts, per-block
        disturb pressure via one ``bincount`` — and returns the physical
        page numbers of the mapped reads (duplicates preserved) so a
        physics backend can apply the same batch.  Callers must ensure
        the mapping has not changed since the reads were issued.
        """
        lpns = np.asarray(lpns, dtype=np.int64)
        if lpns.size == 0:
            return lpns
        if lpns.min() < 0 or lpns.max() >= self._logical_pages:
            raise IndexError("logical page out of range in batched read")
        ppns = self.l2p[lpns]
        mapped = ppns[ppns != self.INVALID]
        self.unmapped_reads += int(ppns.size - mapped.size)
        self.host_reads += int(mapped.size)
        if mapped.size:
            self.reads_since_program += per_block_read_counts(
                mapped, self.config.pages_per_block, self.config.blocks
            )
        return mapped

    def write(self, lpn: int, now: float = 0.0) -> tuple[int, int]:
        """Host write: out-of-place update, may trigger garbage collection."""
        self._check_lpn(lpn)
        self.host_writes += 1
        block, page = self._append(lpn, now)
        self._maybe_gc(now)
        return block, page

    def write_many(self, lpns: np.ndarray, times: np.ndarray) -> None:
        """Batched host writes: ``write(lpns[i], times[i])`` for every *i*,
        in order, with bit-identical final state and observer events.

        Writes apply as *runs*: the longest stretch that fits the open
        block's remaining room, or a single write while the free pool is
        below the GC threshold (there :meth:`write` runs GC after every
        write).  Inside a run no block opens and GC cannot fire, because
        the free pool only shrinks when a block fills, so a run's mapping
        update is one vectorized step.  The run's last write then closes
        a full block and runs GC at its own timestamp, exactly as
        :meth:`write` does.  Observers get one
        :meth:`FtlObserver.on_write_run` per run.  Before any write,
        inputs other than two 1-D arrays of equal length raise
        :class:`ValueError`, and out-of-range lpns raise
        :class:`IndexError`.
        """
        lpns = np.asarray(lpns, dtype=np.int64)
        times = np.asarray(times, dtype=np.float64)
        if lpns.ndim != 1 or times.shape != lpns.shape:
            raise ValueError(
                "write_many needs 1-D lpns and times of equal length, got "
                f"shapes {lpns.shape} and {times.shape}"
            )
        if lpns.size == 0:
            return
        if lpns.min() < 0 or lpns.max() >= self._logical_pages:
            raise IndexError("logical page out of range in batched write")
        cfg = self.config
        start = 0
        while start < lpns.size:
            if len(self._free_blocks) < cfg.gc_threshold_blocks:
                stop = start + 1
            else:
                room = cfg.pages_per_block - int(self.write_pointer[self._active_block])
                stop = min(start + room, int(lpns.size))
            self._write_run(lpns[start:stop], times[start:stop])
            start = stop

    def _write_run(self, lpns: np.ndarray, times: np.ndarray) -> None:
        """Apply one run of :meth:`write_many` (it fits the open block)."""
        size = int(lpns.size)
        now = float(times[-1])
        # Fancy indexing copies: the pre-run location of every write.
        old_ppns = self.l2p[lpns]
        block, pages, ppns = self._place(lpns)
        stale = old_ppns
        # A repeated lpn leaves some write's slot unmapped in l2p (which
        # one numpy leaves unspecified), so this readback finds repeats.
        # Comparing bytes is the cheapest array inequality at run sizes.
        if size > 1 and self.l2p[lpns].tobytes() != ppns.tobytes():
            # A repeated lpn's old copy is its previous slot in this run,
            # and only its last occurrence stays mapped.
            order = lpns.argsort(kind="stable")
            repeat = lpns[order[1:]] == lpns[order[:-1]]
            earlier, later = order[:-1][repeat], order[1:][repeat]
            live = np.ones(size, dtype=bool)
            live[earlier] = False
            self.l2p[lpns[live]] = ppns[live]
            self.p2l[ppns[earlier]] = self.INVALID
            self.valid_count[block] -= earlier.size
            # Only first occurrences invalidate a pre-run copy.
            stale = np.delete(old_ppns, later)
            old_ppns[later] = ppns[earlier]
        # Never-written lpns (INVALID) land in the spare slots.
        self._p2l_buffer[stale] = self.INVALID
        invalidated = np.bincount(self._block_of[stale], minlength=self.config.blocks + 1)
        self.valid_count -= invalidated[:-1]
        self.host_writes += size
        if self.observer is not None:
            self.observer.on_write_run(block, pages, lpns, old_ppns, times)
        self._close_if_full(block, now)
        self._maybe_gc(now)

    # ------------------------------------------------------------------
    # Internals shared with refresh / read reclaim
    # ------------------------------------------------------------------

    def _check_lpn(self, lpn: int) -> None:
        if not 0 <= lpn < self._logical_pages:
            raise IndexError(f"logical page {lpn} out of range")

    def _append(self, lpn: int, now: float) -> tuple[int, int]:
        """Write *lpn* at the write pointer, invalidating any old copy."""
        old = self.l2p[lpn]
        if old != self.INVALID:
            old_block = int(old) // self.config.pages_per_block
            self.valid_count[old_block] -= 1
            self.p2l[old] = self.INVALID

        block = self._active_block
        page = int(self.write_pointer[block])
        ppn = block * self.config.pages_per_block + page
        self.l2p[lpn] = ppn
        self.p2l[ppn] = lpn
        self.valid_count[block] += 1
        self.write_pointer[block] += 1
        self.flash_writes += 1
        if self.observer is not None:
            self.observer.on_append(block, page, int(lpn), int(old), now)
        self._close_if_full(block, now)
        return block, page

    def _close_if_full(self, block: int, now: float) -> None:
        """Close *block* once its last page is written and open the next."""
        if self.write_pointer[block] == self.config.pages_per_block:
            self.block_state[block] = _CLOSED
            self._active_block = self._allocate_block(now)

    def _allocate_block(self, now: float) -> int:
        """Take the least-worn free block (wear leveling) and open it:
        the first free-list position with the fewest P/E cycles."""
        free = self._free_blocks
        if not free:
            raise GcStarvationError("no free blocks available to open")
        wear = self.pe_cycles
        best, least = 0, wear[free[0]]
        for position in range(1, len(free)):
            if wear[free[position]] < least:
                best, least = position, wear[free[position]]
        block = free.pop(best)
        self.block_state[block] = _OPEN
        self.write_pointer[block] = 0
        self.reads_since_program[block] = 0
        self.program_time[block] = now
        if self.observer is not None:
            self.observer.on_open(block, now)
        return block

    def _erase(self, block: int, now: float = 0.0) -> None:
        start = block * self.config.pages_per_block
        self.p2l[start : start + self.config.pages_per_block] = self.INVALID
        self.valid_count[block] = 0
        self.block_state[block] = _FREE
        self.write_pointer[block] = 0
        self.pe_cycles[block] += 1
        self._free_blocks.append(block)
        if self.observer is not None:
            self.observer.on_erase(block, now)

    def _maybe_gc(self, now: float) -> None:
        # Backstop against any GC livelock: a full sweep of the drive must
        # grow the free pool; if it does not, the drive is genuinely full.
        rounds = 0
        while len(self._free_blocks) < self.config.gc_threshold_blocks:
            self.collect_garbage(now)
            rounds += 1
            if rounds > 2 * self.config.blocks:
                raise GcStarvationError(
                    "garbage collection made no progress over a full sweep"
                )

    def collect_garbage(self, now: float) -> int:
        """Greedy GC: relocate the closed block with fewest valid pages
        (the lowest-numbered one on a tie)."""
        # Blocks that are not closed score past any closed block's count,
        # and argmin takes the first of equal scores.
        victim = int(
            np.where(
                self.block_state == _CLOSED,
                self.valid_count,
                self.config.pages_per_block + 1,
            ).argmin()
        )
        if self.block_state[victim] != _CLOSED:
            raise GcStarvationError("no closed blocks to garbage-collect")
        self.relocate_block(victim, now)
        self.gc_runs += 1
        return victim

    def relocate_block(self, block: int, now: float) -> int:
        """Move every valid page of *block* elsewhere, then erase it.

        This is the shared primitive behind GC, remapping-based refresh,
        and read reclaim.  Returns the number of pages moved.

        Valid pages move in bulk (:meth:`_append_many`): mapping arrays
        update vectorized per destination block, bit-identical in final
        state and observer event order to the historical per-page
        :meth:`_append` loop (``tests/controller/test_ftl.py`` pins the
        equivalence; the physics-path golden summaries in
        ``tests/controller/test_backend_vectorized.py`` pin it end to end).
        """
        if self.block_state[block] == _FREE:
            raise ValueError(f"block {block} is free; nothing to relocate")
        if self.observer is not None:
            self.observer.on_relocate_begin(block, now)
        if block == self._active_block:
            # Close the active block first so appends target a fresh one.
            self.block_state[block] = _CLOSED
            self._active_block = self._allocate_block(now)
        start = block * self.config.pages_per_block
        lpns = self.p2l[start : start + self.config.pages_per_block]
        # Boolean indexing yields a fresh array, so the erase below cannot
        # alias it through the p2l view.
        valid = lpns[lpns != self.INVALID]
        moved = int(valid.size)
        if moved:
            self._append_many(valid, block, now)
        self._erase(block, now)
        return moved

    def _append_many(self, lpns: np.ndarray, source_block: int, now: float) -> None:
        """Bulk :meth:`_append` for relocation: every *lpn* currently maps
        into *source_block*, each exactly once.

        Writes land at the write pointer in chunks bounded by the open
        block's remaining room; chunk boundaries fall exactly where the
        per-page loop would have closed the block and opened the next, so
        the block open/close event order — and therefore wear leveling —
        is unchanged.  Observers receive one :meth:`FtlObserver.on_append_many`
        per chunk (per-page order preserved by its default unrolling).
        The source block's ``p2l`` entries are left to the erase that
        follows in :meth:`relocate_block`.
        """
        cfg = self.config
        # Fancy indexing returns a fresh array, so the l2p updates below
        # cannot alias old_ppns.
        old_ppns = self.l2p[lpns]
        self.valid_count[source_block] -= lpns.size
        position = 0
        while position < lpns.size:
            room = cfg.pages_per_block - int(self.write_pointer[self._active_block])
            take = min(room, int(lpns.size) - position)
            chunk = lpns[position : position + take]
            block, pages, _ = self._place(chunk)
            if self.observer is not None:
                self.observer.on_append_many(
                    block, pages, chunk, old_ppns[position : position + take], now
                )
            self._close_if_full(block, now)
            position += take

    def _place(self, lpns: np.ndarray) -> tuple[int, np.ndarray, np.ndarray]:
        """Lay *lpns* at the open block's write pointer (they must fit its
        room) and return the block, their pages and their physical pages
        (both read-only views).

        Old copies are the caller's to invalidate, and so is a repeated
        lpn: numpy leaves unspecified which of its slots ``l2p`` keeps.
        """
        block = self._active_block
        pointer = int(self.write_pointer[block])
        end = pointer + lpns.size
        first = block * self.config.pages_per_block
        ppns = self._ids[first + pointer : first + end]
        self.l2p[lpns] = ppns
        self.p2l[first + pointer : first + end] = lpns
        self.valid_count[block] += lpns.size
        self.write_pointer[block] = end
        self.flash_writes += lpns.size
        return block, self._ids[pointer:end], ppns

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def write_amplification(self) -> float:
        """Flash writes per host write (>= 1 once GC has run)."""
        if self.host_writes == 0:
            return 1.0
        return self.flash_writes / self.host_writes

    def blocks_with_valid_data(self) -> np.ndarray:
        """Indices of blocks currently holding at least one valid page."""
        return np.flatnonzero(self.valid_count > 0)

    def check_invariants(self) -> None:
        """Verify mapping consistency (used by tests and debug builds)."""
        mapped = self.l2p[self.l2p != self.INVALID]
        if mapped.size != np.unique(mapped).size:
            raise AssertionError("two logical pages share a physical page")
        for lpn in np.flatnonzero(self.l2p != self.INVALID)[:1000]:
            ppn = self.l2p[lpn]
            if self.p2l[ppn] != lpn:
                raise AssertionError(f"l2p/p2l disagree for lpn {lpn}")
        per_block_valid = np.bincount(
            (mapped // self.config.pages_per_block), minlength=self.config.blocks
        )
        if not np.array_equal(per_block_valid, self.valid_count):
            raise AssertionError("valid_count out of sync with mapping")


def _frozen(array: np.ndarray) -> np.ndarray:
    """*array*, made read-only."""
    array.flags.writeable = False
    return array
