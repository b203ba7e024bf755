"""Plane and block state tracking.

The FTL and the garbage collector need to know, for every plane, which
blocks are free, which pages inside a block still hold valid data, and how
many erase cycles each block has seen.  The classes here hold exactly that
state; they perform no timing - timing lives in the controller/simulator.

Aggregate queries (``free_blocks``, ``free_pages``) are
answered from counters the plane maintains incrementally as its blocks
change state.  The GC trigger asks "is this plane below the free-block
watermark?" once per host write, and the previous implementation re-scanned
every block of the plane to answer - the single largest cost in the whole
simulator under write-heavy workloads (a quadratic scan: pages written x
blocks per plane).  Every block mutation now notifies its plane's counters
with O(1) updates, so the trigger is a comparison.

The counters live in a small object of their own, shared by the plane and
its blocks, rather than on the plane: a block pointing back at its plane
would make every plane a reference cycle (plane -> blocks -> block ->
plane), and a device's tens of thousands of blocks could then be freed only
by CPython's cyclic collector.  With the counters split out the device's
object graph is acyclic and reference counting alone frees it.
"""

from __future__ import annotations

from typing import List, Optional


class _PlaneCounters:
    """A plane's aggregates, updated by its blocks on every state change."""

    __slots__ = ("free_blocks", "free_pages", "erases")

    def __init__(self, free_blocks: int, free_pages: int) -> None:
        self.free_blocks = free_blocks
        self.free_pages = free_pages
        self.erases = 0


class Block:
    """Erase-unit bookkeeping: per-page valid/used bits and erase count.

    The valid bits are stored as an integer bitmask so that SSDs with
    thousands of chips (Figure 1 and Figure 15 sweeps) stay memory-cheap;
    the number of set bits is cached in ``_valid_count`` so hot callers
    (GC victim selection, plane aggregates) never pay a popcount.

    A block created by a :class:`Plane` holds the plane's counters object
    (``owner``; not the plane itself, which would make a reference cycle)
    and reports every free/used transition and erase to it, so the plane's
    aggregates stay exact; standalone blocks (``owner=None``, used by unit
    tests) skip the notifications.
    """

    __slots__ = (
        "block_id",
        "pages_per_block",
        "write_pointer",
        "_valid_bits",
        "_valid_count",
        "erase_count",
        "_owner",
    )

    def __init__(
        self, block_id: int, pages_per_block: int, owner: Optional[_PlaneCounters] = None
    ) -> None:
        self.block_id = block_id
        self.pages_per_block = pages_per_block
        self.write_pointer = 0
        self._valid_bits = 0
        self._valid_count = 0
        self.erase_count = 0
        self._owner = owner

    @property
    def is_free(self) -> bool:
        """True when the block has never been written since its last erase."""
        return self.write_pointer == 0

    @property
    def valid_mask(self) -> int:
        """The raw valid bitmask (bit ``p`` set iff page ``p`` is live)."""
        return self._valid_bits

    def program_next(self) -> int:
        """Consume the next free page of the block and mark it valid.

        Returns the page index that was programmed.  Raises ``RuntimeError``
        if the block is already full - the caller (the allocator) must have
        rotated to a fresh block first.
        """
        if self.write_pointer >= self.pages_per_block:
            raise RuntimeError(f"block {self.block_id} is full")
        page = self.write_pointer
        self._valid_bits |= 1 << page
        self._valid_count += 1
        self.write_pointer = page + 1
        owner = self._owner
        if owner is not None:
            if page == 0:
                owner.free_blocks -= 1
            owner.free_pages -= 1
        return page

    def program_run(self, count: int) -> int:
        """Program the next ``count`` free pages of the block in one step.

        Exactly equivalent to ``count`` consecutive :meth:`program_next`
        calls - write pointer advanced by ``count``, the programmed pages all
        marked valid, owner aggregates updated once - but with a single mask
        update instead of per-page bit twiddling.  The garbage collector uses
        this to place a whole run of migrated pages on the active block.
        Returns the first programmed page index.
        """
        start = self.write_pointer
        if count <= 0 or start + count > self.pages_per_block:
            raise RuntimeError(
                f"block {self.block_id} cannot program a run of {count} pages"
            )
        self._valid_bits |= ((1 << count) - 1) << start
        self._valid_count += count
        self.write_pointer = start + count
        owner = self._owner
        if owner is not None:
            if start == 0:
                owner.free_blocks -= 1
            owner.free_pages -= count
        return start

    def program_bulk(self, count: int) -> None:
        """Program the first ``count`` pages of a *free* block in one step.

        Fast-forward device aging uses this to reach, in O(1) per block, the
        exact state that ``count`` consecutive :meth:`program_next` calls
        would leave behind: write pointer at ``count`` and pages
        ``0..count-1`` all valid.  Only legal on an erased block - bulk
        programming must never silently clobber per-page valid bookkeeping.
        """
        if not 0 <= count <= self.pages_per_block:
            raise ValueError(f"count {count} out of range")
        if not self.is_free:
            raise RuntimeError(f"block {self.block_id} is not free; cannot bulk-program")
        self.write_pointer = count
        self._valid_bits = (1 << count) - 1
        self._valid_count = count
        owner = self._owner
        if owner is not None and count > 0:
            owner.free_blocks -= 1
            owner.free_pages -= count

    def invalidate(self, page: int) -> None:
        """Mark a previously-programmed page as stale."""
        if not 0 <= page < self.pages_per_block:
            raise ValueError(f"page {page} out of range")
        bit = 1 << page
        if self._valid_bits & bit:
            self._valid_bits &= ~bit
            self._valid_count -= 1

    def invalidate_mask(self, mask: int) -> int:
        """Mark every page whose bit is set in ``mask`` as stale.

        Equivalent to calling :meth:`invalidate` for each set bit (already
        invalid pages are ignored), but with one mask update.  Returns the
        number of pages that went stale.
        """
        cleared = self._valid_bits & mask
        if not cleared:
            return 0
        removed = cleared.bit_count()
        self._valid_bits &= ~mask
        self._valid_count -= removed
        return removed

    def erase(self) -> None:
        """Erase the block: clear all pages and bump the erase count."""
        owner = self._owner
        if owner is not None:
            if self.write_pointer > 0:
                owner.free_blocks += 1
            owner.free_pages += self.write_pointer
            owner.erases += 1
        self.write_pointer = 0
        self._valid_bits = 0
        self._valid_count = 0
        self.erase_count += 1

    def __repr__(self) -> str:
        return (
            f"Block(id={self.block_id}, used={self.write_pointer}/{self.pages_per_block}, "
            f"valid={self._valid_count}, erases={self.erase_count})"
        )


class Plane:
    """One memory array of a die: a set of blocks plus an active write block."""

    def __init__(self, plane_key: tuple, blocks_per_plane: int, pages_per_block: int) -> None:
        self.plane_key = plane_key
        self.pages_per_block = pages_per_block
        # Aggregates, maintained incrementally by the blocks (see Block).
        counters = _PlaneCounters(blocks_per_plane, blocks_per_plane * pages_per_block)
        self._counters = counters
        self.blocks: List[Block] = [
            Block(i, pages_per_block, owner=counters) for i in range(blocks_per_plane)
        ]
        self.active_block_id: Optional[int] = None

    # ------------------------------------------------------------------
    # Capacity queries (O(1) - backed by incrementally-updated counters)
    # ------------------------------------------------------------------
    @property
    def free_blocks(self) -> int:
        """Number of blocks with no programmed pages."""
        return self._counters.free_blocks

    @property
    def free_pages(self) -> int:
        """Total number of programmable pages remaining in the plane."""
        return self._counters.free_pages

    @property
    def total_erases(self) -> int:
        """Erase operations performed on blocks of this plane.

        Lets aggregate wear queries skip never-erased planes without
        scanning their blocks.
        """
        return self._counters.erases

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------
    def allocate_page(self) -> tuple:
        """Allocate the next free page of the plane.

        Returns ``(block_id, page_id)``.  Rotates the active block when the
        current one fills up.  Raises ``RuntimeError`` when the plane is
        completely full - at that point the garbage collector must reclaim
        space before new writes can be placed here.
        """
        block = self._active_block()
        if block is None:
            raise RuntimeError(f"plane {self.plane_key} has no free pages")
        page = block.program_next()
        return block.block_id, page

    def allocate_run(self, max_count: int) -> Optional[tuple]:
        """Allocate up to ``max_count`` consecutive pages on the active block.

        Returns ``(block_id, start_page, count)``, or ``None`` when the
        plane is completely full.  The pages come from the same block the
        next ``count`` :meth:`allocate_page` calls would have used (the run
        is clipped at the block boundary, so a caller loops until its demand
        is met); the block rotation that happens between runs is identical
        to the per-page path's.
        """
        block = self._active_block()
        if block is None:
            return None
        count = min(max_count, block.pages_per_block - block.write_pointer)
        start = block.program_run(count)
        return block.block_id, start, count

    def _active_block(self) -> Optional[Block]:
        # Reads write_pointer directly, not through is_full/is_free: this
        # runs on every allocation that rotates and every GC destination run.
        pages_per_block = self.pages_per_block
        if self.active_block_id is not None:
            block = self.blocks[self.active_block_id]
            if block.write_pointer < pages_per_block:
                return block
        # The active block is full (or unset): rotate to the first erased
        # block, else to any block with room (partially written).
        for block in self.blocks:
            if block.write_pointer == 0:
                self.active_block_id = block.block_id
                return block
        for block in self.blocks:
            if block.write_pointer < pages_per_block:
                self.active_block_id = block.block_id
                return block
        return None

    # ------------------------------------------------------------------
    # Garbage collection support
    # ------------------------------------------------------------------
    def greedy_victim(self) -> Optional[Block]:
        """Victim with the fewest valid pages (greedy GC policy).

        Selection is explicitly deterministic: candidates are compared on
        ``(valid_pages, block_id)``, so ties on valid-page count always go to
        the lowest-numbered block.  Identically-seeded runs therefore pick
        identical victim sequences - a property the aged-device regression
        tests rely on.
        """
        # Direct scan of the full, non-active blocks: the GC trigger runs
        # this once per sub-watermark host write.  Ascending iteration with
        # a strict ``<`` keeps the lowest-block-id tie-break exact.
        best: Optional[Block] = None
        best_valid = 0
        active_id = self.active_block_id
        pages_per_block = self.pages_per_block
        for block in self.blocks:
            if block.write_pointer < pages_per_block or block.block_id == active_id:
                continue
            valid = block._valid_count
            if best is None or valid < best_valid:
                best = block
                best_valid = valid
        return best

    def __repr__(self) -> str:
        return (
            f"Plane(key={self.plane_key}, free_blocks={self.free_blocks}/"
            f"{len(self.blocks)})"
        )
