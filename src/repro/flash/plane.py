"""Plane and block state tracking.

The FTL and the garbage collector need to know, for every plane, which
blocks are free, which pages inside a block still hold valid data, and how
many erase cycles each block has seen.  :class:`Plane` holds exactly that
state; it performs no timing - timing lives in the controller/simulator.

The per-block state is stored as flat per-plane lists indexed by block id
(``write_pointer``, ``valid_bits``, ``valid_count``, ``erase_count``) rather
than as one object per block: a paper-scale 64-chip device has 16,384 erase
blocks and a 1,024-chip one 262,144, and building one Python object for
each dominated simulator construction.  Four lists per plane build in
O(planes) allocations.  The valid bits of a block are an integer bitmask
(bit ``p`` set iff page ``p`` is live), so many-chip devices stay
memory-cheap, and the number of set bits is kept in ``valid_count`` so hot
callers (GC victim selection) never pay a popcount.

Aggregate queries (``free_blocks``, ``free_pages``, ``erases``) are plain
attributes the plane maintains incrementally as its blocks change state.
The GC trigger asks "is this plane below the free-block watermark?" once per
host write, so the trigger is a comparison, not a scan of the blocks.

The lists are public so the per-page-write hot paths (the allocator's
active-block fast path, the bulk base fill) can update them inline; every
such caller keeps the aggregates exact exactly as the methods here do.
Nothing in a plane points back at it or at its chip, so a device's object
graph is acyclic and reference counting alone frees it.
"""

from __future__ import annotations

from typing import Optional


class Plane:
    """One memory array of a die: its blocks' state plus an active write block."""

    __slots__ = (
        "plane_key",
        "blocks_per_plane",
        "pages_per_block",
        "write_pointer",
        "valid_bits",
        "valid_count",
        "erase_count",
        "free_blocks",
        "free_pages",
        "erases",
        "active_block_id",
    )

    def __init__(self, plane_key: tuple, blocks_per_plane: int, pages_per_block: int) -> None:
        self.plane_key = plane_key
        self.blocks_per_plane = blocks_per_plane
        self.pages_per_block = pages_per_block
        #: Next page to program in each block; 0 means erased (free).
        self.write_pointer = [0] * blocks_per_plane
        #: Each block's valid-page bitmask.
        self.valid_bits = [0] * blocks_per_plane
        #: Each block's number of valid pages (the popcount of its mask).
        self.valid_count = [0] * blocks_per_plane
        #: Each block's erase cycles.
        self.erase_count = [0] * blocks_per_plane
        #: Blocks with no programmed page.
        self.free_blocks = blocks_per_plane
        #: Programmable pages left in the plane.
        self.free_pages = blocks_per_plane * pages_per_block
        #: Erase operations performed on blocks of this plane (lets wear
        #: queries skip never-erased planes without scanning their blocks).
        self.erases = 0
        self.active_block_id: Optional[int] = None

    # ------------------------------------------------------------------
    # Block state changes
    # ------------------------------------------------------------------
    def program_next(self, block: int) -> int:
        """Consume the next free page of ``block`` and mark it valid.

        Returns the page index that was programmed.  Raises ``RuntimeError``
        if the block is already full - the caller (the allocator) must have
        rotated to a fresh block first.
        """
        page = self.write_pointer[block]
        if page >= self.pages_per_block:
            raise RuntimeError(f"block {block} is full")
        self.valid_bits[block] |= 1 << page
        self.valid_count[block] += 1
        self.write_pointer[block] = page + 1
        if page == 0:
            self.free_blocks -= 1
        self.free_pages -= 1
        return page

    def program_run(self, block: int, count: int) -> int:
        """Program the next ``count`` free pages of ``block`` in one step.

        Exactly equivalent to ``count`` consecutive :meth:`program_next`
        calls - write pointer advanced by ``count``, the programmed pages all
        marked valid, aggregates updated once - but with a single mask
        update instead of per-page bit twiddling.  The garbage collector uses
        this to place a whole run of migrated pages on the active block.
        Returns the first programmed page index.
        """
        start = self.write_pointer[block]
        if count <= 0 or start + count > self.pages_per_block:
            raise RuntimeError(f"block {block} cannot program a run of {count} pages")
        self.valid_bits[block] |= ((1 << count) - 1) << start
        self.valid_count[block] += count
        self.write_pointer[block] = start + count
        if start == 0:
            self.free_blocks -= 1
        self.free_pages -= count
        return start

    def program_bulk(self, block: int, count: int) -> None:
        """Program the first ``count`` pages of a *free* ``block`` in one step.

        Reaches, in O(1), the exact state that ``count`` consecutive
        :meth:`program_next` calls would leave behind: write pointer at
        ``count`` and pages ``0..count-1`` all valid.  Only legal on an
        erased block - bulk programming must never silently clobber per-page
        valid bookkeeping.
        """
        if not 0 <= count <= self.pages_per_block:
            raise ValueError(f"count {count} out of range")
        if self.write_pointer[block]:
            raise RuntimeError(f"block {block} is not free; cannot bulk-program")
        self.write_pointer[block] = count
        self.valid_bits[block] = (1 << count) - 1
        self.valid_count[block] = count
        if count > 0:
            self.free_blocks -= 1
            self.free_pages -= count

    def invalidate(self, block: int, page: int) -> None:
        """Mark a previously-programmed page of ``block`` as stale."""
        if not 0 <= page < self.pages_per_block:
            raise ValueError(f"page {page} out of range")
        bits = self.valid_bits[block]
        bit = 1 << page
        if bits & bit:
            self.valid_bits[block] = bits ^ bit
            self.valid_count[block] -= 1

    def invalidate_mask(self, block: int, mask: int) -> int:
        """Mark every page of ``block`` whose bit is set in ``mask`` as stale.

        Equivalent to calling :meth:`invalidate` for each set bit (already
        invalid pages are ignored), but with one mask update.  Returns the
        number of pages that went stale.
        """
        bits = self.valid_bits[block]
        cleared = bits & mask
        if not cleared:
            return 0
        removed = cleared.bit_count()
        self.valid_bits[block] = bits ^ cleared
        self.valid_count[block] -= removed
        return removed

    def erase(self, block: int) -> None:
        """Erase ``block``: clear all its pages and bump its erase count."""
        used = self.write_pointer[block]
        if used > 0:
            self.free_blocks += 1
        self.free_pages += used
        self.erases += 1
        self.write_pointer[block] = 0
        self.valid_bits[block] = 0
        self.valid_count[block] = 0
        self.erase_count[block] += 1

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
        return block, self.program_next(block)

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
        count = min(max_count, self.pages_per_block - self.write_pointer[block])
        return block, self.program_run(block, count), count

    def _active_block(self) -> Optional[int]:
        """The active block id, rotated first when it is full (or unset)."""
        write_pointer = self.write_pointer
        pages_per_block = self.pages_per_block
        block = self.active_block_id
        if block is not None and write_pointer[block] < pages_per_block:
            return block
        # Rotate to the first erased block, else to any block with room
        # (partially written).
        if self.free_blocks:
            block = write_pointer.index(0)
        else:
            for block, used in enumerate(write_pointer):
                if used < pages_per_block:
                    break
            else:
                return None
        self.active_block_id = block
        return block

    # ------------------------------------------------------------------
    # Garbage collection support
    # ------------------------------------------------------------------
    def greedy_victim(self) -> Optional[int]:
        """Id of the victim block with the fewest valid pages (greedy GC).

        Candidates are the full blocks other than the active block.
        Selection is explicitly deterministic: candidates are compared on
        ``(valid_pages, block_id)``, so ties on valid-page count always go to
        the lowest-numbered block.  Identically-seeded runs therefore pick
        identical victim sequences - a property the aged-device regression
        tests rely on.
        """
        # The GC trigger runs this once per sub-watermark host write.
        # Ascending iteration with a strict ``<`` keeps the lowest-block-id
        # tie-break exact.
        best: Optional[int] = None
        best_valid = 0
        active = self.active_block_id
        pages_per_block = self.pages_per_block
        valid_count = self.valid_count
        for block, used in enumerate(self.write_pointer):
            if used < pages_per_block or block == active:
                continue
            valid = valid_count[block]
            if best is None or valid < best_valid:
                best = block
                best_valid = valid
        return best

    def __repr__(self) -> str:
        return (
            f"Plane(key={self.plane_key}, free_blocks={self.free_blocks}/"
            f"{self.blocks_per_plane})"
        )
