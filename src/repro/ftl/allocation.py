"""Page allocation.

The order in which the FTL stripes consecutive logical pages across the
SSD's resources determines how much system-level and flash-level parallelism
a single I/O request can reach (the "page allocation schemes" the paper cites
[16, 36, 13]).  The allocator uses one order - channel, then way (chip), then
die, then plane - which maximises channel striping for sequential traffic,
the common choice in the literature and the layout the paper's examples
assume.

The allocator owns one write point per plane and hands out free pages in
that striping order.  It is used both for the *static* layout (the physical
home of never-written logical pages) and for *dynamic* allocation of new page
versions on writes.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.flash.chip import FlashChip, planes_by_key
from repro.flash.geometry import PhysicalPageAddress, SSDGeometry


class PageAllocator:
    """Round-robin page allocator over the SSD's planes."""

    def __init__(self, geometry: SSDGeometry, chips: Dict[tuple, FlashChip]) -> None:
        self.geometry = geometry
        self.chips = chips
        # (channel, chip, die, plane) keys in striping order: the channel
        # varies fastest, then the way, the die and the plane.
        self._plane_sequence = [
            (channel, way, die, plane)
            for plane in range(geometry.planes_per_die)
            for die in range(geometry.dies_per_chip)
            for way in range(geometry.chips_per_channel)
            for channel in range(geometry.num_channels)
        ]
        self._cursor = 0
        # Hot-path constants (static_address runs once per translated read).
        self._num_planes = len(self._plane_sequence)
        self._pages_per_plane = geometry.pages_per_plane
        self._pages_per_block = geometry.pages_per_block
        # Direct plane lookup: allocation runs once per page write (see
        # repro.flash.chip.planes_by_key).
        self._planes_by_key = planes_by_key(chips)
        #: The plane objects in striping order: the cursor indexes it.
        self._plane_list = [self._planes_by_key[key] for key in self._plane_sequence]

    # ------------------------------------------------------------------
    # Plane traversal
    # ------------------------------------------------------------------
    @property
    def plane_sequence(self) -> Sequence[tuple]:
        """The striping sequence of plane keys used by this allocator."""
        return tuple(self._plane_sequence)

    @property
    def cursor(self) -> int:
        """Index into :attr:`plane_sequence` of the next round-robin target."""
        return self._cursor

    @cursor.setter
    def cursor(self, value: int) -> None:
        """Reposition the round-robin cursor (fast-forward aging support).

        Setting the cursor to ``n % len(plane_sequence)`` leaves the
        allocator exactly where ``n`` fresh-device allocations would have,
        so bulk-programmed state stays bit-identical to a write-by-write
        replay.
        """
        if not 0 <= value < len(self._plane_sequence):
            raise ValueError(f"cursor {value} out of range")
        self._cursor = value

    # ------------------------------------------------------------------
    # Static layout
    # ------------------------------------------------------------------
    def static_address(self, lpn: int) -> PhysicalPageAddress:
        """Deterministic physical home of a logical page that was never written.

        Logical pages are striped across planes in the striping order;
        within a plane they fill blocks sequentially.  The result is the
        layout a freshly-imaged SSD would exhibit, used to serve reads of
        never-written data.
        """
        if lpn < 0:
            raise ValueError("lpn must be non-negative")
        stripe, within_plane = lpn % self._num_planes, lpn // self._num_planes
        channel, chip, die, plane = self._plane_sequence[stripe]
        within_plane %= self._pages_per_plane
        block, page = divmod(within_plane, self._pages_per_block)
        return PhysicalPageAddress(channel, chip, die, plane, block, page)

    # ------------------------------------------------------------------
    # Dynamic allocation
    # ------------------------------------------------------------------
    def allocate(self, preferred_plane: Optional[tuple] = None) -> PhysicalPageAddress:
        """Allocate a free physical page for a new write.

        When ``preferred_plane`` is given (GC migrations stay inside their
        plane to keep copyback legal) the page is taken from that plane;
        otherwise the allocator round-robins across planes in striping order.
        Raises ``RuntimeError`` when the whole SSD is out of free pages.

        A round-robin call whose cursor plane has room on its active block -
        every host write but the one per block that rotates to a fresh
        block - takes the page straight from that block, the page the
        general loop below would find first, programming it inline on the
        plane's lists (what :meth:`repro.flash.plane.Plane.program_next`
        does, without the call).
        """
        num_planes = self._num_planes
        if preferred_plane is None:
            cursor = self._cursor
            plane_obj = self._plane_list[cursor]
            block_id = plane_obj.active_block_id
            if block_id is not None:
                write_pointer = plane_obj.write_pointer
                page = write_pointer[block_id]
                if page < self._pages_per_block:
                    write_pointer[block_id] = page + 1
                    plane_obj.valid_bits[block_id] |= 1 << page
                    plane_obj.valid_count[block_id] += 1
                    if page == 0:
                        plane_obj.free_blocks -= 1
                    plane_obj.free_pages -= 1
                    self._cursor = (cursor + 1) % num_planes
                    channel, chip, die, plane = self._plane_sequence[cursor]
                    # tuple.__new__ builds the same object as the NamedTuple
                    # constructor at half the cost.
                    return tuple.__new__(
                        PhysicalPageAddress, (channel, chip, die, plane, block_id, page)
                    )
        else:
            address = self._allocate_in_plane(preferred_plane)
            if address is not None:
                return address
            # Preferred plane full: fall through to the global round-robin.
        for step in range(num_planes):
            plane_key = self._plane_sequence[(self._cursor + step) % num_planes]
            address = self._allocate_in_plane(plane_key)
            if address is not None:
                self._cursor = (self._cursor + step + 1) % num_planes
                return address
        raise RuntimeError("SSD is out of free pages; garbage collection cannot keep up")

    def _allocate_in_plane(self, plane_key: tuple) -> Optional[PhysicalPageAddress]:
        plane_obj = self._planes_by_key[plane_key]
        # Ask the plane directly instead of pre-scanning free_pages: the
        # common case (active block has room) is O(1), and a full plane
        # reports itself via RuntimeError.  The free_pages scan was the
        # dominant cost of write-heavy bookkeeping (aging, GC migrations).
        try:
            block, page = plane_obj.allocate_page()
        except RuntimeError:
            return None
        channel, chip, die, plane = plane_key
        return tuple.__new__(PhysicalPageAddress, (channel, chip, die, plane, block, page))
