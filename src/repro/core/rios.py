"""RIOS: Resource-driven I/O Scheduling traversal order.

RIOS (paper Section 4.1) composes and commits memory requests *per flash
chip*, not per I/O request.  To avoid system-level contention it does not
visit chips in channel-first order (which would serialise bus activity on one
channel); instead it visits the chips that share the same offset within each
channel, across different channels, then increments the chip offset:

    C0 (ch0, offset0), C1 (ch1, offset0), ..., C(n-1) (ch n-1, offset0),
    Cn (ch0, offset1), ...

so consecutive commitments stripe across channels (channel striping) and
consecutive offsets pipeline within each channel (channel pipelining).

:class:`RiosTraversal` maintains a cyclic cursor over that order; Sprinkler
asks it for the next chip that currently has composable work.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

from repro.flash.geometry import SSDGeometry


class RiosTraversal:
    """Cyclic chip traversal in channel-striped, offset-major order."""

    def __init__(self, geometry: SSDGeometry, channel_first: bool = False) -> None:
        """``channel_first=True`` produces the *bad* order (all chips of one
        channel before moving to the next) that the paper warns against; it
        is kept as an option for the RIOS traversal ablation."""
        self.geometry = geometry
        self.channel_first = channel_first
        self._order: List[tuple] = list(self._build_order())
        self._index = {chip_key: index for index, chip_key in enumerate(self._order)}
        self._cursor = 0
        #: Successful chip selections handed out (observability counter).
        self.visits = 0

    def _build_order(self):
        if self.channel_first:
            for channel in range(self.geometry.num_channels):
                for chip in range(self.geometry.chips_per_channel):
                    yield (channel, chip)
        else:
            yield from self.geometry.iter_chip_keys()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def order(self) -> Sequence[tuple]:
        """The full traversal order of chip keys."""
        return tuple(self._order)

    @property
    def cursor(self) -> int:
        """Current position of the traversal cursor."""
        return self._cursor

    def reset(self) -> None:
        """Move the cursor back to the first chip."""
        self._cursor = 0

    # ------------------------------------------------------------------
    # Traversal
    # ------------------------------------------------------------------
    def next_chip(self, has_work: Callable[[tuple], bool]) -> Optional[tuple]:
        """Return the next chip (in traversal order) for which ``has_work``.

        Scans at most one full cycle starting at the cursor; the cursor is
        left pointing *after* the returned chip so successive calls visit
        different chips before revisiting (breadth-first across the SSD).
        Returns ``None`` when no chip currently has work.
        """
        total = len(self._order)
        for step in range(total):
            index = (self._cursor + step) % total
            chip_key = self._order[index]
            if has_work(chip_key):
                self._cursor = (index + 1) % total
                self.visits += 1
                return chip_key
        return None

    def index_of(self, chip_key: tuple) -> int:
        """Position of a chip in the traversal order."""
        return self._index[chip_key]

    def next_chip_indexed(self, indices) -> Optional[tuple]:
        """Next chip at a traversal index in ``indices``, cyclically from the cursor.

        Equivalent to :meth:`next_chip` with ``has_work = index in indices``
        but O(len(indices)) instead of a scan over every chip of the SSD:
        the caller (Sprinkler) maintains the set of traversal indices that
        currently hold composable work, so an SSD with work on 3 of 1024
        chips inspects 3 candidates, not 1024.
        """
        if not indices:
            return None
        total = len(self._order)
        cursor = self._cursor
        best = total
        for index in indices:
            offset = index - cursor
            if offset < 0:
                offset += total
            if offset < best:
                best = offset
        index = cursor + best
        if index >= total:
            index -= total
        self._cursor = index + 1 if index + 1 < total else 0
        self.visits += 1
        return self._order[index]

    def __len__(self) -> int:
        return len(self._order)
