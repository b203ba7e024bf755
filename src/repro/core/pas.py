"""Physical Address Scheduler (PAS).

PAS (paper Section 3, Figure 5) schedules I/O requests with knowledge of the
physical addresses exposed by a hardware-assisted preprocessor (Ozone) or a
software translation unit (PAQ).  It can therefore *reorder* I/O requests to
avoid request collisions and execute them in a coarse-grain out-of-order
fashion: an I/O is committed only when none of its target chips holds
outstanding work, and I/Os that would collide are skipped until the conflict
clears.

Its two remaining weaknesses (which Sprinkler removes) are preserved here:

* composition and commitment happen at *I/O request* granularity and in
  arrival order among the eligible requests, so the achievable parallelism
  still depends on the incoming access pattern (parallelism dependency);
* it never over-commits - a chip holds the requests of at most one I/O at a
  time - so the flash controller rarely sees enough requests to build a
  high-FLP transaction across I/O boundaries.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.scheduler import SchedulerBase
from repro.flash.request import MemoryRequest
from repro.nvmhc.tag import Tag


class PhysicalAddressScheduler(SchedulerBase):
    """Coarse-grain out-of-order scheduler at I/O granularity."""

    name = "PAS"
    allows_overcommit = False
    uses_readdressing_callback = False

    def __init__(self, context) -> None:
        super().__init__(context)
        #: The I/O currently being composed.  PAS commits one I/O atomically
        #: before considering the next, so at most one tag is partially
        #: composed at any instant.
        self._current: Optional[Tag] = None
        #: Registered I/Os not picked yet, keyed by ``io_id`` in arrival
        #: order: the candidates of the conflict scan.
        self._unstarted: Dict[int, Tag] = {}
        #: Busy mask under which the last scan found every candidate in
        #: conflict, or ``None`` once a tag arrived or was picked since.
        self._stale_busy: Optional[int] = None
        #: Queued I/Os bypassed because a target chip held outstanding work
        #: (each skip is one out-of-order reordering decision).
        self._conflict_skips = 0

    def observability_counters(self) -> Dict[str, int]:
        counters = super().observability_counters()
        counters["scheduler.conflict_skips"] = self._conflict_skips
        return counters

    def register_tag(self, tag: Tag, now_ns: int) -> None:
        super().register_tag(tag, now_ns)
        if tag.memory_requests:
            self._unstarted[tag.io.io_id] = tag
            self._stale_busy = None

    def next_composition(self, now_ns: int) -> Optional[MemoryRequest]:
        """Continue a partially-composed I/O, else start a conflict-free one."""
        current = self._current
        if current is not None:
            request = current.next_uncomposed()
            if request is not None:
                return request
            self._current = None
        unstarted = self._unstarted
        if not unstarted:
            return None
        busy = self._busy_mask()
        stale = self._stale_busy
        if stale is not None and not stale & ~busy:
            # No tag arrived and no busy chip went idle since the last scan
            # found every candidate in conflict, so each still conflicts:
            # count the skips that scan would count and skip the scan.
            self._conflict_skips += len(unstarted)
            return None
        # Pick the first queued I/O whose chips are all free, in arrival order.
        picked = None
        skipped = 0
        for tag in unstarted.values():
            if not tag.chip_mask & busy:
                picked = tag
                break
            skipped += 1  # collision: try the next queued I/O
        self._conflict_skips += skipped
        if picked is None:
            self._stale_busy = busy
            return None
        del unstarted[picked.io.io_id]
        self._stale_busy = None
        self._current = picked
        return picked.next_uncomposed()

    def on_tag_retired(self, tag: Tag) -> None:
        super().on_tag_retired(tag)
        if self._current is not None and self._current.io_id == tag.io_id:
            self._current = None
