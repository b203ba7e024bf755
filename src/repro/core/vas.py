"""Virtual Address Scheduler (VAS).

VAS (paper Section 3, Figure 4) decides the order of I/O requests purely in
the device-level queue and builds/commits memory requests relying only on the
virtual addresses of the I/O requests.  Two consequences:

* it processes I/O requests strictly in arrival (FIFO) order - it never
  reorders around a request collision,
* when the next I/O in line collides with outstanding work on any of its
  target chips, the whole composition pipeline stalls until that work
  completes ("VAS has to wait for the completion of the previously-committed
  request", Figure 4a), leaving other chips idle.

Within one I/O the memory requests are composed back-to-back; across I/Os
the head-of-line blocking rule applies.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.scheduler import SchedulerBase, SchedulerContext
from repro.flash.request import MemoryRequest


class VirtualAddressScheduler(SchedulerBase):
    """FIFO scheduler with head-of-line blocking on chip conflicts."""

    name = "VAS"
    allows_overcommit = False
    uses_readdressing_callback = False

    def __init__(self, context: SchedulerContext) -> None:
        super().__init__(context)
        #: Compositions refused because the head I/O collided with
        #: outstanding chip work (the paper's Figure 4a stall).
        self._hol_stalls = 0

    def observability_counters(self) -> Dict[str, int]:
        counters = super().observability_counters()
        counters["scheduler.hol_stalls"] = self._hol_stalls
        return counters

    def next_composition(self, now_ns: int) -> Optional[MemoryRequest]:
        """Compose the head-of-queue I/O, stalling on chip conflicts."""
        # Strict FIFO only ever looks at the first tag with uncomposed work,
        # so scan for it directly instead of materialising the whole pending
        # list on every composition.
        head = None
        for tag in self.tags.values():
            if tag.composed_count < len(tag.memory_requests):
                head = tag
                break
        if head is None:
            return None
        if head.composed_count == 0 and head.chip_mask & self._busy_mask():
            # The head I/O collides with outstanding work; VAS is unaware of
            # the physical layout, so it simply waits - nothing else may be
            # composed in the meantime (strict FIFO).
            self._hol_stalls += 1
            return None
        return head.next_uncomposed()
