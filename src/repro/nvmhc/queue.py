"""Device-level queue (NCQ-style).

The NVMHC owns a bounded queue of tags.  All schedulers in the paper operate
on "the same type of out-of-order executable device level queue (NCQ)"
(Figure 4 footnote); they differ only in how they pick work out of it.  When
the queue is full, newly arriving host requests wait in a host-side backlog;
the time requests spend there is the *queue stall time* reported in
Figure 10d.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional

from repro.nvmhc.tag import Tag
from repro.workloads.request import IORequest


@dataclass
class QueueStats:
    """Occupancy and stall statistics of the device queue."""

    enqueued: int = 0
    completed: int = 0
    backlog_peak: int = 0
    total_backlog_wait_ns: int = 0
    stalled_requests: int = 0


class DeviceQueue:
    """Bounded out-of-order device queue with a host-side backlog."""

    def __init__(self, depth: int = 64) -> None:
        if depth <= 0:
            raise ValueError("queue depth must be positive")
        self.depth = depth
        # Insertion-ordered: dict order is arrival order, so no separate
        # order list (whose O(n) removal showed up on retire) is needed.
        self._tags: Dict[int, Tag] = {}
        self._backlog: Deque[IORequest] = deque()
        self.stats = QueueStats()

    # ------------------------------------------------------------------
    # Capacity
    # ------------------------------------------------------------------
    @property
    def occupancy(self) -> int:
        """Number of tags currently held in the device queue."""
        return len(self._tags)

    @property
    def is_full(self) -> bool:
        """True when no further tag can be admitted."""
        return self.occupancy >= self.depth

    @property
    def backlog_size(self) -> int:
        """Number of host requests waiting for a queue slot."""
        return len(self._backlog)

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def submit(self, io: IORequest, now_ns: int) -> Optional[Tag]:
        """Offer a host request to the queue.

        Returns the admitted tag, or ``None`` when the queue is full and the
        request went to the host-side backlog instead.
        """
        if self.is_full:
            self._backlog.append(io)
            self.stats.stalled_requests += 1
            self.stats.backlog_peak = max(self.stats.backlog_peak, len(self._backlog))
            return None
        return self._admit(io, now_ns)

    def admit_from_backlog(self, now_ns: int) -> List[Tag]:
        """Admit as many backlogged requests as free slots allow."""
        admitted: List[Tag] = []
        while self._backlog and not self.is_full:
            io = self._backlog.popleft()
            self.stats.total_backlog_wait_ns += max(0, now_ns - io.arrival_ns)
            admitted.append(self._admit(io, now_ns))
        return admitted

    def _admit(self, io: IORequest, now_ns: int) -> Tag:
        io.enqueued_at_ns = now_ns
        tag = Tag(io=io, enqueued_at_ns=now_ns)
        self._tags[io.io_id] = tag
        self.stats.enqueued += 1
        return tag

    # ------------------------------------------------------------------
    # Completion
    # ------------------------------------------------------------------
    def retire(self, io_id: int) -> Tag:
        """Remove a fully-served tag from the queue, freeing its slot."""
        tag = self._tags.pop(io_id)
        self.stats.completed += 1
        return tag
