"""Discrete-event primitives.

The simulator is a classic discrete-event loop: events are stored in a heap
ordered by (time, sequence number) so that simultaneous events are processed
in insertion order, which keeps runs fully deterministic.

Heap entries are plain ``(time_ns, sequence, kind, payload)`` tuples: the
heap then compares them in C instead of calling a generated ``__lt__`` per
sift step, which measurably speeds up the simulator's inner loop.  The
sequence number is unique per queue, so a comparison never falls through to
the (unorderable) ``kind``/``payload`` fields.
"""

from __future__ import annotations

import enum
import heapq
import itertools
from typing import Any, List, Optional


class EventKind(enum.Enum):
    """Kinds of events the SSD simulator processes.

    Host arrivals are not events: the simulator merges them in from the
    sorted workload, so the heap only holds the kinds below.
    """

    COMPOSE_DONE = "compose_done"
    TRANSACTION_DONE = "transaction_done"
    TRANSACTION_DECISION = "transaction_decision"


class EventQueue:
    """Deterministic min-heap of ``(time_ns, sequence, kind, payload)`` tuples."""

    def __init__(self) -> None:
        self._heap: List[tuple] = []
        self._sequence = itertools.count()
        self.processed = 0
        #: Number of same-timestamp batches handed out, and the largest one.
        #: The simulator also folds its merged-in arrival groups into these,
        #: so together they describe every batch the event loop dispatched.
        self.batches = 0
        self.largest_batch = 0

    def push(self, time_ns: int, kind: EventKind, payload: Any = None) -> None:
        """Schedule an event at ``time_ns``.

        Returns ``None`` deliberately: the heap entry is an internal
        representation (callers held onto the raw tuple and compared it
        against popped events, which broke the moment the entry layout
        changed).  Scheduling is fire-and-forget; cancellation does not
        exist in this simulator.
        """
        if time_ns < 0:
            raise ValueError("event time must be non-negative")
        heapq.heappush(self._heap, (time_ns, next(self._sequence), kind, payload))

    def pop_batch(self) -> Optional[tuple]:
        """Pop every event at the earliest timestamp, or ``None`` when empty.

        Returns ``(time_ns, batch)`` with the batch in sequence order and
        commits ``processed``, so the caller advances its clock and
        re-enters its dispatch loop once per *timestamp* instead of once per
        event.  The simulator interleaves these batches with the workload
        arrivals it merges in from a sorted list, so the heap never has to
        hold the whole trace.

        Re-entrancy contract: handlers may push while a batch is being
        processed.  A push at the current batch timestamp lands in the
        *next* batch (sequence numbers are monotonic, so events still run in
        exact ``(time, sequence)`` order); a push at an earlier timestamp is
        a contract violation - it is still processed, but only after the
        current batch, i.e. out of timestamp order.  Handlers must never
        schedule into the past.
        """
        heap = self._heap
        if not heap:
            return None
        pop = heapq.heappop
        time_ns = heap[0][0]
        batch = [pop(heap)]
        append = batch.append
        while heap and heap[0][0] == time_ns:
            append(pop(heap))
        size = len(batch)
        self.processed += size
        self.batches += 1
        if size > self.largest_batch:
            self.largest_batch = size
        return time_ns, batch

    def peek_time(self) -> Optional[int]:
        """Time of the earliest event, or ``None`` when empty."""
        if not self._heap:
            return None
        return self._heap[0][0]

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)
