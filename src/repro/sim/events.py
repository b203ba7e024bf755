"""Discrete-event primitives.

The simulator is a classic discrete-event loop: events are stored in a heap
ordered by (time, sequence number) so that simultaneous events are processed
in insertion order, which keeps runs fully deterministic.

Heap entries are plain ``(time_ns, sequence, kind, payload)`` tuples: the
heap then compares them in C instead of calling a generated ``__lt__`` per
sift step.  The sequence number is unique per queue, so a comparison never
falls through to the (unorderable) ``kind``/``payload`` fields.

:class:`EventQueue` holds the heap and the dispatch counters but has no
push/pop methods: the simulator's handlers ``heapq.heappush`` entries onto
:attr:`EventQueue.heap` themselves and its run loop pops same-timestamp
batches straight off it, because a helper call per event was a measurable
share of the loop's host time.  The scheduling contract lives with those
two sides (:class:`repro.sim.ssd.SSDSimulator`):

* an event time must be non-negative (a handler raises ``ValueError``);
* a batch is every event at the earliest timestamp, popped before any of
  them runs; an event pushed at the current timestamp while a batch runs
  lands in the *next* batch (sequence numbers are monotonic, so events
  still run in exact ``(time, sequence)`` order);
* an event pushed into the past is a contract violation: it is still
  processed, but only after the current batch, out of timestamp order.
"""

from __future__ import annotations

import enum
import itertools
from typing import List


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
        #: The heap itself, ordered by ``(time_ns, sequence)``.
        self.heap: List[tuple] = []
        #: Source of the per-queue sequence numbers: ``next(sequence)``.
        self.sequence = itertools.count()
        #: Events dispatched so far, including the merged-in arrivals.
        self.processed = 0
        #: Number of same-timestamp batches dispatched, and the largest one.
        #: The simulator also folds its merged-in arrival groups into these,
        #: so together they describe every batch the event loop dispatched.
        self.batches = 0
        self.largest_batch = 0

    def __len__(self) -> int:
        return len(self.heap)
