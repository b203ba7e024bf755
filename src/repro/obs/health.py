"""Periodic simulator health sampling.

The :class:`HealthSampler` rides inside a running
:class:`~repro.sim.ssd.SSDSimulator` and, on a configurable *simulated-time*
cadence, records one :class:`HealthSample` of the pressure gauges a long run
needs watched: event backlog, host/device queue depths, GC debt and
free-block pressure, and instantaneous chip busyness.  Samples land at the
first clock advance at or past each interval boundary, so the series is a
pure function of the event stream.

This module is an import leaf (no module-level :mod:`repro` imports), so
both the simulator and the result container can depend on it without
cycles.  The series is observational only: it is carried on the result as a
fingerprint-excluded field and never influences simulated behaviour.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, NamedTuple, Tuple

#: Default sampling cadence: 1 ms of simulated time (matches the default
#: tail-latency window, so health and tail series line up).
DEFAULT_HEALTH_INTERVAL_NS = 1_000_000

#: Bound on retained samples: old samples are dropped first, so the series
#: stays memory-flat on arbitrarily long replays.
MAX_HEALTH_SAMPLES = 4096


class HealthSample(NamedTuple):
    """One instantaneous snapshot of simulator pressure gauges."""

    #: Simulated time the sample was taken at.
    t_ns: int
    #: Events processed so far (ties the sample to run progress).
    events_processed: int
    #: Dynamic events waiting in the event heap.
    event_backlog: int
    #: Tags occupying the device queue (NCQ occupancy).
    queue_depth: int
    #: Host-side requests waiting for a free queue slot.
    host_backlog: int
    #: Host I/Os admitted but not yet fully served.
    inflight_ios: int
    #: GC jobs queued behind busy chips (the GC debt).
    gc_backlog: int
    #: Planes currently below the GC free-block watermark.
    planes_below_watermark: int
    #: Free blocks on the tightest plane (the free-block pressure gauge).
    min_free_blocks: int
    #: Free blocks across every plane of every chip.
    total_free_blocks: int
    #: Chips executing a transaction at the sample instant.
    busy_chips: int
    #: ``busy_chips`` over the chip population.
    chip_busy_fraction: float


class HealthSampler:
    """Samples a simulator's health on a fixed simulated-time cadence.

    The simulator calls :meth:`sample` whenever its clock advances to or
    past :attr:`next_due_ns`; the sampler snapshots the gauges and arms the
    next boundary strictly after ``now_ns`` (idle gaps produce no backfilled
    samples).  :data:`MAX_HEALTH_SAMPLES` bounds retention ring-buffer style.
    """

    def __init__(self, interval_ns: int = DEFAULT_HEALTH_INTERVAL_NS) -> None:
        if interval_ns <= 0:
            raise ValueError("interval_ns must be positive")
        self.interval_ns = interval_ns
        self.next_due_ns = interval_ns
        self.taken = 0
        self.samples: Deque[HealthSample] = deque(maxlen=MAX_HEALTH_SAMPLES)

    def sample(self, simulator, now_ns: int) -> HealthSample:
        """Record one sample from ``simulator`` state at ``now_ns``."""
        # Lazy: this module stays an import leaf.
        from repro.ftl.garbage_collector import FREE_BLOCK_WATERMARK

        chips = simulator.chips
        busy_chips = 0
        for chip in chips.values():
            if now_ns < chip.busy_until:
                busy_chips += 1
        min_free = -1
        total_free = 0
        below = 0
        for chip in chips.values():
            for plane in chip.planes.values():
                free = plane.free_blocks
                total_free += free
                if free < FREE_BLOCK_WATERMARK:
                    below += 1
                if min_free < 0 or free < min_free:
                    min_free = free
        record = HealthSample(
            t_ns=now_ns,
            events_processed=simulator.events.processed,
            event_backlog=len(simulator.events),
            queue_depth=simulator.queue.occupancy,
            host_backlog=simulator.queue.backlog_size,
            inflight_ios=len(simulator._tags_by_io),
            gc_backlog=sum(len(jobs) for jobs in simulator._gc_backlog.values()),
            planes_below_watermark=below,
            min_free_blocks=max(min_free, 0),
            total_free_blocks=total_free,
            busy_chips=busy_chips,
            chip_busy_fraction=busy_chips / len(chips) if chips else 0.0,
        )
        self.samples.append(record)
        self.taken += 1
        # Arm the first boundary strictly after now; long idle stretches
        # skip straight to the next live instant instead of backfilling.
        self.next_due_ns = (now_ns // self.interval_ns + 1) * self.interval_ns
        return record

    def finish(self) -> Tuple[HealthSample, ...]:
        """The retained series, oldest first (most recent ``MAX_HEALTH_SAMPLES``)."""
        return tuple(self.samples)
