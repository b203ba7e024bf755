"""Workload characterization: the stats report stamped on built scenarios.

Table 1 of the paper summarises each evaluation trace by transfer volume,
instruction counts, randomness and locality.  This module computes the
analogous summary for *any* request list - including scenarios assembled
from multiple tenants and arrival processes - so every generated workload
carries a quantitative identity: how much is read vs written, how big the
working set is, how sequential the access pattern is, and how hard the
arrival process presses on the device queue.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.workloads.request import IORequest

KB = 1024
MB = 1024 * KB

#: Footprint granularity of the working-set measurement.
FOOTPRINT_PAGE_BYTES = 4 * KB
#: First-order per-request service time of the offered queue-depth model;
#: the fleet's virtual queue-depth limiter uses the same model.
NOMINAL_SERVICE_NS = 100_000


@dataclass(frozen=True)
class WorkloadCharacterization:
    """Summary statistics of one request stream."""

    num_requests: int
    total_bytes: int
    read_fraction: float
    avg_request_bytes: float
    #: Unique logical pages touched, in bytes (footprint, not traffic).
    working_set_bytes: int
    #: Fraction of requests starting exactly where the previous one ended.
    sequentiality: float
    #: Last arrival minus first arrival.
    duration_ns: int
    arrival_rate_per_s: float
    #: Coefficient of variation of inter-arrival gaps (1.0 for Poisson,
    #: > 1 bursty, 0 for a fixed gap) - the burstiness signature.
    interarrival_cv: float
    #: Offered queue depth against a nominal per-request service time.
    mean_queue_depth: float
    max_queue_depth: int

    def summary_row(self) -> Dict[str, object]:
        """One row of the characterization tables."""
        return {
            "requests": self.num_requests,
            "total_mb": round(self.total_bytes / MB, 2),
            "read_pct": round(100.0 * self.read_fraction, 1),
            "avg_kb": round(self.avg_request_bytes / KB, 1),
            "working_set_mb": round(self.working_set_bytes / MB, 2),
            "seq_pct": round(100.0 * self.sequentiality, 1),
            "duration_ms": round(self.duration_ns / 1e6, 3),
            "rate_kiops": round(self.arrival_rate_per_s / 1e3, 1),
            "gap_cv": round(self.interarrival_cv, 2),
            "mean_qd": round(self.mean_queue_depth, 1),
            "max_qd": self.max_queue_depth,
        }


_EMPTY = WorkloadCharacterization(
    num_requests=0,
    total_bytes=0,
    read_fraction=0.0,
    avg_request_bytes=0.0,
    working_set_bytes=0,
    sequentiality=0.0,
    duration_ns=0,
    arrival_rate_per_s=0.0,
    interarrival_cv=0.0,
    mean_queue_depth=0.0,
    max_queue_depth=0,
)


def characterize(requests: Sequence[IORequest]) -> WorkloadCharacterization:
    """Compute the characterization of a request stream.

    The working set counts ``FOOTPRINT_PAGE_BYTES`` pages.  The queue-depth
    profile is *offered* load: each request is assumed outstanding for
    ``NOMINAL_SERVICE_NS`` after arrival, and depth is sampled at every
    arrival instant - a device-independent measure of how much concurrency
    the arrival process exposes to the scheduler.
    """
    if not requests:
        return _EMPTY

    ordered = sorted(requests, key=lambda io: io.arrival_ns)
    num = len(ordered)
    total_bytes = sum(io.size_bytes for io in ordered)
    reads = sum(1 for io in ordered if not io.is_write)

    pages = set()
    for io in ordered:
        pages.update(io.logical_pages(FOOTPRINT_PAGE_BYTES))

    sequential = sum(
        1
        for earlier, later in zip(ordered, ordered[1:])
        if later.offset_bytes == earlier.end_offset_bytes
    )

    first, last = ordered[0].arrival_ns, ordered[-1].arrival_ns
    duration = last - first
    gaps = [later.arrival_ns - earlier.arrival_ns for earlier, later in zip(ordered, ordered[1:])]
    if gaps:
        mean_gap = sum(gaps) / len(gaps)
        if mean_gap > 0:
            variance = sum((gap - mean_gap) ** 2 for gap in gaps) / len(gaps)
            gap_cv = math.sqrt(variance) / mean_gap
        else:
            gap_cv = 0.0
    else:
        gap_cv = 0.0

    # Offered queue depth: sweep arrivals against a min-heap of nominal
    # completion times; depth at each arrival includes the arriving request.
    outstanding: List[int] = []
    depth_sum = 0
    depth_max = 0
    for io in ordered:
        while outstanding and outstanding[0] <= io.arrival_ns:
            heapq.heappop(outstanding)
        heapq.heappush(outstanding, io.arrival_ns + NOMINAL_SERVICE_NS)
        depth = len(outstanding)
        depth_sum += depth
        depth_max = max(depth_max, depth)

    return WorkloadCharacterization(
        num_requests=num,
        total_bytes=total_bytes,
        read_fraction=reads / num,
        avg_request_bytes=total_bytes / num,
        working_set_bytes=len(pages) * FOOTPRINT_PAGE_BYTES,
        sequentiality=sequential / (num - 1) if num > 1 else 0.0,
        duration_ns=duration,
        arrival_rate_per_s=(num - 1) / duration * 1e9 if duration > 0 else 0.0,
        interarrival_cv=gap_cv,
        mean_queue_depth=depth_sum / num,
        max_queue_depth=depth_max,
    )
