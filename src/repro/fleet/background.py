"""Deferrable background work scheduled into load valleys.

Real fleets run scrubs and GC-debt repayment *around* tenant
traffic.  This module does the same, deterministically: the node's
foreground arrival series is histogrammed into equal time windows, windows
are ranked emptiest-first, and each background job's requests are spread
uniformly across the emptiest window no earlier job claimed (jobs in
declaration order, one window per job so the placement is easy to reason
about and test).  Best effort, not admission control: when every window is
claimed, a job shares the emptiest one.

Background requests are ordinary :class:`~repro.workloads.request.
IORequest` objects tagged ``bg:<kind>``, so they flow through placement,
simulation and attribution like a tenant - but fleet SLO accounting skips
``bg:``-prefixed slices by construction.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.fleet.spec import BACKGROUND_REQUEST_BYTES, BACKGROUND_SPAN_BYTES, BackgroundJob
from repro.workloads.request import IOKind, IORequest

#: Slots of the foreground load histogram the background scheduler ranks
#: valleys in.
VALLEY_WINDOWS = 32


@dataclass(frozen=True)
class LoadWindow:
    """One slot of the foreground load histogram."""

    start_ns: int
    end_ns: int
    #: Foreground arrivals inside ``[start_ns, end_ns)``.
    arrivals: int


@dataclass(frozen=True)
class BackgroundStats:
    """Scheduling outcome of one background job."""

    kind: str
    node: str
    requests: int
    bytes: int
    #: Arrival window the job was scheduled into.
    start_ns: int
    end_ns: int

    def rows(self) -> Dict[str, object]:
        """One printable row of the background table."""
        return {
            "job": self.kind,
            "node": self.node,
            "requests": self.requests,
            "mb": round(self.bytes / (1024.0 * 1024.0), 2),
            "window_ms": f"{self.start_ns / 1e6:.2f}-{self.end_ns / 1e6:.2f}",
        }


def find_load_valleys(
    arrival_times: Sequence[int], num_windows: int
) -> List[LoadWindow]:
    """Histogram foreground arrivals into equal windows, emptiest first.

    Windows tile ``[first arrival, last arrival]``; ties rank earlier
    windows first, so the result is fully deterministic.  An empty
    foreground yields one unbounded zero-load window starting at 0.
    """
    if not arrival_times:
        return [LoadWindow(start_ns=0, end_ns=num_windows * 1_000_000, arrivals=0)]
    first = min(arrival_times)
    last = max(arrival_times)
    width = max((last - first + num_windows) // num_windows, 1)
    counts = [0] * num_windows
    for t in arrival_times:
        counts[min((t - first) // width, num_windows - 1)] += 1
    windows = [
        LoadWindow(
            start_ns=first + index * width,
            end_ns=first + (index + 1) * width,
            arrivals=count,
        )
        for index, count in enumerate(counts)
    ]
    return sorted(windows, key=lambda w: (w.arrivals, w.start_ns))


def _job_requests(job: BackgroundJob, window: LoadWindow) -> List[IORequest]:
    """Materialise one job's requests, spread uniformly over its window."""
    span_ns = max(window.end_ns - window.start_ns, 1)
    step_ns = max(span_ns // (job.num_requests + 1), 1)
    size = BACKGROUND_REQUEST_BYTES
    span_slots = BACKGROUND_SPAN_BYTES // size
    if job.kind == "gc-debt":
        rng = random.Random(len(job.node))
        offsets = [rng.randrange(span_slots) * size for _ in range(job.num_requests)]
        kind = IOKind.WRITE
    else:  # "scrub": strided reads sampling the whole span (media scan)
        stride = max(span_slots // job.num_requests, 1)
        offsets = [((i * stride) % span_slots) * size for i in range(job.num_requests)]
        kind = IOKind.READ
    return [
        IORequest(
            kind=kind,
            offset_bytes=offset,
            size_bytes=size,
            arrival_ns=window.start_ns + (i + 1) * step_ns,
            tenant=job.tag,
            phase_index=None,
        )
        for i, offset in enumerate(offsets)
    ]


def schedule_background(
    foreground: Sequence[IORequest],
    jobs: Sequence[BackgroundJob],
    *,
    num_windows: int,
) -> Tuple[List[List[IORequest]], List[BackgroundStats]]:
    """Slot each job's requests into a load valley of one node's traffic.

    Jobs are processed in declaration order; each takes the emptiest
    unclaimed window, falling back to the emptiest window when every one is
    claimed.  Returns one request stream per job plus the matching stats.
    """
    valleys = find_load_valleys([io.arrival_ns for io in foreground], num_windows)
    claimed: set = set()
    streams: List[List[IORequest]] = []
    stats: List[BackgroundStats] = []
    for job in jobs:
        window = next((w for w in valleys if w.start_ns not in claimed), valleys[0])
        claimed.add(window.start_ns)
        requests = _job_requests(job, window)
        streams.append(requests)
        stats.append(
            BackgroundStats(
                kind=job.kind,
                node=job.node,
                requests=len(requests),
                bytes=sum(io.size_bytes for io in requests),
                start_ns=window.start_ns,
                end_ns=window.end_ns,
            )
        )
    return streams, stats
