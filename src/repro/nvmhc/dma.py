"""DMA engine / memory-request composition pipeline.

Memory request *composition* (paper Figure 3) covers parsing the tag,
building the page-sized memory request and initiating the host<->SSD data
movement over the PCIe fabric.  The NVMHC performs these steps one memory
request at a time, pipelined with the flash work that is already executing;
the order in which requests enter this pipeline is exactly what the
schedulers control (per-I/O order for VAS/PAS/FARO-only, per-chip order for
RIOS).

:class:`DmaEngine` models that pipeline as a single server with a fixed
per-request composition cost.  The default cost (500 ns per 2 KB page,
roughly 4 GB/s) represents a PCIe 3.0 x4 interface plus NVMHC processing,
fast relative to flash cell times but slow enough that *what* gets composed
first matters when hundreds of chips could be activated.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class DmaStats:
    """Throughput counters of the composition pipeline."""

    requests_composed: int = 0
    bytes_moved: int = 0
    busy_time_ns: int = 0


class DmaEngine:
    """Single-server composition/data-movement pipeline."""

    def __init__(self, per_request_ns: int = 500, per_byte_ns_x1000: int = 0) -> None:
        """``per_request_ns`` is the fixed cost per memory request.

        ``per_byte_ns_x1000`` optionally adds a size-proportional term in
        units of nanoseconds per 1000 bytes, for experiments that want the
        host link bandwidth to be the limiter.
        """
        if per_request_ns < 0 or per_byte_ns_x1000 < 0:
            raise ValueError("composition costs must be non-negative")
        self.per_request_ns = per_request_ns
        self.per_byte_ns_x1000 = per_byte_ns_x1000
        self.busy_until_ns = 0
        self.stats = DmaStats()

    def composition_cost_ns(self, size_bytes: int) -> int:
        """Time to compose one memory request of ``size_bytes``."""
        return self.per_request_ns + (size_bytes * self.per_byte_ns_x1000) // 1000

    def is_busy(self, now_ns: int) -> bool:
        """True while a composition is still in flight."""
        return now_ns < self.busy_until_ns

    def begin(self, now_ns: int, size_bytes: int) -> int:
        """Start composing one memory request; returns its completion time."""
        if self.is_busy(now_ns):
            raise RuntimeError("DMA engine is already composing a request")
        cost = self.composition_cost_ns(size_bytes)
        self.busy_until_ns = now_ns + cost
        self.stats.requests_composed += 1
        self.stats.bytes_moved += size_bytes
        self.stats.busy_time_ns += cost
        return self.busy_until_ns
