"""DMA engine / memory-request composition pipeline.

Memory request *composition* (paper Figure 3) covers parsing the tag,
building the page-sized memory request and initiating the host<->SSD data
movement over the PCIe fabric.  The NVMHC performs these steps one memory
request at a time, pipelined with the flash work that is already executing;
the order in which requests enter this pipeline is exactly what the
schedulers control (per-I/O order for VAS/PAS/FARO-only, per-chip order for
RIOS).

:class:`DmaEngine` models that pipeline as a single server with a fixed
per-request composition cost, :data:`COMPOSE_NS`.  The 500 ns per 2 KB page
(roughly 4 GB/s) represents a PCIe 3.0 x4 interface plus NVMHC processing,
fast relative to flash cell times but slow enough that *what* gets composed
first matters when hundreds of chips could be activated.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Fixed cost of composing one memory request (tag parse + DMA initiation).
COMPOSE_NS = 500


@dataclass
class DmaStats:
    """Throughput counters of the composition pipeline."""

    requests_composed: int = 0
    bytes_moved: int = 0
    busy_time_ns: int = 0


class DmaEngine:
    """Single-server composition/data-movement pipeline."""

    def __init__(self) -> None:
        self.busy_until_ns = 0
        self.stats = DmaStats()

    def begin(self, now_ns: int, size_bytes: int) -> int:
        """Start composing one memory request; returns its completion time."""
        if now_ns < self.busy_until_ns:
            raise RuntimeError("DMA engine is already composing a request")
        self.busy_until_ns = now_ns + COMPOSE_NS
        self.stats.requests_composed += 1
        self.stats.bytes_moved += size_bytes
        self.stats.busy_time_ns += COMPOSE_NS
        return self.busy_until_ns
