"""Metrics collector wired into the simulator.

The collector receives raw events from the simulator (I/O completions,
transaction executions, queue stalls) and turns them - together with the
final chip/channel statistics - into a :class:`~repro.metrics.report.SimulationResult`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.flash.channel import Channel
from repro.flash.chip import FlashChip
from repro.flash.transaction import FlashTransaction
from repro.metrics.attribution import AttributionTracker
from repro.metrics.breakdown import ExecutionBreakdown
from repro.metrics.latency import LatencyStats, WindowedTailTracker
from repro.metrics.parallelism import FLPBreakdown
from repro.metrics.utilization import IdlenessReport, UtilizationReport
from repro.workloads.request import IORequest


@dataclass
class TimeSeriesPoint:
    """Latency of one completed I/O, in completion order (Figure 12)."""

    io_id: int
    arrival_ns: int
    completion_ns: int
    latency_ns: int


class MetricsCollector:
    """Accumulates raw measurements during one simulation run.

    Every completion is kept: the report's latency percentiles and the
    per-I/O time series (Figures 10 and 12) are computed over the whole run.
    """

    def __init__(self) -> None:
        self.flp = FLPBreakdown()
        self.tail = WindowedTailTracker()
        # Per-(tenant, phase) slices for scenario-stamped requests; untagged
        # requests cost a single attribute test on the completion path and
        # never touch it.
        self.attribution = AttributionTracker()
        self.latency = LatencyStats()
        # Completion history as one append-only list of plain tuples: a
        # single append per completion on the hot path, materialised into
        # TimeSeriesPoint objects only when the final report is assembled
        # (see :attr:`time_series`).
        self._ts: List[tuple] = []
        self.total_bytes = 0
        self.completed_ios = 0
        self.memory_requests_served = 0
        self.gc_transactions = 0
        self.gc_time_ns = 0
        self.first_arrival_ns: Optional[int] = None
        self.last_completion_ns: int = 0
        self.queue_stall_time_ns = 0
        self.stalled_requests = 0

    # ------------------------------------------------------------------
    # Event hooks
    # ------------------------------------------------------------------
    def on_io_arrival(self, io: IORequest) -> None:
        """Record a host request arrival (establishes the observation window)."""
        if self.first_arrival_ns is None or io.arrival_ns < self.first_arrival_ns:
            self.first_arrival_ns = io.arrival_ns

    def on_io_complete(self, io: IORequest, now_ns: int) -> None:
        """Record a fully-served host request."""
        arrival = io.arrival_ns
        latency = now_ns - arrival
        self.latency.add(latency)
        self.tail.add(now_ns, latency)
        self._ts.append((io.io_id, arrival, now_ns, latency))
        self.total_bytes += io.size_bytes
        self.completed_ios += 1
        tenant = io.tenant
        if tenant is not None:
            self.attribution.record(
                tenant, io.phase_index, io.is_write, io.size_bytes, now_ns, latency
            )
        self.last_completion_ns = max(self.last_completion_ns, now_ns)

    def on_transaction_complete(self, transaction: FlashTransaction) -> None:
        """Record an executed flash transaction."""
        if transaction.is_gc:
            self.gc_transactions += 1
            self.gc_time_ns += transaction.cell_time_ns
            return
        self.flp.record(transaction.parallelism, transaction.num_requests)
        self.memory_requests_served += transaction.num_requests

    def on_queue_stall(self, wait_ns: int) -> None:
        """Record host-side backlog waiting caused by a full device queue."""
        if wait_ns > 0:
            self.queue_stall_time_ns += wait_ns
            self.stalled_requests += 1

    # ------------------------------------------------------------------
    # Finalisation
    # ------------------------------------------------------------------
    @property
    def time_series(self) -> List[TimeSeriesPoint]:
        """Latency of each completed I/O, in completion order (Figure 12)."""
        return [
            TimeSeriesPoint(
                io_id=io_id,
                arrival_ns=arrival_ns,
                completion_ns=completion_ns,
                latency_ns=latency_ns,
            )
            for io_id, arrival_ns, completion_ns, latency_ns in self._ts
        ]

    @property
    def makespan_ns(self) -> int:
        """Observation window: first arrival to last completion."""
        if self.first_arrival_ns is None:
            return 0
        return max(0, self.last_completion_ns - self.first_arrival_ns)

    def utilization_report(self, chips: Dict[tuple, FlashChip]) -> UtilizationReport:
        """Per-chip utilisation over the makespan."""
        report = UtilizationReport()
        makespan = self.makespan_ns
        for chip_key, chip in chips.items():
            report.add(chip_key, chip.utilization(makespan))
        return report

    def idleness_report(self, chips: Dict[tuple, FlashChip]) -> IdlenessReport:
        """Inter-chip and intra-chip idleness over the makespan."""
        utilization = self.utilization_report(chips)
        # Never-busy chips report the -1.0 sentinel, which the averaging in
        # from_measurements excludes; busy chips contribute their genuine
        # idleness, including an exact 0.0 for fully covered dies.
        intra_values = [chip.intra_chip_idleness() for chip in chips.values()]
        return IdlenessReport.from_measurements(utilization, intra_values)

    def execution_breakdown(
        self, chips: Dict[tuple, FlashChip], channels: Dict[int, Channel]
    ) -> ExecutionBreakdown:
        """Aggregate execution-time breakdown over all chips."""
        makespan = self.makespan_ns
        breakdown = ExecutionBreakdown(total_chip_time_ns=makespan * max(1, len(chips)))
        for chip in chips.values():
            breakdown.bus_operation_ns += chip.stats.bus_time_ns
            breakdown.bus_contention_ns += chip.stats.bus_wait_ns
            breakdown.memory_operation_ns += chip.stats.cell_time_ns
        return breakdown
