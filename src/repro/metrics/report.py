"""Simulation result container and table formatting.

:class:`SimulationResult` is what one call to
:meth:`repro.sim.ssd.SSDSimulator.run` returns: a frozen snapshot of every
metric the paper's evaluation reports, with convenience properties named
after the figures they feed.

The result (including every nested metrics dataclass) is plain picklable
data with value-equality semantics: the execution engine ships it across
process boundaries and stores it in the on-disk result cache, and tests
compare serial vs parallel runs byte-for-byte via ``pickle.dumps``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.ftl.garbage_collector import GCStats
from repro.ftl.wear_leveling import WearStats
from repro.lifetime.accounting import LifetimeAccounting
from repro.metrics.attribution import AttributionReport
from repro.metrics.breakdown import ExecutionBreakdown
from repro.metrics.collector import TimeSeriesPoint
from repro.obs.health import HealthSample
from repro.metrics.latency import (
    LatencyStats,
    TailWindow,
    bandwidth_kb_per_sec,
    iops,
)
from repro.metrics.parallelism import FLPBreakdown
from repro.metrics.utilization import IdlenessReport, UtilizationReport


@dataclass
class SimulationResult:
    """All measurements from one simulation run."""

    scheduler: str
    workload: str
    num_ios: int
    completed_ios: int
    total_bytes: int
    makespan_ns: int
    latency: LatencyStats
    utilization: UtilizationReport
    idleness: IdlenessReport
    flp: FLPBreakdown
    breakdown: ExecutionBreakdown
    queue_stall_time_ns: int
    memory_requests_composed: int
    memory_requests_served: int
    transactions: int
    gc_transactions: int
    gc_time_ns: int
    time_series: List[TimeSeriesPoint] = field(default_factory=list)
    extra: Dict[str, float] = field(default_factory=dict)
    #: Garbage collection activity of the measured run (invocations, blocks
    #: erased, pages migrated, orphans) - preconditioning work excluded.
    gc_stats: Optional[GCStats] = None
    #: End-of-run erase-count distribution across the device's blocks.
    wear: Optional[WearStats] = None
    #: Host vs flash writes, write amplification and precondition bookkeeping.
    lifetime: Optional[LifetimeAccounting] = None
    # -- Observability fields (PR 8). All carry ``fingerprint: False`` so
    # adding them (and any future telemetry) leaves every pre-existing
    # result digest - the perf digest goldens - untouched.
    #: Events popped from the event queue over the measured run.
    events_processed: int = field(default=0, metadata={"fingerprint": False})
    #: Number of same-timestamp event batches the run was processed in.
    event_batches: int = field(default=0, metadata={"fingerprint": False})
    #: Largest same-timestamp event batch observed.
    largest_event_batch: int = field(default=0, metadata={"fingerprint": False})
    #: Counter-registry snapshot (``{dotted.name: count}``, sorted keys).
    counters: Dict[str, int] = field(
        default_factory=dict, metadata={"fingerprint": False}
    )
    #: Windowed tail-latency series (exact p50/p99/p999 per time window).
    latency_windows: Tuple[TailWindow, ...] = field(
        default=(), metadata={"fingerprint": False}
    )
    # -- Attributed telemetry (PR 9): same fingerprint-exclusion contract.
    #: Per-(tenant, phase) latency/throughput slices for scenario-stamped
    #: workloads; ``None`` when no completion carried a provenance tag.
    attribution: Optional[AttributionReport] = field(
        default=None, metadata={"fingerprint": False}
    )
    #: Periodic health samples (event backlog, queue depths, GC pressure,
    #: chip busyness); empty unless the run enabled the health sampler.
    health: Tuple[HealthSample, ...] = field(
        default=(), metadata={"fingerprint": False}
    )

    # ------------------------------------------------------------------
    # Figure 10 metrics
    # ------------------------------------------------------------------
    @property
    def bandwidth_kb_s(self) -> float:
        """I/O bandwidth in KB/s (Figure 10a)."""
        return bandwidth_kb_per_sec(self.total_bytes, self.makespan_ns)

    @property
    def iops(self) -> float:
        """I/O operations per second (Figure 10b)."""
        return iops(self.completed_ios, self.makespan_ns)

    @property
    def avg_latency_ns(self) -> float:
        """Average device-level latency (Figure 10c)."""
        return self.latency.mean_ns

    @property
    def mean_backlog_requests(self) -> float:
        """Mean number of host requests waiting for a queue tag.

        ``queue_stall_time_ns`` sums every request's wait in the host-side
        backlog, so over the makespan it is the time-averaged backlog length
        (Little's law), not a fraction: it exceeds 1 whenever more than one
        request waits on average.  Figure 10d plots the stall time itself.
        """
        if self.makespan_ns <= 0:
            return 0.0
        return self.queue_stall_time_ns / self.makespan_ns

    # ------------------------------------------------------------------
    # Figure 11 metrics
    # ------------------------------------------------------------------
    @property
    def inter_chip_idleness(self) -> float:
        """Fraction of chip-time where whole chips sat idle."""
        return self.idleness.inter_chip

    @property
    def intra_chip_idleness(self) -> float:
        """Unused die-time fraction while chips were busy."""
        return self.idleness.intra_chip

    # ------------------------------------------------------------------
    # Figure 13 / 14 / 15 / 16 metrics
    # ------------------------------------------------------------------
    @property
    def chip_utilization(self) -> float:
        """Mean chip utilisation (Figures 1b, 6, 15)."""
        return self.utilization.mean

    def flp_fractions(self) -> Dict[str, float]:
        """NON-PAL/PAL1/PAL2/PAL3 transaction shares (Figure 14)."""
        return self.flp.transaction_fractions()

    def breakdown_fractions(self) -> Dict[str, float]:
        """Execution-time breakdown shares (Figure 13)."""
        return self.breakdown.fractions()

    @property
    def transaction_reduction(self) -> float:
        """Fraction of transactions saved relative to one-per-request."""
        if self.memory_requests_served <= 0:
            return 0.0
        return 1.0 - self.transactions / self.memory_requests_served

    @property
    def coalescing_degree(self) -> float:
        """Average memory requests per flash transaction."""
        return self.flp.average_requests_per_transaction

    # ------------------------------------------------------------------
    # Lifetime / steady-state metrics
    # ------------------------------------------------------------------
    @property
    def write_amplification(self) -> float:
        """Flash writes per host write during the run (1.0 when unknown)."""
        if self.lifetime is None:
            return 1.0
        return self.lifetime.write_amplification

    @property
    def wear_spread(self) -> int:
        """Erase-count gap between the most and least worn blocks."""
        if self.wear is None:
            return 0
        return self.wear.spread

    # ------------------------------------------------------------------
    # Presentation helpers
    # ------------------------------------------------------------------
    def summary_row(self) -> Dict[str, object]:
        """One row of the scheduler-comparison tables used by the harness."""
        return {
            "scheduler": self.scheduler,
            "workload": self.workload,
            "bandwidth_kb_s": round(self.bandwidth_kb_s, 1),
            "iops": round(self.iops, 1),
            "avg_latency_us": round(self.avg_latency_ns / 1_000.0, 1),
            "mean_backlog": round(self.mean_backlog_requests, 4),
            "chip_utilization": round(self.chip_utilization, 4),
            "inter_chip_idleness": round(self.inter_chip_idleness, 4),
            "intra_chip_idleness": round(self.intra_chip_idleness, 4),
            "transactions": self.transactions,
            "requests_served": self.memory_requests_served,
            "coalescing": round(self.coalescing_degree, 2),
        }


def format_table(rows: Sequence[Dict[str, object]], *, title: Optional[str] = None) -> str:
    """Render a list of dict rows as an aligned plain-text table."""
    if not rows:
        return title or ""
    columns = list(rows[0].keys())
    widths = {col: len(str(col)) for col in columns}
    for row in rows:
        for col in columns:
            widths[col] = max(widths[col], len(str(row.get(col, ""))))
    lines: List[str] = []
    if title:
        lines.append(title)
    header = "  ".join(str(col).ljust(widths[col]) for col in columns)
    lines.append(header)
    lines.append("  ".join("-" * widths[col] for col in columns))
    for row in rows:
        lines.append("  ".join(str(row.get(col, "")).ljust(widths[col]) for col in columns))
    return "\n".join(lines)
