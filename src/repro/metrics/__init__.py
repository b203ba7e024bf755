"""Metrics: everything the paper's evaluation section measures.

* latency / bandwidth / IOPS / queue stall time (Figure 10),
* inter-chip and intra-chip idleness (Figure 11),
* execution time breakdown into bus activity, bus contention, cell activity
  and idleness (Figure 13),
* flash-level parallelism breakdown NON-PAL/PAL1/PAL2/PAL3 (Figure 14),
* chip utilisation (Figures 1, 6, 15),
* flash transaction counts / reduction rate (Figure 16).
"""

from repro.metrics.latency import (
    TAIL_WINDOW_NS,
    LatencyStats,
    TailWindow,
    WindowedTailTracker,
    bandwidth_kb_per_sec,
    iops,
    merge_latency_stats,
    percentile,
)
from repro.metrics.parallelism import FLPBreakdown
from repro.metrics.breakdown import ExecutionBreakdown
from repro.metrics.utilization import (
    IdlenessReport,
    UtilizationReport,
    merge_utilization_reports,
)
from repro.metrics.collector import MetricsCollector
from repro.metrics.report import SimulationResult, format_table

__all__ = [
    "TAIL_WINDOW_NS",
    "LatencyStats",
    "TailWindow",
    "WindowedTailTracker",
    "bandwidth_kb_per_sec",
    "iops",
    "merge_latency_stats",
    "percentile",
    "FLPBreakdown",
    "ExecutionBreakdown",
    "IdlenessReport",
    "UtilizationReport",
    "merge_utilization_reports",
    "MetricsCollector",
    "SimulationResult",
    "format_table",
]
