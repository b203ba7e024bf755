"""Fleet-level result merging and exact reconciliation.

A :class:`FleetResult` folds per-node :class:`~repro.array.host.ArrayResult`
objects into cluster aggregates the same way the array layer folds device
results - both are :class:`~repro.array.host.PooledResult`s: throughput
figures add (nodes run concurrently and independently), latency
percentiles pool the union sample population, and attribution pools
exactly.  :func:`reconcile_fleet` asserts that chain from the fleet down to
every device, which is what makes per-tenant SLO verdicts at fleet scale
trustworthy rather than approximate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.array.host import ArrayResult, PooledResult
from repro.fleet.admission import AdmissionStats
from repro.fleet.background import BackgroundStats
from repro.fleet.placement import PlacementPlan
from repro.fleet.spec import FleetSpec
from repro.metrics.attribution import (
    AttributionReport,
    pool_attribution,
    reconcile_attribution,
)
from repro.metrics.latency import LatencyStats, merge_latency_stats
from repro.obs.report import SLOCheck, slo_verdicts


@dataclass
class FleetResult(PooledResult):
    """Merged outcome of one fleet run across every node."""

    name: str
    placement: str
    node_names: Tuple[str, ...]
    node_results: Tuple[ArrayResult, ...]
    plan: PlacementPlan
    latency: LatencyStats = field(default_factory=LatencyStats)
    #: Per-tenant/per-phase attribution pooled across the whole fleet.
    attribution: Optional[AttributionReport] = None
    admission: Tuple[AdmissionStats, ...] = ()
    background: Tuple[BackgroundStats, ...] = ()
    #: Per-tenant SLO verdicts (policy override else fleet default; ``bg:``
    #: maintenance slices are never checked).
    slo_checks: Tuple[SLOCheck, ...] = ()

    part_kind = "node"

    @property
    def parts(self) -> Tuple[ArrayResult, ...]:
        """The per-node array results."""
        return self.node_results

    # ------------------------------------------------------------------
    # SLO accounting
    # ------------------------------------------------------------------
    @property
    def slo_violations_total(self) -> int:
        """Failed SLO checks across every tenant."""
        return sum(1 for check in self.slo_checks if not check.ok)

    # ------------------------------------------------------------------
    # Admission / background roll-ups
    # ------------------------------------------------------------------
    @property
    def rejected_ios(self) -> int:
        """Host requests dropped by admission control."""
        return sum(stats.rejected for stats in self.admission)

    @property
    def throttled_ios(self) -> int:
        """Host requests delayed by rate pacing."""
        return sum(stats.throttled for stats in self.admission)

    @property
    def background_ios(self) -> int:
        """Background requests injected across the fleet."""
        return sum(stats.requests for stats in self.background)

    # ------------------------------------------------------------------
    # Presentation
    # ------------------------------------------------------------------
    def summary_row(self) -> Dict[str, object]:
        """One row of the fleet-comparison tables."""
        return {
            "fleet": self.name,
            "placement": self.placement,
            "nodes": len(self.node_results),
            "bandwidth_mb_s": round(self.bandwidth_kb_s / 1024.0, 1),
            "iops": round(self.iops, 1),
            "p99_latency_us": round(self.latency.percentile_ns(0.99) / 1_000.0, 1),
            "slo_violations": self.slo_violations_total,
            "byte_imbalance": round(self.byte_imbalance(), 3),
            "iops_imbalance": round(self.iops_imbalance(), 3),
            "throttled": self.throttled_ios,
            "rejected": self.rejected_ios,
            "bg_ios": self.background_ios,
        }

    def node_rows(self) -> List[Dict[str, object]]:
        """Per-node rows (the array summary prefixed with the node name)."""
        return [
            {"node": name, **result.summary_row()}
            for name, result in zip(self.node_names, self.node_results)
        ]


def merge_node_results(
    spec: FleetSpec,
    plan: PlacementPlan,
    node_results: Sequence[ArrayResult],
    admission: Sequence[AdmissionStats] = (),
    background: Sequence[BackgroundStats] = (),
) -> FleetResult:
    """Fold per-node :class:`ArrayResult`s into one :class:`FleetResult`.

    Attribution pools exactly across nodes; SLO checks are evaluated on the
    merged per-tenant latency populations (:func:`~repro.obs.report.
    slo_verdicts`, which skips ``bg:`` maintenance slices).
    """
    fleet = FleetResult(
        name=spec.name,
        placement=spec.placement,
        node_names=spec.node_names(),
        node_results=tuple(node_results),
        plan=plan,
        latency=merge_latency_stats([result.latency for result in node_results]),
        attribution=pool_attribution(node_results),
        admission=tuple(admission),
        background=tuple(background),
    )
    fleet.slo_checks = tuple(slo_verdicts(fleet, spec.default_slo))
    return fleet


def reconcile_fleet(fleet: FleetResult) -> List[str]:
    """Check the fleet's attribution chain end to end; empty = exact.

    One :func:`~repro.metrics.attribution.reconcile_attribution` call walks
    fleet -> nodes -> devices: at every level the slices reconcile with the
    aggregate, and every merged slice equals the sum of its parts' slices.
    """
    return reconcile_attribution(fleet)
