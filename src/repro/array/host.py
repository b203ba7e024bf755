"""Host-side array simulation: N independent SSDs behind one volume manager.

:class:`ArraySimulation` is the array analogue of
:class:`~repro.sim.ssd.SSDSimulator`: it takes a placement layout plus a
per-device ``(scheduler, config)`` setup, expands a workload into one
:class:`~repro.experiments.spec.SimJob` per device (via
:class:`~repro.experiments.spec.ArraySpec`) and runs those jobs through the
existing :class:`~repro.experiments.engine.ExecutionEngine`.  Because every
device is an ordinary cache-aware job, arrays parallelize over the process
backend and memoize per device for free.

Device results merge into an :class:`ArrayResult`.  Devices operate
concurrently and independently (their event clocks never interact), so the
array aggregate bandwidth/IOPS is *by definition* the sum of the per-device
figures, while latency percentiles and chip utilisation are computed over
the pooled array-wide populations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Sequence, Tuple

from repro.array.layout import ArrayLayout
from repro.metrics.attribution import AttributionReport, pool_attribution
from repro.metrics.latency import LatencyStats, merge_latency_stats
from repro.metrics.report import SimulationResult
from repro.metrics.utilization import UtilizationReport, merge_utilization_reports
from repro.obs.counters import merge_counter_snapshots


def _max_to_mean(values: Sequence[float]) -> float:
    """Max-to-mean imbalance ratio with the 0.0 empty/idle sentinel."""
    mean = sum(values) / len(values) if values else 0.0
    if mean <= 0.0:
        return 0.0
    return max(values) / mean


class PooledResult:
    """A result pooled over parts that ran concurrently and independently.

    An array pools its devices' :class:`SimulationResult`s and a fleet pools
    its nodes' :class:`ArrayResult`s.  Parts never share an event clock, so
    throughput figures add up, wall-clock is the slowest part's makespan,
    and attribution pools exactly
    (:func:`~repro.metrics.attribution.pool_attribution`);
    :func:`~repro.metrics.attribution.reconcile_attribution` walks the tree
    through :attr:`parts`.
    """

    #: What one part is called in reconciliation messages.
    part_kind = "part"

    @property
    def parts(self) -> Sequence:
        """The pooled results, one per part."""
        raise NotImplementedError

    @property
    def bandwidth_kb_s(self) -> float:
        """Pooled bandwidth: the sum of the parts' bandwidths."""
        return sum(part.bandwidth_kb_s for part in self.parts)

    @property
    def iops(self) -> float:
        """Pooled IOPS: the sum of the parts' IOPS."""
        return sum(part.iops for part in self.parts)

    @property
    def total_bytes(self) -> int:
        """Bytes served across every part (conserved by placement)."""
        return sum(part.total_bytes for part in self.parts)

    @property
    def completed_ios(self) -> int:
        """Device commands completed across every part (split fragments)."""
        return sum(part.completed_ios for part in self.parts)

    @property
    def makespan_ns(self) -> int:
        """Wall-clock of the pooled run: the slowest part's makespan."""
        return max((part.makespan_ns for part in self.parts), default=0)

    def byte_imbalance(self) -> float:
        """Max-to-mean ratio of bytes served per part; 1.0 is balanced.

        Returns the ``0.0`` sentinel when nothing was served (mirrors
        :meth:`UtilizationReport.imbalance`).
        """
        return _max_to_mean([part.total_bytes for part in self.parts])

    def iops_imbalance(self) -> float:
        """Max-to-mean ratio of per-part IOPS; 1.0 is balanced."""
        return _max_to_mean([part.iops for part in self.parts])


@dataclass
class ArrayResult(PooledResult):
    """Merged outcome of one workload run across every device of an array."""

    scheduler: str
    workload: str
    policy: str
    num_devices: int
    device_results: Tuple[SimulationResult, ...]
    latency: LatencyStats = field(default_factory=LatencyStats)
    utilization: UtilizationReport = field(default_factory=UtilizationReport)
    #: Per-device counter snapshots merged under device-namespaced keys
    #: (``dev3.gc.triggers``), mirroring how merge_utilization_reports
    #: namespaces chip keys - no cross-device aggregation surprises.
    counters: Dict[str, int] = field(default_factory=dict)
    #: Per-tenant/per-phase attribution pooled across devices (``None`` when
    #: no device recorded any tagged completion).
    attribution: Optional[AttributionReport] = None

    part_kind = "device"

    @property
    def parts(self) -> Tuple[SimulationResult, ...]:
        """The per-device results."""
        return self.device_results

    # ------------------------------------------------------------------
    # Cross-device balance
    # ------------------------------------------------------------------
    @property
    def device_utilization_spread(self) -> float:
        """Max minus min of the per-device mean chip utilisations."""
        means = [result.chip_utilization for result in self.device_results]
        if not means:
            return 0.0
        return max(means) - min(means)

    @property
    def chip_utilization(self) -> float:
        """Mean chip utilisation over every chip of every device."""
        return self.utilization.mean

    def aggregate_counters(self) -> Dict[str, int]:
        """Counters summed across devices (un-namespaced dotted names)."""
        return merge_counter_snapshots(
            [result.counters for result in self.device_results]
        )

    @property
    def avg_latency_ns(self) -> float:
        """Mean per-command latency over the pooled array population."""
        return self.latency.mean_ns

    # ------------------------------------------------------------------
    # Presentation
    # ------------------------------------------------------------------
    def summary_row(self) -> Dict[str, object]:
        """One row of the array-comparison tables."""
        return {
            "scheduler": self.scheduler,
            "workload": self.workload,
            "policy": self.policy,
            "devices": self.num_devices,
            "bandwidth_mb_s": round(self.bandwidth_kb_s / 1024.0, 1),
            "iops": round(self.iops, 1),
            "avg_latency_us": round(self.avg_latency_ns / 1_000.0, 1),
            "p99_latency_us": round(self.latency.percentile_ns(0.99) / 1_000.0, 1),
            "chip_utilization": round(self.chip_utilization, 4),
            "util_spread": round(self.device_utilization_spread, 4),
            "byte_imbalance": round(self.byte_imbalance(), 3),
        }


def merge_device_results(
    results: Sequence[SimulationResult],
    *,
    scheduler: str,
    workload: str,
    policy: str,
) -> ArrayResult:
    """Fold per-device :class:`SimulationResult`s into one :class:`ArrayResult`.

    Attribution pools exactly via
    :func:`~repro.metrics.attribution.pool_attribution`.
    """
    return ArrayResult(
        scheduler=scheduler,
        workload=workload,
        policy=policy,
        num_devices=len(results),
        device_results=tuple(results),
        latency=merge_latency_stats([result.latency for result in results]),
        utilization=merge_utilization_reports([result.utilization for result in results]),
        # Namespacing by device index before the merge keeps every device's
        # snapshot intact (merge_counter_snapshots would otherwise sum
        # same-named counters across devices and silently lose the split).
        counters=merge_counter_snapshots(
            [
                {
                    f"dev{index}.{name}": value
                    for name, value in result.counters.items()
                }
                for index, result in enumerate(results)
            ]
        ),
        attribution=pool_attribution(results),
    )


class ArraySimulation:
    """Runs one workload across a multi-SSD array through the engine."""

    def __init__(
        self,
        layout: ArrayLayout,
        config=None,
        scheduler: str = "SPK3",
        scheduler_options: Optional[Dict[str, Any]] = None,
        *,
        devices: Sequence[str] = (),
    ) -> None:
        """``config`` is the shared per-device configuration (homogeneous
        arrays); ``devices`` is one device-zoo id per slot (heterogeneous
        arrays).  Exactly one of the two must be given - the constraint is
        enforced by :class:`~repro.experiments.spec.ArraySpec` when the spec
        is built.
        """
        self.layout = layout
        self.config = config
        self.scheduler = scheduler
        self.scheduler_options = scheduler_options or {}
        self.devices = tuple(devices)

    def spec(self, workload, key: Tuple[Any, ...] = ()):
        """The :class:`~repro.experiments.spec.ArraySpec` for one workload."""
        # Imported lazily: repro.experiments imports this package back (the
        # array_scaling experiment), so the edge must not exist at load time.
        from repro.experiments.spec import ArraySpec

        return ArraySpec(
            workload=workload,
            num_devices=self.layout.num_devices,
            scheduler=self.scheduler,
            config=self.config,
            policy=self.layout.policy,
            chunk_bytes=self.layout.chunk_bytes,
            shard_bytes=self.layout.shard_bytes,
            scheduler_options=tuple(sorted(self.scheduler_options.items())),
            key=key,
            devices=self.devices,
        )

    def run(self, workload, engine=None) -> ArrayResult:
        """Simulate ``workload`` on every device and merge the results.

        ``workload`` is a :class:`~repro.experiments.spec.WorkloadSpec`;
        ``engine`` defaults to a serial :class:`ExecutionEngine`.  Device
        jobs go through ``engine.run_jobs``, so backend choice and result
        caching apply per device.
        """
        from repro.experiments.engine import ExecutionEngine

        spec = self.spec(workload)
        jobs = list(spec.device_jobs())
        results = (engine or ExecutionEngine()).run_jobs(jobs)
        return merge_device_results(
            results,
            scheduler=self.scheduler,
            workload=workload.name,
            # The bare policy name, matching run_array_specs, so rows from
            # either entry point group together; layout.describe() remains
            # the human-facing label.
            policy=self.layout.policy,
        )
