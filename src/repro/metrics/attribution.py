"""Per-tenant / per-phase telemetry attribution.

The scenario engine stamps every built request with a provenance tag
(``IORequest.tenant`` / ``IORequest.phase_index``); the
:class:`AttributionTracker` inside the :class:`~repro.metrics.collector.
MetricsCollector` slices completions by that tag, so a multi-tenant run
reports *who waited* instead of one blended distribution.

The contract is exact reconciliation, not sampling: per-slice counts, byte
totals and the pooled percentile sample populations sum to the aggregate
figures precisely - :func:`reconcile_attribution` checks that invariant and
the test suite enforces it on every tiny-suite scenario case.  Everything
here is observational: the report rides on
:class:`~repro.metrics.report.SimulationResult` as a fingerprint-excluded
field, so a tagged run stays digest-identical to an untagged one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.metrics.latency import (
    LatencyStats,
    TailWindow,
    WindowedTailTracker,
    merge_latency_stats,
)


@dataclass(frozen=True)
class TenantPhaseStats:
    """Latency/throughput accounting for one ``(tenant, phase)`` slice."""

    tenant: str
    phase_index: int
    completed_ios: int
    reads: int
    writes: int
    read_bytes: int
    write_bytes: int
    #: The slice's own latency distribution.
    latency: LatencyStats
    #: Exact windowed p50/p99/p999 series of this slice alone.
    latency_windows: Tuple[TailWindow, ...]

    @property
    def total_bytes(self) -> int:
        """Bytes served for this slice."""
        return self.read_bytes + self.write_bytes

    def summary_row(self) -> Dict[str, object]:
        """One row of the tenant tables (reports, CLI)."""
        return {
            "phase": self.phase_index,
            "tenant": self.tenant,
            "ios": self.completed_ios,
            "reads": self.reads,
            "writes": self.writes,
            "mb": round(self.total_bytes / (1024.0 * 1024.0), 2),
            "mean_us": round(self.latency.mean_ns / 1_000.0, 1),
            "p99_us": round(self.latency.percentile_ns(0.99) / 1_000.0, 1),
            "p999_us": round(self.latency.percentile_ns(0.999) / 1_000.0, 1),
            "max_us": round(self.latency.max_ns / 1_000.0, 1),
        }


@dataclass(frozen=True)
class AttributionReport:
    """All ``(tenant, phase)`` slices of one run, plus the untagged remainder.

    ``entries`` is sorted by ``(phase_index, tenant)``.  ``untagged_ios`` /
    ``untagged_bytes`` are the completions that carried no provenance tag
    (mixed workloads may tag only part of the trace); tagged slices plus the
    untagged remainder always sum to the aggregate result.
    """

    entries: Tuple[TenantPhaseStats, ...]
    untagged_ios: int = 0
    untagged_bytes: int = 0

    def tenants(self) -> Tuple[str, ...]:
        """Distinct tenant names, sorted."""
        return tuple(sorted({entry.tenant for entry in self.entries}))

    def by_tenant(self, tenant: str) -> TenantPhaseStats:
        """One tenant's slices pooled across phases (phase_index -1)."""
        slices = [entry for entry in self.entries if entry.tenant == tenant]
        if not slices:
            raise KeyError(f"no attribution entries for tenant {tenant!r}")
        return TenantPhaseStats(
            tenant=tenant,
            phase_index=-1,
            completed_ios=sum(entry.completed_ios for entry in slices),
            reads=sum(entry.reads for entry in slices),
            writes=sum(entry.writes for entry in slices),
            read_bytes=sum(entry.read_bytes for entry in slices),
            write_bytes=sum(entry.write_bytes for entry in slices),
            latency=merge_latency_stats([entry.latency for entry in slices]),
            latency_windows=(),
        )

    def tenant_totals(self) -> Tuple[TenantPhaseStats, ...]:
        """Per-tenant roll-ups (each pooled across phases)."""
        return tuple(self.by_tenant(tenant) for tenant in self.tenants())

    def pooled_samples(self) -> List[int]:
        """Every slice's latency samples concatenated (reconciliation input)."""
        samples: List[int] = []
        for entry in self.entries:
            samples.extend(entry.latency.samples_ns)
        return samples

    def counter_slices(self) -> Dict[str, int]:
        """Per-tenant counters merged into the run's counter snapshot."""
        counters: Dict[str, int] = {}
        for entry in self.tenant_totals():
            prefix = f"tenant.{entry.tenant}"
            counters[f"{prefix}.io.completed"] = entry.completed_ios
            counters[f"{prefix}.bytes.read"] = entry.read_bytes
            counters[f"{prefix}.bytes.written"] = entry.write_bytes
        return counters

    def rows(self) -> List[Dict[str, object]]:
        """Printable rows: one per (phase, tenant) slice."""
        return [entry.summary_row() for entry in self.entries]


class AttributionTracker:
    """Streams tagged completions into per-``(tenant, phase)`` accumulators.

    Each slice keeps every latency sample and its own tail-window series.
    The hot path is one dict probe plus the same accumulator work the
    aggregate stats already do - and the collector only calls :meth:`record`
    for requests that carry a tag, so untagged runs never enter this class
    at all.
    """

    def __init__(self) -> None:
        # key -> [ios, reads, writes, read_bytes, write_bytes, latency, tail]
        self._slices: Dict[Tuple[str, int], list] = {}

    def record(
        self,
        tenant: str,
        phase_index: Optional[int],
        is_write: bool,
        size_bytes: int,
        now_ns: int,
        latency_ns: int,
    ) -> None:
        """Account one tagged completion."""
        key = (tenant, phase_index if phase_index is not None else -1)
        cell = self._slices.get(key)
        if cell is None:
            cell = self._slices[key] = [0, 0, 0, 0, 0, LatencyStats(), WindowedTailTracker()]
        cell[0] += 1
        if is_write:
            cell[2] += 1
            cell[4] += size_bytes
        else:
            cell[1] += 1
            cell[3] += size_bytes
        cell[5].add(latency_ns)
        cell[6].add(now_ns, latency_ns)

    @property
    def tagged_ios(self) -> int:
        """Completions recorded with a provenance tag."""
        return sum(cell[0] for cell in self._slices.values())

    @property
    def tagged_bytes(self) -> int:
        """Bytes recorded with a provenance tag."""
        return sum(cell[3] + cell[4] for cell in self._slices.values())

    def finish(self, total_ios: int = 0, total_bytes: int = 0) -> Optional[AttributionReport]:
        """Assemble the report; ``None`` when nothing was tagged.

        ``total_ios``/``total_bytes`` are the run's aggregate figures; the
        untagged remainder is derived rather than counted, which keeps the
        untagged hot path to a single attribute test.
        """
        if not self._slices:
            return None
        entries = tuple(
            TenantPhaseStats(
                tenant=tenant,
                phase_index=phase_index,
                completed_ios=cell[0],
                reads=cell[1],
                writes=cell[2],
                read_bytes=cell[3],
                write_bytes=cell[4],
                latency=cell[5],
                latency_windows=cell[6].finish(),
            )
            for (tenant, phase_index), cell in sorted(
                self._slices.items(), key=lambda item: (item[0][1], item[0][0])
            )
        )
        return AttributionReport(
            entries=entries,
            untagged_ios=total_ios - self.tagged_ios,
            untagged_bytes=total_bytes - self.tagged_bytes,
        )


def merge_attribution_reports(
    reports: Sequence["AttributionReport"],
) -> Optional[AttributionReport]:
    """Merge per-device (or per-array) attribution reports into one.

    Slices with the same ``(tenant, phase_index)`` key are summed exactly:
    counts and byte totals add, latency distributions pool via
    :func:`merge_latency_stats` (full histories concatenate sample-for-
    sample, so fleet-level percentiles are computed over the union
    population).  Per-slice windowed tail series are dropped (``()``) -
    windows from different devices overlap in time and cannot be merged
    exactly, and the contract of this module is exactness or nothing.

    ``untagged_ios``/``untagged_bytes`` add across inputs, preserving the
    invariant that tagged slices plus the untagged remainder equal the
    merged aggregate.  Returns ``None`` for an empty input sequence.
    """
    if not reports:
        return None
    merged: Dict[Tuple[str, int], List[TenantPhaseStats]] = {}
    for report in reports:
        for entry in report.entries:
            merged.setdefault((entry.tenant, entry.phase_index), []).append(entry)
    entries = tuple(
        TenantPhaseStats(
            tenant=tenant,
            phase_index=phase_index,
            completed_ios=sum(entry.completed_ios for entry in slices),
            reads=sum(entry.reads for entry in slices),
            writes=sum(entry.writes for entry in slices),
            read_bytes=sum(entry.read_bytes for entry in slices),
            write_bytes=sum(entry.write_bytes for entry in slices),
            latency=merge_latency_stats([entry.latency for entry in slices]),
            latency_windows=(),
        )
        for (tenant, phase_index), slices in sorted(
            merged.items(), key=lambda item: (item[0][1], item[0][0])
        )
    )
    return AttributionReport(
        entries=entries,
        untagged_ios=sum(report.untagged_ios for report in reports),
        untagged_bytes=sum(report.untagged_bytes for report in reports),
    )


def pool_attribution(parts) -> Optional[AttributionReport]:
    """Pool the attribution of concurrently run parts into one report.

    ``parts`` are the devices of an array or the nodes of a fleet (anything
    with ``attribution``, ``completed_ios`` and ``total_bytes``).  Parts
    that saw no tagged traffic count toward the untagged remainder, so the
    tagged + untagged == aggregate invariant stays exact across the merge.
    Returns ``None`` when no part carries attribution.
    """
    if all(part.attribution is None for part in parts):
        return None
    return merge_attribution_reports(
        [
            part.attribution
            if part.attribution is not None
            else AttributionReport(
                entries=(),
                untagged_ios=part.completed_ios,
                untagged_bytes=part.total_bytes,
            )
            for part in parts
        ]
    )


#: Slice fields that must add up exactly across a merge.
_ADDITIVE_FIELDS = ("completed_ios", "reads", "writes", "read_bytes", "write_bytes")


def _merge_problems(result) -> List[str]:
    """Every merged ``(tenant, phase)`` slice must be the sum of its parts'."""
    by_key: Dict[Tuple[str, int], List[TenantPhaseStats]] = {}
    for part in result.parts:
        if part.attribution is not None:
            for entry in part.attribution.entries:
                by_key.setdefault((entry.tenant, entry.phase_index), []).append(entry)
    merged = {(entry.tenant, entry.phase_index): entry for entry in result.attribution.entries}
    problems: List[str] = []
    for key in sorted(by_key.keys() | merged.keys(), key=lambda item: (item[1], item[0])):
        label = f"slice ({key[0]}, phase {key[1]})"
        slices = by_key.get(key, [])
        entry = merged.get(key)
        if entry is None:
            problems.append(f"{label}: present in the parts but missing from the merge")
            continue
        for name in _ADDITIVE_FIELDS:
            expected = sum(getattr(part, name) for part in slices)
            if getattr(entry, name) != expected:
                problems.append(
                    f"{label}: merged {name} is {getattr(entry, name)} but the "
                    f"parts' slices sum to {expected}"
                )
        pooled = [sample for part in slices for sample in part.latency.samples_ns]
        if len(pooled) == entry.completed_ios and sorted(pooled) != sorted(
            entry.latency.samples_ns
        ):
            problems.append(
                f"{label}: merged latency population does not match the union "
                "of the parts' samples"
            )
    return problems


def reconcile_attribution(result) -> List[str]:
    """Check a result's attribution against its aggregate stats, recursively.

    Returns a list of human-readable problems (empty = exact).  Counts and
    byte totals must always reconcile; when every completion was tagged, the
    pooled percentile inputs must also equal the aggregate population
    sample-for-sample.

    Pooled results (arrays, fleets) expose their ``parts``; for those, every
    merged slice must also equal the sum of its parts' slices, and every
    tagged part must reconcile on its own - so one call checks a fleet down
    to its devices.
    """
    report = result.attribution
    if report is None:
        return ["result carries no attribution (no tagged completions)"]
    problems: List[str] = []
    tagged_ios = sum(entry.completed_ios for entry in report.entries)
    tagged_bytes = sum(entry.total_bytes for entry in report.entries)
    if tagged_ios + report.untagged_ios != result.completed_ios:
        problems.append(
            f"I/O counts do not reconcile: {tagged_ios} tagged + "
            f"{report.untagged_ios} untagged != {result.completed_ios} aggregate"
        )
    if tagged_bytes + report.untagged_bytes != result.total_bytes:
        problems.append(
            f"byte totals do not reconcile: {tagged_bytes} tagged + "
            f"{report.untagged_bytes} untagged != {result.total_bytes} aggregate"
        )
    for entry in report.entries:
        if entry.latency.count != entry.completed_ios:
            problems.append(
                f"slice ({entry.tenant}, phase {entry.phase_index}): "
                f"{entry.latency.count} latency samples != {entry.completed_ios} I/Os"
            )
        window_count = sum(window.count for window in entry.latency_windows)
        if entry.latency_windows and window_count != entry.completed_ios:
            problems.append(
                f"slice ({entry.tenant}, phase {entry.phase_index}): "
                f"window counts sum to {window_count}, expected {entry.completed_ios}"
            )
    pooled = report.pooled_samples()
    aggregate = result.latency.samples_ns
    if report.untagged_ios == 0 and sorted(pooled) != sorted(aggregate):
        problems.append(
            "pooled per-slice percentile inputs do not match the aggregate "
            f"sample population ({len(pooled)} vs {len(aggregate)} samples)"
        )
    parts = getattr(result, "parts", ())
    if parts:
        problems += _merge_problems(result)
        for index, part in enumerate(parts):
            if part.attribution is not None:
                problems += [
                    f"{result.part_kind} {index}: {problem}"
                    for problem in reconcile_attribution(part)
                ]
    return problems
