"""Array scaling: does Sprinkler's intra-device win survive host striping?

Beyond-the-paper experiment on the :mod:`repro.array` layer: one fixed host
workload is placed across 1..N SSDs under each placement policy (RAID-0
striping, range sharding, hashed chunks) and each device-level scheduler,
and the array-aggregate bandwidth, pooled latency and cross-device balance
are compared.  The interesting questions mirror the paper's intra-SSD ones
one level up: how much aggregate bandwidth each extra device buys (ideal
scaling would be linear), whether placement skew erodes it, and whether the
scheduler ranking (VAS vs SPK1-3) is preserved under striping.

Every array cell expands into one engine job per device, and the whole grid
is submitted as a single batch, so ``--backend process`` parallelises across
cells *and* devices, and a result cache memoizes per device sub-trace.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.array.host import ArrayResult, merge_device_results
from repro.array.layout import split_trace
from repro.experiments.engine import ExecutionEngine
from repro.experiments.spec import ArraySpec, WorkloadSpec
from repro.sim.config import SimulationConfig

KB = 1024

DEFAULT_DEVICE_COUNTS = (1, 2, 4)
DEFAULT_POLICIES = ("stripe", "range", "hash")
DEFAULT_SCHEDULERS = ("VAS", "SPK1", "SPK2", "SPK3")
#: Stripe unit, chips of every device, and the host workload's seed.
CHUNK_KB = 64
CHIPS_PER_DEVICE = 16
SEED = 11
#: Host request size of the array workload.
REQUEST_KB = 128


def build_specs(
    device_counts: Sequence[int] = DEFAULT_DEVICE_COUNTS,
    policies: Sequence[str] = DEFAULT_POLICIES,
    schedulers: Sequence[str] = DEFAULT_SCHEDULERS,
    *,
    num_requests: int = 48,
) -> Tuple[ArraySpec, ...]:
    """Declare the device-count x placement x scheduler array grid.

    Every cell shares the same host workload recipe, so differences between
    rows come only from placement and scheduling.  A single-device cell is
    the degenerate array (all placements coincide for ``stripe``/``range``),
    which anchors the scaling curves at the paper's intra-SSD numbers.
    """
    workload = WorkloadSpec.random(
        f"array-{REQUEST_KB}KB",
        num_requests=num_requests,
        size_bytes=REQUEST_KB * KB,
        address_space_bytes=max(64 * KB * num_requests, 8 * REQUEST_KB * KB * num_requests),
        interarrival_ns=1_000,
        seed=SEED,
    )
    config = SimulationConfig.paper_scale(CHIPS_PER_DEVICE).with_overrides(gc_enabled=False)
    specs: List[ArraySpec] = []
    for num_devices in device_counts:
        for policy in policies:
            for scheduler in schedulers:
                specs.append(
                    ArraySpec(
                        workload=workload,
                        num_devices=num_devices,
                        scheduler=scheduler,
                        config=config,
                        policy=policy,
                        chunk_bytes=CHUNK_KB * KB,
                        key=(num_devices, policy, scheduler),
                    )
                )
    return tuple(specs)


def run_array_specs(
    specs: Sequence[ArraySpec], engine: Optional[ExecutionEngine] = None
) -> Dict[Tuple, ArrayResult]:
    """Run array cells as one flat engine batch; results keyed by spec key.

    All device jobs of all cells are submitted together so a process-backend
    run saturates its workers across the whole grid, then each cell's slice
    is merged back into its :class:`ArrayResult`.
    """
    keys = [spec.key for spec in specs]
    if len(set(keys)) != len(keys):
        raise ValueError("array specs have duplicate keys; results would collide")
    engine = engine or ExecutionEngine()
    # A grid shares one trace across many cells and one split across the
    # scheduler axis; build/split each distinct combination once instead of
    # per cell (split_trace never mutates its input, so sharing is safe).
    traces: Dict[WorkloadSpec, list] = {}
    splits: Dict[Tuple, list] = {}
    per_spec_jobs = []
    for spec in specs:
        if spec.workload not in traces:
            traces[spec.workload] = spec.workload.build()
        split_key = (spec.workload, spec.num_devices, spec.policy, spec.chunk_bytes)
        if split_key not in splits:
            splits[split_key] = split_trace(traces[spec.workload], spec.layout())
        per_spec_jobs.append(spec.device_jobs(splits[split_key]))
    flat = [job for jobs in per_spec_jobs for job in jobs]
    flat_results = engine.run_jobs(flat)
    merged: Dict[Tuple, ArrayResult] = {}
    cursor = 0
    for spec, jobs in zip(specs, per_spec_jobs):
        device_results = flat_results[cursor : cursor + len(jobs)]
        cursor += len(jobs)
        merged[spec.key] = merge_device_results(
            device_results,
            scheduler=spec.scheduler,
            workload=spec.workload.name,
            policy=spec.policy,
        )
    return merged


def run_array_scaling(
    device_counts: Sequence[int] = DEFAULT_DEVICE_COUNTS,
    policies: Sequence[str] = DEFAULT_POLICIES,
    schedulers: Sequence[str] = DEFAULT_SCHEDULERS,
    *,
    num_requests: int = 48,
    engine: Optional[ExecutionEngine] = None,
) -> List[Dict[str, object]]:
    """Array-scaling rows per (device count, placement policy, scheduler)."""
    specs = build_specs(device_counts, policies, schedulers, num_requests=num_requests)
    results = run_array_specs(specs, engine)
    rows: List[Dict[str, object]] = []
    for spec in specs:
        result = results[spec.key]
        # Single source for the derived figures: reshape the ArrayResult
        # summary row instead of re-deriving its formulas here.
        summary = result.summary_row()
        rows.append(
            {
                "devices": summary["devices"],
                "policy": summary["policy"],
                "scheduler": summary["scheduler"],
                "bandwidth_mb_s": summary["bandwidth_mb_s"],
                "iops": summary["iops"],
                "avg_latency_us": summary["avg_latency_us"],
                "p99_latency_us": summary["p99_latency_us"],
                "chip_utilization_pct": round(100.0 * result.chip_utilization, 1),
                "util_spread": summary["util_spread"],
                "byte_imbalance": summary["byte_imbalance"],
            }
        )
    return rows


def scaling_efficiency(rows: Sequence[Dict[str, object]]) -> Dict[Tuple, float]:
    """Bandwidth speedup per (policy, scheduler) at the largest device count.

    Relative to the same policy/scheduler at the smallest device count;
    1.0 x devices-ratio would be perfect linear scaling.  Ratios are taken
    over the table's reported (0.1 MB/s) bandwidths by design, so they are
    reproducible from printed output; at this module's default scale
    (hundreds of MB/s per cell) the rounding contributes < 0.1%.
    """
    by_cell: Dict[Tuple[str, str], Dict[int, float]] = {}
    for row in rows:
        cell = (str(row["policy"]), str(row["scheduler"]))
        by_cell.setdefault(cell, {})[int(row["devices"])] = float(row["bandwidth_mb_s"])
    efficiency: Dict[Tuple, float] = {}
    for cell, curve in by_cell.items():
        smallest, largest = min(curve), max(curve)
        if smallest == largest or curve[smallest] <= 0.0:
            continue
        efficiency[cell] = round(curve[largest] / curve[smallest], 2)
    return efficiency
