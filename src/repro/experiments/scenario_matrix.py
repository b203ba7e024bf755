"""Scenario matrix: scenario x scheduler x device topology.

Beyond-the-paper experiment on the :mod:`repro.scenarios` engine: every
scenario in the grid (by default the canned ``steady`` / ``bursty`` /
``diurnal`` archetypes) is run against every device-level scheduler on a
single SSD *and* striped across multi-SSD arrays.  The questions it answers
are the ones the paper's fixed-gap sweeps cannot ask: does Sprinkler's
advantage survive MMPP bursts and multi-tenant interleaving?  Does striping
a bursty tenant mix across devices wash out the scheduler ranking?

Single-device cells are plain engine jobs; multi-device cells expand through
:class:`~repro.experiments.spec.ArraySpec` into one job per device.  All
jobs carry content fingerprints over the full scenario recipe, so
``--cache-dir`` memoizes cells across re-runs and ``--backend process``
parallelises the whole matrix.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.array_scaling import run_array_specs
from repro.experiments.engine import ExecutionEngine
from repro.experiments.spec import ArraySpec, ExperimentSpec, SimJob, WorkloadSpec
from repro.scenarios.library import default_scenarios
from repro.scenarios.scenario import Scenario
from repro.sim.config import SimulationConfig

DEFAULT_SCHEDULERS = ("VAS", "SPK1", "SPK2", "SPK3")
DEFAULT_DEVICE_COUNTS = (1, 2)
#: Chips of every device.  Array cells stripe in the :class:`ArraySpec`
#: default chunk.
CHIPS_PER_DEVICE = 16


def build_grid(
    scenarios: Sequence[Scenario],
    schedulers: Sequence[str] = DEFAULT_SCHEDULERS,
    device_counts: Sequence[int] = DEFAULT_DEVICE_COUNTS,
) -> Tuple[ExperimentSpec, Tuple[ArraySpec, ...]]:
    """Declare the grid: single-device jobs plus multi-device array cells.

    Both halves are keyed ``(scenario, devices, scheduler)`` so the result
    rows land in one table.  Every cell of one scenario shares the same
    :class:`WorkloadSpec`, hence the same built trace and fingerprint base.
    """
    config = SimulationConfig.paper_scale(CHIPS_PER_DEVICE).with_overrides(gc_enabled=False)
    workloads = {scenario.name: WorkloadSpec.scenario(scenario) for scenario in scenarios}
    single_jobs: List[SimJob] = []
    array_specs: List[ArraySpec] = []
    for scenario in scenarios:
        for num_devices in device_counts:
            for scheduler in schedulers:
                key = (scenario.name, num_devices, scheduler)
                if num_devices == 1:
                    single_jobs.append(
                        SimJob(
                            workload=workloads[scenario.name],
                            scheduler=scheduler,
                            config=config,
                            key=key,
                        )
                    )
                else:
                    array_specs.append(
                        ArraySpec(
                            workload=workloads[scenario.name],
                            num_devices=num_devices,
                            scheduler=scheduler,
                            config=config,
                            key=key,
                        )
                    )
    return ExperimentSpec("scenario-matrix", tuple(single_jobs)), tuple(array_specs)


def characterization_rows(scenarios: Sequence[Scenario]) -> List[Dict[str, object]]:
    """Per-phase + overall characterization rows for every scenario."""
    rows: List[Dict[str, object]] = []
    for scenario in scenarios:
        for row in scenario.report().rows():
            rows.append({"scenario": scenario.name, **row})
    return rows


def run_scenario_matrix(
    scenarios: Optional[Sequence[Scenario]] = None,
    schedulers: Sequence[str] = DEFAULT_SCHEDULERS,
    device_counts: Sequence[int] = DEFAULT_DEVICE_COUNTS,
    *,
    engine: Optional[ExecutionEngine] = None,
) -> List[Dict[str, object]]:
    """One row per (scenario, devices, scheduler) cell of the matrix."""
    if scenarios is None:
        scenarios = default_scenarios()
    engine = engine or ExecutionEngine()
    spec, array_specs = build_grid(scenarios, schedulers, device_counts)
    single_results = engine.run(spec)
    array_results = run_array_specs(array_specs, engine) if array_specs else {}

    rows: List[Dict[str, object]] = []
    for scenario in scenarios:
        for num_devices in device_counts:
            for scheduler in schedulers:
                key = (scenario.name, num_devices, scheduler)
                if num_devices == 1:
                    result = single_results[key]
                    bandwidth_mb_s = round(result.bandwidth_kb_s / 1024.0, 1)
                    iops = round(result.iops, 1)
                    avg_latency_us = round(result.avg_latency_ns / 1_000.0, 1)
                    p99_latency_us = round(result.latency.percentile_ns(0.99) / 1_000.0, 1)
                    utilization = result.chip_utilization
                else:
                    merged = array_results[key]
                    summary = merged.summary_row()
                    bandwidth_mb_s = summary["bandwidth_mb_s"]
                    iops = summary["iops"]
                    avg_latency_us = summary["avg_latency_us"]
                    p99_latency_us = summary["p99_latency_us"]
                    utilization = merged.chip_utilization
                rows.append(
                    {
                        "scenario": scenario.name,
                        "devices": num_devices,
                        "scheduler": scheduler,
                        "bandwidth_mb_s": bandwidth_mb_s,
                        "iops": iops,
                        "avg_latency_us": avg_latency_us,
                        "p99_latency_us": p99_latency_us,
                        "chip_utilization_pct": round(100.0 * utilization, 1),
                    }
                )
    return rows


def scheduler_ranking(rows: Sequence[Dict[str, object]]) -> Dict[Tuple[str, int], Tuple[str, ...]]:
    """Schedulers ordered by bandwidth within each (scenario, devices) cell."""
    cells: Dict[Tuple[str, int], List[Tuple[float, str]]] = {}
    for row in rows:
        cell = (str(row["scenario"]), int(row["devices"]))
        cells.setdefault(cell, []).append(
            (float(row["bandwidth_mb_s"]), str(row["scheduler"]))
        )
    return {
        cell: tuple(name for _, name in sorted(entries, reverse=True))
        for cell, entries in cells.items()
    }
