"""The benchmark's workloads: fixed job lists built from the workload seed.

Each workload is declared through the public ``repro`` API only and runs
serially in this process, one job after another, through a serial
:class:`~repro.experiments.engine.ExecutionEngine` whose result cache starts
empty.  Inside each job, arrivals are open loop in simulated time (the trace
fixes the timestamps; simulated backlog shows up as queue-stall time).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.experiments.engine import ExecutionEngine
from repro.experiments.fleet_sweep import build_fleet_spec
from repro.experiments.spec import SimJob, WorkloadSpec
from repro.fleet import run as fleet_run
from repro.fleet.result import reconcile_fleet
from repro.metrics.report import SimulationResult
from repro.scenarios.library import aged_device_state, fleet_scenario, sustained_write_scenario
from repro.sim.config import SimulationConfig

KB = 1024

#: Table 1 traces with contrasting read/write mix, and the paper's schedulers.
GRID_TRACES = ("cfs0", "msnfs1", "proj0")
GRID_SCHEDULERS = ("VAS", "PAS", "SPK3")
#: Requests per trace: the three pooled SPK3 jobs give 1800 latency samples,
#: 18 of them beyond p99.
GRID_REQUESTS = 600

#: Overwrites per aged device: the two pooled jobs give 1000 samples.
AGED_REQUESTS = 500
#: The aged device's preconditioning recipe is pinned, like its geometry (the
#: perf suite's ``aged`` case uses the same seed; ``PageMapFTL.fill`` pins its
#: own): the workload seed drives the overwrite traffic, so every seed ages
#: the same device.
AGING_SEED = 11

#: Scenario scale of the fleet day: about 3000 completions across the fleet.
FLEET_REQUESTS_PER_TENANT = 700
FLEET_SIZE = 3
FLEET_PLACEMENT = "least-loaded"


@dataclass
class PassOutput:
    """What one pass over a workload's job list produced."""

    #: Device-level results in job order.
    results: List[SimulationResult]
    #: Problems ``reconcile_fleet`` reported (fleet-day only).
    problems: List[str] = field(default_factory=list)
    #: Fleet admission/background counts (fleet-day only).
    fleet_counts: Dict[str, int] = field(default_factory=dict)


def paper_grid_jobs(seed: int) -> Tuple[SimJob, ...]:
    """Three Table 1 traces x VAS/PAS/SPK3 on a fresh 64-chip device, GC off."""
    config = SimulationConfig.paper_scale(64, gc_enabled=False)
    return tuple(
        SimJob(
            workload=WorkloadSpec.datacenter(trace, num_requests=GRID_REQUESTS, seed=seed),
            scheduler=scheduler,
            config=config,
            key=(trace, scheduler),
        )
        for trace in GRID_TRACES
        for scheduler in GRID_SCHEDULERS
    )


def aged_overwrite_jobs(seed: int) -> Tuple[SimJob, ...]:
    """Random 16 KB overwrites under SPK3 on two small-geometry 64-chip devices.

    Job 1 starts from a steady-state aged :class:`DeviceState`; job 2 from a
    95% prefill (``PageMapFTL.fill``) - one job per preconditioning path.
    """
    base = SimulationConfig.paper_scale(64)
    geometry = base.geometry.scaled(blocks_per_plane=16, pages_per_block=32)
    state = aged_device_state(steady_state=True, seed=AGING_SEED)
    aged = base.with_overrides(
        geometry=geometry,
        gc_enabled=True,
        overprovisioning_fraction=0.15,
        device_state=state,
    )
    prefilled = base.with_overrides(geometry=geometry, gc_enabled=True, prefill_fraction=0.95)
    live_bytes = int(aged.logical_pages * state.fill_fraction * geometry.page_size_bytes)
    half_capacity = geometry.total_pages * geometry.page_size_bytes // 2
    return tuple(
        SimJob(
            workload=WorkloadSpec.scenario(
                sustained_write_scenario(
                    num_requests=AGED_REQUESTS,
                    size_bytes=16 * KB,
                    address_space_bytes=address_space,
                    seed=seed,
                )
            ),
            scheduler="SPK3",
            config=config,
            key=(label,),
        )
        for label, config, address_space in (
            ("aged-steady", aged, live_bytes),
            ("prefill-95", prefilled, half_capacity),
        )
    )


def fleet_day_spec(seed: int):
    """Three heterogeneous zoo nodes, least-loaded placement, the fleet day."""
    scenario = fleet_scenario(requests_per_tenant=FLEET_REQUESTS_PER_TENANT, seed=seed)
    return build_fleet_spec(scenario, FLEET_SIZE, FLEET_PLACEMENT)


class JobListWorkload:
    """A plain job list run through ``ExecutionEngine.run_jobs``."""

    def __init__(self, name: str, build) -> None:
        self.name = name
        self._build = build

    def jobs(self, seed: int) -> Sequence[SimJob]:
        """The device jobs one pass runs, in order (for the output checks)."""
        return self._build(seed)

    def run(self, seed: int, cache_dir: str, span) -> PassOutput:
        """Build the job list, run it and return the results (the timed path)."""
        jobs = self._build(seed)
        return PassOutput(ExecutionEngine(cache_dir=cache_dir).run_jobs(jobs))


class FleetDayWorkload:
    """``run_fleet`` over the fleet-sweep cell, then ``reconcile_fleet``."""

    name = "fleet-day"

    def jobs(self, seed: int) -> Sequence[SimJob]:
        """The device jobs one pass runs, in order (for the output checks)."""
        return fleet_run.fleet_jobs(fleet_day_spec(seed))[0]

    def run(self, seed: int, cache_dir: str, span) -> PassOutput:
        """Build the fleet spec, run and reconcile it (the timed path).

        ``span`` is the tracer's span context manager; ``run_fleet`` and
        ``reconcile_fleet`` are spanned here, at the call site.
        """
        spec = fleet_day_spec(seed)
        engine = ExecutionEngine(cache_dir=cache_dir)
        with span("fleet.run"):
            fleet = fleet_run.run_fleet(spec, engine)
        with span("fleet.reconcile"):
            problems = reconcile_fleet(fleet)
        return PassOutput(
            results=[
                result for node in fleet.node_results for result in node.device_results
            ],
            problems=problems,
            fleet_counts={
                "rejected_ios": fleet.rejected_ios,
                "throttled_ios": fleet.throttled_ios,
                "background_ios": fleet.background_ios,
            },
        )


WORKLOADS: Dict[str, object] = {
    workload.name: workload
    for workload in (
        JobListWorkload("paper-grid", paper_grid_jobs),
        JobListWorkload("aged-overwrite", aged_overwrite_jobs),
        FleetDayWorkload(),
    )
}
