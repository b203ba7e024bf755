"""Executing a fleet spec through the engine, one device job at a time.

:func:`run_fleet` is deliberately a thin deterministic pipeline:

1. build the (tagged) scenario trace once,
2. measure per-tenant demand and :func:`~repro.fleet.placement.
   plan_placement` tenants onto nodes,
3. per node: apply per-tenant admission, find load valleys and slot the
   node's background jobs in, interleave everything back into one stream
   (:func:`~repro.scenarios.transforms.merge_streams`' deterministic
   tie-break), and freeze it - tags intact - into the node's
   :class:`~repro.experiments.spec.ArraySpec`,
4. flatten every node's device jobs into ONE
   :meth:`~repro.experiments.engine.ExecutionEngine.run_jobs` batch, so
   backend choice, the fingerprint cache and ``--trace-dir`` all apply per
   device job,
5. regroup results per node and merge them into a
   :class:`~repro.fleet.result.FleetResult`.

Every step is a pure function of the spec, so serial and process runs are
bit-identical and a repeated run is served entirely from the result cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.array.host import merge_device_results
from repro.experiments.spec import SimJob, WorkloadSpec
from repro.fleet.admission import AdmissionStats, admit_stream
from repro.fleet.background import VALLEY_WINDOWS, BackgroundStats, schedule_background
from repro.fleet.placement import PlacementPlan, plan_placement, tenant_demands
from repro.fleet.result import FleetResult, merge_node_results
from repro.fleet.spec import NODE_SCHEDULER, FleetSpec
from repro.scenarios.transforms import merge_streams
from repro.workloads.request import IORequest


@dataclass(frozen=True)
class FleetWorkloads:
    """The materialised per-node inputs of one fleet run."""

    #: One interleaved (admitted foreground + background) stream per node.
    node_traces: Tuple[Tuple[IORequest, ...], ...]
    plan: PlacementPlan
    admission: Tuple[AdmissionStats, ...]
    background: Tuple[BackgroundStats, ...]


def build_fleet_workloads(spec: FleetSpec) -> FleetWorkloads:
    """Materialise the placement, admission and background decisions.

    Pure data-plane work - nothing here touches a simulator, so tests can
    assert on placement/admission/valley behaviour without running devices.
    """
    trace = spec.scenario.build()
    tenants = spec.tenants()
    plan = plan_placement(spec, tenant_demands(tenants, trace))

    node_traces: List[Tuple[IORequest, ...]] = []
    admission: List[AdmissionStats] = []
    background: List[BackgroundStats] = []
    for node_index, node in enumerate(spec.nodes):
        streams: List[List[IORequest]] = []
        for tenant in plan.tenants_on(node_index):
            offered = [io for io in trace if io.tenant == tenant]
            admitted, throttled, rejected = admit_stream(offered, spec.policy_for(tenant))
            streams.append(admitted)
            admission.append(
                AdmissionStats(
                    tenant=tenant,
                    node=node.name,
                    offered=len(offered),
                    admitted=len(admitted),
                    throttled=throttled,
                    rejected=rejected,
                )
            )
        foreground = merge_streams(streams) if streams else []
        node_jobs = [job for job in spec.background if job.node == node.name]
        bg_streams, bg_stats = schedule_background(
            foreground, node_jobs, num_windows=VALLEY_WINDOWS
        )
        background.extend(bg_stats)
        merged = (
            merge_streams([foreground, *bg_streams]) if bg_streams else foreground
        )
        node_traces.append(tuple(merged))
    return FleetWorkloads(
        node_traces=tuple(node_traces),
        plan=plan,
        admission=tuple(admission),
        background=tuple(background),
    )


def fleet_jobs(
    spec: FleetSpec, workloads: Optional[FleetWorkloads] = None
) -> Tuple[List[SimJob], FleetWorkloads]:
    """Expand a fleet spec into its flat, ordered device-job list.

    Jobs are ordered node by node (node order = spec order), each node
    contributing one job per device keyed ``(fleet, node, device)``; the
    per-node sub-traces are frozen with their provenance tags so device
    results carry attribution.
    """
    if workloads is None:
        workloads = build_fleet_workloads(spec)
    jobs: List[SimJob] = []
    for node, trace in zip(spec.nodes, workloads.node_traces):
        workload = WorkloadSpec.inline(
            f"{spec.name}@{node.name}", list(trace), keep_tags=True
        )
        array = node.array_spec(workload, key=(spec.name, node.name))
        jobs.extend(array.device_jobs())
    return jobs, workloads


def run_fleet(spec: FleetSpec, engine=None) -> FleetResult:
    """Run a whole fleet spec and merge everything into a FleetResult.

    ``engine`` defaults to a serial
    :class:`~repro.experiments.engine.ExecutionEngine`; pass a configured
    one (process backend, cache dir, tracing) and every
    device job inherits it.
    """
    from repro.experiments.engine import ExecutionEngine

    jobs, workloads = fleet_jobs(spec)
    results = (engine or ExecutionEngine()).run_jobs(jobs)

    node_results = []
    cursor = 0
    for node in spec.nodes:
        device_results = results[cursor : cursor + len(node.devices)]
        cursor += len(node.devices)
        node_results.append(
            merge_device_results(
                device_results,
                scheduler=NODE_SCHEDULER,
                workload=f"{spec.name}@{node.name}",
                policy="stripe",  # every node stripes (the ArraySpec default)
            )
        )
    return merge_node_results(
        spec,
        workloads.plan,
        node_results,
        admission=workloads.admission,
        background=workloads.background,
    )
