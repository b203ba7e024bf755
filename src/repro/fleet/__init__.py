"""Fleet-scale simulation: many arrays behind one cluster scheduler.

The layer above :mod:`repro.array`: a :class:`FleetSpec` composes N
heterogeneous array nodes (device-zoo ids welcome) serving one multi-tenant
:class:`~repro.scenarios.scenario.Scenario`, with pluggable tenant
placement (:mod:`~repro.fleet.placement`), per-tenant admission control
(:mod:`~repro.fleet.admission`) and deferrable background work slotted
into load valleys (:mod:`~repro.fleet.background`).  :func:`run_fleet`
fans every node's devices through the existing
:class:`~repro.experiments.engine.ExecutionEngine` - cache, process
backend, checkpointing and tracing all apply per device job - and
:class:`FleetResult` merges the per-array results with *exact* per-tenant
attribution, SLO verdicts and placement-balance metrics
(:func:`reconcile_fleet` asserts the whole chain;
:func:`repro.obs.report.fleet_report` renders it).
"""

from repro.fleet.admission import AdmissionStats, admit_stream
from repro.fleet.background import (
    BackgroundStats,
    LoadWindow,
    find_load_valleys,
    schedule_background,
)
from repro.fleet.placement import (
    PlacementPlan,
    TenantDemand,
    plan_placement,
    stable_tenant_hash,
    tenant_demands,
)
from repro.fleet.result import FleetResult, merge_node_results, reconcile_fleet
from repro.fleet.run import FleetWorkloads, build_fleet_workloads, fleet_jobs, run_fleet
from repro.fleet.spec import (
    BACKGROUND_KINDS,
    FLEET_PLACEMENT_POLICIES,
    FLEET_VERSION,
    BackgroundJob,
    FleetNodeSpec,
    FleetSpec,
    TenantPolicy,
)

__all__ = [
    "AdmissionStats",
    "admit_stream",
    "BackgroundStats",
    "LoadWindow",
    "find_load_valleys",
    "schedule_background",
    "PlacementPlan",
    "TenantDemand",
    "plan_placement",
    "stable_tenant_hash",
    "tenant_demands",
    "FleetResult",
    "merge_node_results",
    "reconcile_fleet",
    "FleetWorkloads",
    "build_fleet_workloads",
    "fleet_jobs",
    "run_fleet",
    "BACKGROUND_KINDS",
    "FLEET_PLACEMENT_POLICIES",
    "FLEET_VERSION",
    "BackgroundJob",
    "FleetNodeSpec",
    "FleetSpec",
    "TenantPolicy",
]
