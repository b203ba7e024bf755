"""Declarative fleet specifications: N arrays behind one cluster scheduler.

A :class:`FleetSpec` is the cluster-level analogue of
:class:`~repro.experiments.spec.ArraySpec`: pure frozen data describing a
multi-tenant :class:`~repro.scenarios.scenario.Scenario` served by a fleet
of heterogeneous array nodes (:class:`FleetNodeSpec`, device-zoo ids
welcome), a placement policy assigning tenants to nodes, per-tenant
admission limits (:class:`TenantPolicy`), one SLO target for every
tenant, and deferrable background work (:class:`BackgroundJob`) scheduled
into load valleys.

Like every spec layer below it, a fleet spec is hashable and picklable;
:func:`repro.fleet.run.run_fleet` expands it into ordinary cache-aware
device jobs, so serial and process runs of the same spec are bit-identical
and memoize per device (each keyed by its job fingerprint).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Tuple

from repro.experiments.spec import ArraySpec, WorkloadSpec
from repro.obs.report import SLOThresholds
from repro.scenarios.scenario import Scenario

KB = 1024
MB = 1024 * KB

#: Cluster-level placement policies understood by
#: :func:`repro.fleet.placement.plan_placement`.
FLEET_PLACEMENT_POLICIES = ("round-robin", "least-loaded", "hash")

#: Background job kinds understood by :mod:`repro.fleet.background`.
BACKGROUND_KINDS = ("scrub", "gc-debt")
#: Size of every background request, and the address window a job touches
#: (``gc-debt`` scatters inside it).
BACKGROUND_REQUEST_BYTES = 64 * KB
BACKGROUND_SPAN_BYTES = 16 * MB

#: The device-level scheduler of every fleet node.
NODE_SCHEDULER = "SPK3"


@dataclass(frozen=True)
class TenantPolicy:
    """Cluster-level controls for one tenant.

    ``max_iops`` paces admissions to a minimum inter-arrival gap and
    ``max_queue_depth`` rejects arrivals that would exceed the tenant's
    virtual in-flight window (see :mod:`repro.fleet.admission`).
    """

    max_iops: Optional[float] = None
    max_queue_depth: Optional[int] = None

    def __post_init__(self) -> None:
        """Validate the limit fields."""
        if self.max_iops is not None and self.max_iops <= 0:
            raise ValueError("max_iops must be positive when given")
        if self.max_queue_depth is not None and self.max_queue_depth <= 0:
            raise ValueError("max_queue_depth must be positive when given")


@dataclass(frozen=True)
class BackgroundJob:
    """One deferrable maintenance job targeted at one node.

    ``kind`` selects the request shape (``scrub`` issues strided reads,
    ``gc-debt`` seeded random overwrites), each request
    :data:`BACKGROUND_REQUEST_BYTES` long inside the first
    :data:`BACKGROUND_SPAN_BYTES` of the node's address space; the job's
    requests are injected into the emptiest unclaimed load valley of the
    node's foreground traffic.  Background requests carry the provenance
    tag ``bg:<kind>``, so they show up as their own attribution slice and
    are excluded from tenant SLO accounting.
    """

    kind: str
    node: str
    num_requests: int = 16

    def __post_init__(self) -> None:
        """Validate the job shape."""
        if self.kind not in BACKGROUND_KINDS:
            raise ValueError(
                f"unknown background kind {self.kind!r}; expected one of {BACKGROUND_KINDS}"
            )
        if self.num_requests <= 0:
            raise ValueError("num_requests must be positive")

    @property
    def tag(self) -> str:
        """The provenance tag stamped on this job's requests."""
        return f"bg:{self.kind}"


@dataclass(frozen=True)
class FleetNodeSpec:
    """One array node of the fleet: one device-zoo id per device slot.

    Every node stripes its share of the traffic over its devices
    (:class:`~repro.experiments.spec.ArraySpec` defaults) and schedules each
    device with :data:`NODE_SCHEDULER`.
    """

    name: str
    devices: Tuple[str, ...]

    def __post_init__(self) -> None:
        """Validate the device setup."""
        if not self.devices:
            raise ValueError(f"node {self.name!r}: devices= lists no device")

    def array_spec(self, workload: WorkloadSpec, key: Tuple[Any, ...] = ()) -> ArraySpec:
        """The :class:`ArraySpec` running ``workload`` on this node."""
        return ArraySpec(
            workload=workload,
            num_devices=len(self.devices),
            scheduler=NODE_SCHEDULER,
            key=key,
            devices=self.devices,
        )


@dataclass(frozen=True)
class FleetSpec:
    """A multi-tenant scenario served by a fleet of array nodes.

    The scenario is built once; tenants are assigned whole to nodes by the
    ``placement`` policy, each tenant's stream passes its
    :class:`TenantPolicy` admission limits, background jobs are slotted
    into per-node load valleys, and every node then runs as an ordinary
    :class:`~repro.experiments.spec.ArraySpec` through the execution
    engine.  ``default_slo`` applies to every foreground tenant.
    """

    name: str
    scenario: Scenario
    nodes: Tuple[FleetNodeSpec, ...]
    placement: str = "round-robin"
    #: ``(tenant name, policy)`` pairs - a frozen mapping.
    tenant_policies: Tuple[Tuple[str, TenantPolicy], ...] = ()
    default_slo: Optional[SLOThresholds] = None
    background: Tuple[BackgroundJob, ...] = ()

    def __post_init__(self) -> None:
        """Validate node names, placement policy and background targets."""
        if not self.nodes:
            raise ValueError(f"fleet {self.name!r} needs at least one node")
        names = [node.name for node in self.nodes]
        if len(set(names)) != len(names):
            raise ValueError(f"fleet {self.name!r} has duplicate node names")
        if self.placement not in FLEET_PLACEMENT_POLICIES:
            raise ValueError(
                f"unknown placement policy {self.placement!r}; "
                f"expected one of {FLEET_PLACEMENT_POLICIES}"
            )
        for job in self.background:
            if job.node not in names:
                raise ValueError(
                    f"background job {job.kind!r} targets unknown node {job.node!r}"
                )

    def node_names(self) -> Tuple[str, ...]:
        """Node names in declaration order."""
        return tuple(node.name for node in self.nodes)

    def tenants(self) -> Tuple[str, ...]:
        """Distinct scenario tenant names, in declaration order.

        A tenant appearing in several phases counts once; placement treats
        it as one entity (all its phases land on the same node).
        """
        seen: List[str] = []
        for phase in self.scenario.phases:
            for tenant in phase.tenants:
                if tenant.name not in seen:
                    seen.append(tenant.name)
        return tuple(seen)

    def policy_for(self, tenant: str) -> Optional[TenantPolicy]:
        """The :class:`TenantPolicy` of one tenant (``None`` when unset)."""
        for name, policy in self.tenant_policies:
            if name == tenant:
                return policy
        return None
