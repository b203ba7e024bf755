"""Cluster placement: assigning whole tenants to fleet nodes.

Placement happens *before* simulation, on the demand profile of the built
scenario (per-tenant request and byte counts), and assigns each tenant to
exactly one node - the cloud "shard by customer" shape, which keeps every
tenant's stream intact so per-node admission and attribution stay exact.

Three policies (:data:`~repro.fleet.spec.FLEET_PLACEMENT_POLICIES`):

* ``round-robin`` - tenants in declaration order onto nodes ``i % N``.
* ``least-loaded`` - greedy: tenants by descending byte demand onto the
  node with the fewest assigned bytes, ties broken by node order.
* ``hash`` - a stable SHA-256-derived hash of the tenant name modulo the
  node count (process- and run-independent, unlike builtin ``hash``).

Everything here is deterministic pure data, so a placement plan is part of
the reproducible fleet recipe rather than a runtime accident.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

from repro.fleet.spec import FleetSpec
from repro.workloads.request import IORequest


@dataclass(frozen=True)
class TenantDemand:
    """Offered load of one tenant over the whole scenario."""

    tenant: str
    requests: int
    bytes: int


@dataclass(frozen=True)
class PlacementPlan:
    """The placement decision: tenant name -> node index."""

    policy: str
    #: ``(tenant, node index)`` in tenant declaration order.
    assignments: Tuple[Tuple[str, int], ...]

    def tenants_on(self, node: int) -> Tuple[str, ...]:
        """Tenants assigned to one node, in declaration order."""
        return tuple(name for name, index in self.assignments if index == node)


def tenant_demands(
    tenants: Sequence[str], trace: Sequence[IORequest]
) -> Tuple[TenantDemand, ...]:
    """Per-tenant request/byte demand of a built (tagged) scenario trace."""
    counts = {tenant: 0 for tenant in tenants}
    volumes = {tenant: 0 for tenant in tenants}
    for io in trace:
        if io.tenant in counts:
            counts[io.tenant] += 1
            volumes[io.tenant] += io.size_bytes
    return tuple(
        TenantDemand(tenant=tenant, requests=counts[tenant], bytes=volumes[tenant])
        for tenant in tenants
    )


def stable_tenant_hash(tenant: str) -> int:
    """A process-independent 64-bit hash of a tenant name.

    Builtin ``hash`` on strings is salted per process, which would make
    ``hash`` placement differ between runs; SHA-256 is stable everywhere.
    """
    digest = hashlib.sha256(tenant.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def plan_placement(spec: FleetSpec, demands: Sequence[TenantDemand]) -> PlacementPlan:
    """Assign every tenant to one node under the spec's placement policy."""
    num_nodes = len(spec.nodes)
    order = [demand.tenant for demand in demands]
    assignment: Dict[str, int] = {}

    if spec.placement == "round-robin":
        for index, tenant in enumerate(order):
            assignment[tenant] = index % num_nodes
    elif spec.placement == "least-loaded":
        loads = [0] * num_nodes
        # Largest demand first: the classic greedy LPT bound on imbalance.
        for demand in sorted(demands, key=lambda d: (-d.bytes, d.tenant)):
            node = min(range(num_nodes), key=lambda i: (loads[i], i))
            assignment[demand.tenant] = node
            loads[node] += demand.bytes
    else:  # "hash" - FleetSpec already validated the policy name
        for tenant in order:
            assignment[tenant] = stable_tenant_hash(tenant) % num_nodes

    return PlacementPlan(
        policy=spec.placement,
        assignments=tuple((tenant, assignment[tenant]) for tenant in order),
    )
