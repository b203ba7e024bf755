"""Per-tenant admission control at the cluster edge.

Two limits, both from :class:`~repro.fleet.spec.TenantPolicy` and both
deterministic pure functions of the tenant's arrival stream:

* ``max_iops`` - token-bucket pacing: arrivals closer together than the
  implied minimum gap (``1e9 / max_iops`` nanoseconds) are *delayed* to the
  gap boundary (counted as throttled), never dropped.  This models an
  ingress shaper smoothing a bursty tenant.
* ``max_queue_depth`` - a virtual in-flight window: each admitted request
  occupies a slot for ``NOMINAL_SERVICE_NS`` (the first-order service
  model :func:`repro.scenarios.characterize.characterize` uses); an arrival
  finding every slot occupied is *rejected* (dropped before simulation).
  This models load-shedding at the cluster front end.

Pacing applies before the depth check, so a rate-limited tenant's
smoothed stream is what the depth window sees - the composition order an
edge proxy implements.  Rejected requests never reach a device, which is
why fleet results report offered vs admitted counts per tenant.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.fleet.spec import TenantPolicy
from repro.scenarios.characterize import NOMINAL_SERVICE_NS
from repro.scenarios.transforms import copy_request
from repro.workloads.request import IORequest

NS_PER_S = 1_000_000_000


@dataclass(frozen=True)
class AdmissionStats:
    """Admission accounting for one tenant on one node."""

    tenant: str
    node: str
    #: Requests the scenario offered for this tenant.
    offered: int
    #: Requests that passed admission (``offered - rejected``).
    admitted: int
    #: Admitted requests whose arrival was delayed by rate pacing.
    throttled: int
    #: Requests dropped by the queue-depth limit.
    rejected: int

    def rows(self) -> Dict[str, object]:
        """One printable row of the admission table."""
        return {
            "tenant": self.tenant,
            "node": self.node,
            "offered": self.offered,
            "admitted": self.admitted,
            "throttled": self.throttled,
            "rejected": self.rejected,
        }


def admit_stream(
    requests: Sequence[IORequest],
    policy: Optional[TenantPolicy],
) -> Tuple[List[IORequest], int, int]:
    """Apply one tenant's admission limits to its arrival-ordered stream.

    Returns ``(admitted requests, throttled count, rejected count)``.  The
    output requests are fresh copies (tags preserved) with possibly shifted
    arrivals; without limits the stream passes through copied but
    unchanged.  Deterministic: same stream and policy, same result, in any
    process.
    """
    if policy is None or (policy.max_iops is None and policy.max_queue_depth is None):
        return [copy_request(io) for io in requests], 0, 0

    min_gap_ns = int(NS_PER_S / policy.max_iops) if policy.max_iops else 0
    depth = policy.max_queue_depth
    admitted: List[IORequest] = []
    throttled = 0
    rejected = 0
    next_free_ns = 0
    busy_until: List[int] = []  # min-heap of virtual completion times

    for io in requests:
        arrival_ns = io.arrival_ns
        if min_gap_ns:
            if arrival_ns < next_free_ns:
                arrival_ns = next_free_ns
                throttled += 1
            next_free_ns = arrival_ns + min_gap_ns
        if depth is not None:
            while busy_until and busy_until[0] <= arrival_ns:
                heapq.heappop(busy_until)
            if len(busy_until) >= depth:
                rejected += 1
                continue
            heapq.heappush(busy_until, arrival_ns + NOMINAL_SERVICE_NS)
        admitted.append(copy_request(io, arrival_ns=arrival_ns))
    return admitted, throttled, rejected
