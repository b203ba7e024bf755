"""Shared workload-generator dispatch.

Both :class:`repro.experiments.spec.WorkloadSpec` and
:class:`repro.scenarios.scenario.Tenant` describe workloads as a
``(generator name, frozen params)`` pair; this module is the single place
that maps those names onto the generator functions, so the two spec layers
cannot drift apart.  It also owns the value-freezing of request lists
(:func:`freeze_requests`/:func:`thaw_requests`) used by both ``inline``
spec kinds.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple

from repro.workloads.datacenter import generate_datacenter_trace
from repro.workloads.request import IOKind, IORequest
from repro.workloads.synthetic import (
    SyntheticWorkloadConfig,
    generate_mixed_workload,
    generate_random_workload,
    generate_sequential_workload,
)

#: One frozen request: (kind value, offset, size, arrival).
#: Tagged freezes (``freeze_requests(..., keep_tags=True)``) append
#: ``(tenant, phase_index)``, widening the tuple to 6 entries.
FrozenRequest = Tuple[Any, ...]


def freeze_requests(
    requests: Sequence[IORequest], *, keep_tags: bool = False
) -> Tuple[FrozenRequest, ...]:
    """Reduce requests to hashable value tuples (for inline specs).

    With ``keep_tags=True`` the observational provenance tags
    (``tenant``/``phase_index``) ride along as two extra tuple entries so a
    frozen scenario sub-trace can still be attributed after thawing.  Tagged
    tuples must never enter a fingerprint directly - hash
    :func:`strip_request_tags` of them instead, so a tagged freeze stays
    cache-compatible with the identical untagged trace.
    """
    if keep_tags:
        return tuple(
            (
                io.kind.value,
                io.offset_bytes,
                io.size_bytes,
                io.arrival_ns,
                io.tenant,
                io.phase_index,
            )
            for io in requests
        )
    return tuple(
        (io.kind.value, io.offset_bytes, io.size_bytes, io.arrival_ns) for io in requests
    )


def strip_request_tags(frozen: Sequence[FrozenRequest]) -> Tuple[FrozenRequest, ...]:
    """Drop the tag entries of tagged frozen tuples (identity on untagged)."""
    return tuple(tuple(entry[:4]) for entry in frozen)


def thaw_requests(frozen: Sequence[FrozenRequest]) -> List[IORequest]:
    """Rebuild fresh request objects from :func:`freeze_requests` tuples.

    Accepts both the 4-entry untagged and the 6-entry tagged form.
    """
    requests: List[IORequest] = []
    for entry in frozen:
        kind, offset, size, arrival = entry[:4]
        io = IORequest(
            kind=IOKind(kind), offset_bytes=offset, size_bytes=size, arrival_ns=arrival
        )
        if len(entry) > 4:
            io.tenant = entry[4]
            io.phase_index = entry[5]
        requests.append(io)
    return requests


def build_generator(generator: str, params: Dict[str, Any]) -> List[IORequest]:
    """Run the named generator with its (already thawed) keyword params.

    Handles the kinds shared by every spec layer: ``random``,
    ``sequential``, ``mixed``, ``datacenter`` and ``inline``.  The
    ``scenario`` kind of :class:`WorkloadSpec` stays with its layer.
    ``params`` is consumed destructively; pass a copy.
    """
    if generator == "random":
        return generate_random_workload(
            params.pop("num_requests"), params.pop("size_bytes"), **params
        )
    if generator == "sequential":
        return generate_sequential_workload(
            params.pop("num_requests"), params.pop("size_bytes"), **params
        )
    if generator == "mixed":
        return generate_mixed_workload(SyntheticWorkloadConfig(**params))
    if generator == "datacenter":
        return generate_datacenter_trace(params.pop("name"), **params)
    if generator == "inline":
        return thaw_requests(params["requests"])
    raise ValueError(f"unknown workload generator {generator!r}")
