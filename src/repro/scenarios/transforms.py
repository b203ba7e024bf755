"""Composable trace transforms.

Pure functions over ``List[IORequest]``: every transform returns *new*
request objects (fresh ``io_id``s, inputs untouched), so transforms chain
freely and never alias the stream they were fed.  They are the building
blocks :class:`~repro.scenarios.scenario.Scenario` composes - multi-tenant
interleaving, time dilation and per-tenant address remapping - and are
equally usable standalone on any request list.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.workloads.request import IORequest


def copy_request(io: IORequest, **overrides) -> IORequest:
    """Value-copy one request (fresh ``io_id``), optionally overriding fields."""
    fields = {
        "kind": io.kind,
        "offset_bytes": io.offset_bytes,
        "size_bytes": io.size_bytes,
        "arrival_ns": io.arrival_ns,
        "tenant": io.tenant,
        "phase_index": io.phase_index,
    }
    fields.update(overrides)
    return IORequest(**fields)


def merge_streams(streams: Sequence[Sequence[IORequest]]) -> List[IORequest]:
    """Interleave N tenant streams into one multi-tenant trace.

    Requests are ordered by ``(arrival_ns, stream index, position within the
    stream)`` - the explicit tie-break keeps simultaneous arrivals from
    different tenants in a deterministic order in every process, which is
    what lets merged scenarios flow through the result cache bit-identically.
    """
    tagged = [
        (io.arrival_ns, stream_index, position, io)
        for stream_index, stream in enumerate(streams)
        for position, io in enumerate(stream)
    ]
    tagged.sort(key=lambda entry: entry[:3])
    return [copy_request(io) for _, _, _, io in tagged]


def time_dilate(requests: Sequence[IORequest], factor: float) -> List[IORequest]:
    """Stretch (``factor > 1``) or compress (``factor < 1``) arrival times.

    The map is monotone, so request order is preserved; offsets, sizes and
    kinds are untouched.  Compressing a long trace raises its offered load
    without changing *what* is accessed - the standard replay-acceleration
    knob of trace-driven SSD studies.
    """
    if factor <= 0:
        raise ValueError("dilation factor must be positive")
    return [
        copy_request(io, arrival_ns=int(io.arrival_ns * factor)) for io in requests
    ]


def remap_offsets(
    requests: Sequence[IORequest],
    *,
    base_bytes: int,
    span_bytes: int,
    align_bytes: int = 1,
) -> List[IORequest]:
    """Relocate a stream into the address slice ``[base, base + span)``.

    Each offset is wrapped modulo ``span_bytes``, aligned down to an
    ``align_bytes`` boundary and rebased to ``base_bytes``; a request poking
    past the end of the slice is clamped to the remaining whole
    ``align_bytes`` units (never fewer than one), so remapping can never
    manufacture sub-sector requests.  ``span_bytes`` must be a multiple of
    ``align_bytes``.  Giving every tenant a disjoint slice turns
    independently generated streams into a multi-tenant workload without
    cross-tenant overwrites.
    """
    if base_bytes < 0:
        raise ValueError("base_bytes must be non-negative")
    if align_bytes <= 0:
        raise ValueError("align_bytes must be positive")
    if span_bytes < align_bytes or span_bytes % align_bytes != 0:
        raise ValueError("span_bytes must be a positive multiple of align_bytes")
    remapped: List[IORequest] = []
    for io in requests:
        local = io.offset_bytes % span_bytes // align_bytes * align_bytes
        size = io.size_bytes
        if local + size > span_bytes:
            size = max(align_bytes, (span_bytes - local) // align_bytes * align_bytes)
        remapped.append(
            copy_request(io, offset_bytes=base_bytes + local, size_bytes=size)
        )
    return remapped
