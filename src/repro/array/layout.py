"""Data placement across a multi-SSD array.

An :class:`ArrayLayout` describes how a host spreads one logical address
space over ``num_devices`` independent SSDs, and :func:`split_trace` applies
it: a single host I/O trace becomes one sub-trace per device, with offsets
translated into each device's local address space and I/O ids renumbered
``0..n-1`` per device.  The layer is pure bookkeeping - byte counts, request
kinds, arrival times and trace order are preserved exactly, so array-level
aggregates can be reconciled against the input trace.

Three placement policies are supported:

* ``stripe`` - RAID-0-style striping: the address space is cut into
  ``chunk_bytes`` stripe units assigned round-robin (unit ``u`` lives on
  device ``u % N`` at local unit ``u // N``).  Large requests fan out over
  many devices; small ones land on a single device.
* ``range`` - contiguous range sharding: the touched space (up to the
  highest offset the trace reaches) is cut into ``N`` equal shards, each
  rounded up to a ``chunk_bytes`` multiple, and each device owns one, so
  spatial locality stays intact but a skewed trace loads devices unevenly.
* ``hash`` - hashed chunk placement: each ``chunk_bytes`` chunk is assigned
  by a deterministic integer hash of its index, breaking up pathological
  striding.  Chunks are packed densely into each device's local space in
  ascending chunk order.

A request that crosses a placement boundary is split into per-device
fragments (adjacent fragments on the same device are re-merged), mirroring
what a host volume manager does before queueing per-device commands.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.workloads.request import IORequest

KB = 1024

#: Placement policies understood by :func:`split_trace`.
PLACEMENT_POLICIES = ("stripe", "range", "hash")

_MASK64 = (1 << 64) - 1


def _mix64(value: int) -> int:
    """SplitMix64 finaliser: a deterministic, well-spread 64-bit hash.

    Python's builtin ``hash`` is identity on small ints (terrible spread for
    sequential chunk indices) and salted for other types, so the array layer
    carries its own mixer to keep placement stable across processes.
    """
    value = (value + 0x9E3779B97F4A7C15) & _MASK64
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & _MASK64
    return value ^ (value >> 31)


@dataclass(frozen=True)
class ArrayLayout:
    """How one logical address space maps onto ``num_devices`` SSDs."""

    num_devices: int
    policy: str = "stripe"
    #: Stripe unit (``stripe``), placement chunk (``hash``) or shard
    #: alignment (``range``) in bytes.
    chunk_bytes: int = 64 * KB

    def __post_init__(self) -> None:
        if self.num_devices <= 0:
            raise ValueError("num_devices must be positive")
        if self.policy not in PLACEMENT_POLICIES:
            raise ValueError(
                f"unknown placement policy {self.policy!r}; expected one of {PLACEMENT_POLICIES}"
            )
        if self.chunk_bytes <= 0:
            raise ValueError("chunk_bytes must be positive")


#: One placement fragment: ``(device, device_local_offset, size_bytes)``.
_Fragment = Tuple[int, int, int]


def _stripe_fragments(io: IORequest, layout: ArrayLayout) -> List[_Fragment]:
    """Cut a request at stripe-unit boundaries, round-robin across devices."""
    fragments: List[_Fragment] = []
    chunk = layout.chunk_bytes
    offset = io.offset_bytes
    remaining = io.size_bytes
    while remaining > 0:
        unit = offset // chunk
        within = offset - unit * chunk
        take = min(remaining, chunk - within)
        device = unit % layout.num_devices
        local = (unit // layout.num_devices) * chunk + within
        fragments.append((device, local, take))
        offset += take
        remaining -= take
    return fragments


def _range_fragments(io: IORequest, shard_bytes: int) -> List[_Fragment]:
    """Cut a request at shard boundaries.

    ``shard_bytes`` comes from :func:`_derived_shard_bytes`, so the shards
    cover every byte of the trace and each fragment has a device.
    """
    fragments: List[_Fragment] = []
    offset = io.offset_bytes
    remaining = io.size_bytes
    while remaining > 0:
        device = offset // shard_bytes
        shard_start = device * shard_bytes
        take = min(remaining, shard_start + shard_bytes - offset)
        fragments.append((device, offset - shard_start, take))
        offset += take
        remaining -= take
    return fragments


def _hash_fragments(
    io: IORequest, layout: ArrayLayout, local_chunk_index: Dict[int, int]
) -> List[_Fragment]:
    """Cut a request at chunk boundaries, placing each chunk by its hash."""
    fragments: List[_Fragment] = []
    chunk = layout.chunk_bytes
    offset = io.offset_bytes
    remaining = io.size_bytes
    while remaining > 0:
        unit = offset // chunk
        within = offset - unit * chunk
        take = min(remaining, chunk - within)
        device = _mix64(unit) % layout.num_devices
        local = local_chunk_index[unit] * chunk + within
        fragments.append((device, local, take))
        offset += take
        remaining -= take
    return fragments


def _merge_adjacent(fragments: Iterable[_Fragment], num_devices: int) -> List[_Fragment]:
    """Re-merge fragments of one request that are byte-adjacent on a device.

    Striped fragments alternate devices, but a request's fragments on any
    single device form an ascending local-offset sequence, so merging is
    done per device (e.g. stripe units ``0,2`` of one request on device 0
    become one contiguous local extent).
    """
    per_device: List[List[_Fragment]] = [[] for _ in range(num_devices)]
    order: List[int] = []
    for device, local, size in fragments:
        bucket = per_device[device]
        if bucket and bucket[-1][1] + bucket[-1][2] == local:
            _, prev_local, prev_size = bucket[-1]
            bucket[-1] = (device, prev_local, prev_size + size)
        else:
            if not bucket:
                order.append(device)
            bucket.append((device, local, size))
    return [fragment for device in order for fragment in per_device[device]]


def _derived_shard_bytes(requests: Sequence[IORequest], layout: ArrayLayout) -> int:
    """Smallest equal split of the touched address range, chunk-aligned up."""
    highest = max((io.end_offset_bytes for io in requests), default=0)
    shard = -(-max(highest, 1) // layout.num_devices)  # ceil division
    # Round up to a chunk multiple so shard edges line up with stripe units.
    return -(-shard // layout.chunk_bytes) * layout.chunk_bytes


def _hash_chunk_directory(
    requests: Sequence[IORequest], layout: ArrayLayout
) -> Dict[int, int]:
    """Dense per-device local index for every chunk the trace touches.

    Chunks assigned to a device are packed in ascending global chunk order,
    so consecutive chunks that hash to the same device stay contiguous in
    its local space and the directory is identical for any process that
    sees the same trace.
    """
    chunk = layout.chunk_bytes
    touched = set()
    for io in requests:
        touched.update(range(io.offset_bytes // chunk, (io.end_offset_bytes - 1) // chunk + 1))
    next_local = [0] * layout.num_devices
    directory: Dict[int, int] = {}
    for unit in sorted(touched):
        device = _mix64(unit) % layout.num_devices
        directory[unit] = next_local[device]
        next_local[device] += 1
    return directory


def split_trace(requests: Sequence[IORequest], layout: ArrayLayout) -> List[List[IORequest]]:
    """Split one host trace into per-device sub-traces.

    Returns ``layout.num_devices`` request lists (some possibly empty).  Each
    sub-trace preserves the original arrival order and timestamps, carries
    device-local offsets, and is renumbered ``io_id = 0..n-1`` so every
    device run is independent of how the trace was split.  Total bytes and
    request kinds are conserved: a boundary-crossing request contributes one
    fragment request per (device, contiguous local extent) it touches.
    """
    if layout.policy == "range":
        shard_bytes = _derived_shard_bytes(requests, layout)
    if layout.policy == "hash":
        directory = _hash_chunk_directory(requests, layout)

    per_device: List[List[IORequest]] = [[] for _ in range(layout.num_devices)]
    for io in requests:
        if layout.policy == "stripe":
            fragments = _stripe_fragments(io, layout)
        elif layout.policy == "range":
            fragments = _range_fragments(io, shard_bytes)
        else:
            fragments = _hash_fragments(io, layout, directory)
        for device, local, size in _merge_adjacent(fragments, layout.num_devices):
            per_device[device].append(
                IORequest(
                    kind=io.kind,
                    offset_bytes=local,
                    size_bytes=size,
                    arrival_ns=io.arrival_ns,
                    # Provenance tags survive the split so per-device
                    # attribution can be merged back per tenant (the tags
                    # are observational and never enter fingerprints).
                    tenant=io.tenant,
                    phase_index=io.phase_index,
                )
            )
    for sub_trace in per_device:
        for index, io in enumerate(sub_trace):
            io.io_id = index
    return per_device
