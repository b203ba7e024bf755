"""Synthetic data-center traces matching Table 1 of the paper.

The paper evaluates sixteen block traces from public repositories
(MSR Cambridge via SNIA IOTTA): corporate mail file server (cfs0-4),
hardware monitor (hm0-1), MSN file storage server (msnfs0-3) and project
directory service (proj0-4).  The raw traces are many GB and not
redistributable, so this module synthesises traces whose *summary
statistics* match the ones Table 1 reports:

* total transfer size split between reads and writes,
* number of read/write instructions (hence average request sizes),
* randomness of the issued reads and writes,
* a qualitative transactional-locality class (low / medium / high) that we
  map onto the probability that a request lands in the address neighbourhood
  of a recent request (which, after striping, creates same-chip /
  different-die-or-plane accesses - precisely what FARO exploits).

Volumes are scaled down (default 1/2048 of the paper's byte counts) so a
full 16-trace scheduler comparison finishes in minutes of CPU time; the
scale factor is a parameter, so the full-size traces can be generated when
time permits.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional

from repro.workloads.request import IOKind, IORequest

KB = 1024
MB = 1024 * KB

#: Locality class -> probability that a request clusters near a recent one.
LOCALITY_PROBABILITY = {"low": 0.10, "medium": 0.35, "high": 0.65}

#: How far a "local" request may stray from the request it clusters around:
#: after channel/way striping it stays on the same chip but on different
#: dies/planes.
LOCALITY_WINDOW_BYTES = 512 * KB

#: Logical address space a trace spans, the alignment of its offsets and
#: sizes, and the gap between arrivals.
ADDRESS_SPACE_BYTES = 512 * MB
PAGE_BYTES = 2 * KB
INTERARRIVAL_NS = 3_000


@dataclass(frozen=True)
class TraceProfile:
    """Summary statistics of one trace, straight out of Table 1."""

    name: str
    read_mb: float
    write_mb: float
    read_instructions: int
    write_instructions: int
    read_randomness: float
    write_randomness: float
    locality: str

    @property
    def total_instructions(self) -> int:
        """Total I/O instruction count of the (unscaled) trace."""
        return self.read_instructions + self.write_instructions

    @property
    def read_fraction(self) -> float:
        """Fraction of instructions that are reads."""
        if self.total_instructions == 0:
            return 0.0
        return self.read_instructions / self.total_instructions

    @property
    def avg_read_bytes(self) -> int:
        """Average read request size implied by Table 1."""
        if self.read_instructions == 0:
            return 4 * KB
        return max(2 * KB, int(self.read_mb * MB / self.read_instructions))

    @property
    def avg_write_bytes(self) -> int:
        """Average write request size implied by Table 1."""
        if self.write_instructions == 0:
            return 4 * KB
        return max(2 * KB, int(self.write_mb * MB / self.write_instructions))

    @property
    def locality_probability(self) -> float:
        """Clustering probability corresponding to the locality class."""
        return LOCALITY_PROBABILITY[self.locality]


# Table 1 of the paper.  Instruction counts are given in thousands in the
# table ("Numbers of Instructions"); we keep them in thousands here and
# scale when generating.
_TABLE1: Dict[str, TraceProfile] = {
    profile.name: profile
    for profile in [
        TraceProfile("cfs0", 3607, 1692, 406_000, 135_000, 0.9279, 0.8659, "low"),
        TraceProfile("cfs1", 2955, 1773, 385_000, 130_000, 0.9401, 0.8612, "medium"),
        TraceProfile("cfs2", 2904, 1845, 384_000, 135_000, 0.9428, 0.8595, "low"),
        TraceProfile("cfs3", 3143, 1649, 387_000, 132_000, 0.9397, 0.8670, "high"),
        TraceProfile("cfs4", 3600, 1660, 401_000, 132_000, 0.9260, 0.8659, "high"),
        TraceProfile("hm0", 10445, 21471, 1_417_000, 2_575_000, 0.9420, 0.9284, "medium"),
        TraceProfile("hm1", 8670, 567, 580_000, 28_000, 0.9829, 0.9859, "medium"),
        TraceProfile("msnfs0", 1971, 30519, 41_000, 1_467_000, 0.9979, 0.8723, "low"),
        TraceProfile("msnfs1", 17661, 17722, 121_000, 2_100_000, 0.8880, 0.6671, "low"),
        TraceProfile("msnfs2", 92772, 24835, 9_624_000, 3_003_000, 0.9813, 0.9997, "high"),
        TraceProfile("msnfs3", 5, 2387, 1_000, 5_000, 0.2252, 0.6479, "high"),
        TraceProfile("proj0", 9407, 151274, 527_000, 3_697_000, 0.9205, 0.7931, "medium"),
        TraceProfile("proj1", 786810, 2496, 2_496_000, 21_142_000, 0.8234, 0.9688, "medium"),
        TraceProfile("proj2", 1065308, 176879, 25_641_000, 3_624_000, 0.7874, 0.9393, "low"),
        TraceProfile("proj3", 19123, 2754, 2_128_000, 116_000, 0.7501, 0.8837, "medium"),
        TraceProfile("proj4", 150604, 1058, 6_369_000, 95_000, 0.8439, 0.9552, "medium"),
    ]
}

DATACENTER_TRACE_NAMES = tuple(_TABLE1.keys())


def datacenter_profile(name: str) -> TraceProfile:
    """Look up the Table 1 profile for a trace name."""
    try:
        return _TABLE1[name]
    except KeyError as exc:
        raise KeyError(
            f"unknown trace {name!r}; available traces: {', '.join(DATACENTER_TRACE_NAMES)}"
        ) from exc


def trace_table_row(name: str) -> Dict[str, object]:
    """Return a Table 1 row as a dictionary (used by the table 1 experiment)."""
    profile = datacenter_profile(name)
    return {
        "trace": profile.name,
        "read_mb": profile.read_mb,
        "write_mb": profile.write_mb,
        "read_instructions": profile.read_instructions,
        "write_instructions": profile.write_instructions,
        "read_randomness_pct": round(profile.read_randomness * 100.0, 2),
        "write_randomness_pct": round(profile.write_randomness * 100.0, 2),
        "locality": profile.locality,
    }


def _choose_size(rng: random.Random, avg_bytes: int, align: int) -> int:
    """Draw a request size around the trace's average, aligned to pages."""
    # Log-normal-ish spread: most requests near the average, a tail of large ones.
    factor = rng.choice((0.5, 0.75, 1.0, 1.0, 1.0, 1.5, 2.0, 4.0))
    size = max(align, int(avg_bytes * factor))
    return ((size + align - 1) // align) * align


def generate_datacenter_trace(
    name: str,
    *,
    num_requests: int = 512,
    seed: Optional[int] = None,
) -> List[IORequest]:
    """Synthesise ``num_requests`` I/Os whose statistics follow Table 1.

    ``num_requests`` replaces the paper's full instruction counts (which run
    into the millions); the read/write mix, size distribution, randomness and
    locality all follow the per-trace profile.  Offsets fall in the first
    :data:`ADDRESS_SPACE_BYTES` and are aligned to :data:`PAGE_BYTES`;
    requests arrive every :data:`INTERARRIVAL_NS`.
    """
    profile = datacenter_profile(name)
    rng = random.Random(seed if seed is not None else hash(name) & 0xFFFF)
    requests: List[IORequest] = []
    max_offset = ADDRESS_SPACE_BYTES - 8 * MB
    read_cursor = _aligned(rng.randint(0, max_offset), PAGE_BYTES)
    write_cursor = _aligned(rng.randint(0, max_offset), PAGE_BYTES)
    recent_offsets: Deque[int] = deque(maxlen=16)
    now = 0
    for _ in range(num_requests):
        is_read = rng.random() < profile.read_fraction
        kind = IOKind.READ if is_read else IOKind.WRITE
        randomness = profile.read_randomness if is_read else profile.write_randomness
        avg_bytes = profile.avg_read_bytes if is_read else profile.avg_write_bytes
        size = _choose_size(rng, avg_bytes, PAGE_BYTES)
        size = min(size, 4 * MB)

        if recent_offsets and rng.random() < profile.locality_probability:
            # Cluster near a recent request: same stripe group, different page.
            anchor = rng.choice(recent_offsets)
            delta = rng.randint(1, max(1, LOCALITY_WINDOW_BYTES // PAGE_BYTES))
            offset = anchor + delta * PAGE_BYTES
        elif rng.random() < randomness:
            offset = rng.randint(0, max_offset)
        else:
            offset = read_cursor if is_read else write_cursor
        offset = _aligned(max(0, min(offset, max_offset)), PAGE_BYTES)

        if is_read:
            read_cursor = offset + size
        else:
            write_cursor = offset + size

        recent_offsets.append(offset)

        requests.append(
            IORequest(kind=kind, offset_bytes=offset, size_bytes=size, arrival_ns=now)
        )
        now += INTERARRIVAL_NS
    return requests


def _aligned(offset: int, align: int) -> int:
    return (offset // align) * align
