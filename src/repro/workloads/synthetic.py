"""Synthetic workload generators.

These generators drive the sensitivity studies of the paper:

* Figure 1 and Figure 15/16/17 sweep the *data transfer size* from 4 KB to
  4 MB with back-to-back requests (one random workload per size, declared
  by :func:`repro.experiments.figures.transfer_sweep`);
* the motivational examples use small bursts of mixed-size requests.

All generators are deterministic for a given seed so experiments are
reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List

from repro.workloads.request import IOKind, IORequest

KB = 1024
MB = 1024 * KB

#: Gap between the arrivals of :func:`generate_sequential_workload`.
SEQUENTIAL_INTERARRIVAL_NS = 2_000


@dataclass
class SyntheticWorkloadConfig:
    """Parameters of a synthetic workload.

    ``address_space_bytes`` bounds the logical address range; offsets are
    aligned to ``align_bytes`` (page size by default).  ``read_fraction``
    selects the read/write mix and ``randomness`` the fraction of requests
    whose offset is drawn uniformly at random (the rest continue
    sequentially from the previous request).
    """

    num_requests: int = 256
    size_bytes: int = 16 * KB
    address_space_bytes: int = 256 * MB
    align_bytes: int = 2 * KB
    read_fraction: float = 1.0
    randomness: float = 1.0
    interarrival_ns: int = 2_000
    seed: int = 42

    def __post_init__(self) -> None:
        if self.num_requests <= 0:
            raise ValueError("num_requests must be positive")
        if self.size_bytes <= 0:
            raise ValueError("size_bytes must be positive")
        if not 0.0 <= self.read_fraction <= 1.0:
            raise ValueError("read_fraction must be in [0, 1]")
        if not 0.0 <= self.randomness <= 1.0:
            raise ValueError("randomness must be in [0, 1]")
        if self.align_bytes <= 0:
            raise ValueError("align_bytes must be positive")
        if self.interarrival_ns < 0:
            raise ValueError("interarrival_ns must be non-negative")
        if self.address_space_bytes < self.size_bytes:
            raise ValueError("address space must be at least one request large")


def _aligned(offset: int, align: int) -> int:
    return (offset // align) * align


def generate_mixed_workload(config: SyntheticWorkloadConfig) -> List[IORequest]:
    """Generate a workload according to ``config`` (the general generator)."""
    rng = random.Random(config.seed)
    requests: List[IORequest] = []
    max_offset = config.address_space_bytes - config.size_bytes
    cursor = 0
    now = 0
    for _ in range(config.num_requests):
        kind = IOKind.READ if rng.random() < config.read_fraction else IOKind.WRITE
        if rng.random() < config.randomness or cursor > max_offset:
            offset = _aligned(rng.randint(0, max_offset), config.align_bytes)
        else:
            offset = _aligned(cursor, config.align_bytes)
        cursor = offset + config.size_bytes
        requests.append(
            IORequest(
                kind=kind,
                offset_bytes=offset,
                size_bytes=config.size_bytes,
                arrival_ns=now,
            )
        )
        now += config.interarrival_ns
    return requests


def generate_random_workload(
    num_requests: int,
    size_bytes: int,
    *,
    address_space_bytes: int = 256 * MB,
    read_fraction: float = 1.0,
    interarrival_ns: int = 2_000,
    seed: int = 42,
) -> List[IORequest]:
    """Uniform-random-offset workload (the paper's default stress pattern)."""
    config = SyntheticWorkloadConfig(
        num_requests=num_requests,
        size_bytes=size_bytes,
        address_space_bytes=address_space_bytes,
        read_fraction=read_fraction,
        randomness=1.0,
        interarrival_ns=interarrival_ns,
        seed=seed,
    )
    return generate_mixed_workload(config)


def generate_sequential_workload(
    num_requests: int,
    size_bytes: int,
    *,
    read_fraction: float = 1.0,
    seed: int = 42,
) -> List[IORequest]:
    """Back-to-back sequential workload used for the bandwidth sweeps.

    Request ``i`` covers ``[i * size_bytes, (i + 1) * size_bytes)`` and
    arrives at ``i * SEQUENTIAL_INTERARRIVAL_NS``.
    """
    rng = random.Random(seed)
    requests: List[IORequest] = []
    for index in range(num_requests):
        kind = IOKind.READ if rng.random() < read_fraction else IOKind.WRITE
        requests.append(
            IORequest(
                kind=kind,
                offset_bytes=index * size_bytes,
                size_bytes=size_bytes,
                arrival_ns=index * SEQUENTIAL_INTERARRIVAL_NS,
            )
        )
    return requests
