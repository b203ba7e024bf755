"""The scenario DSL: ordered phases of multi-tenant, arrival-shaped traffic.

A :class:`Scenario` is declarative data all the way down::

    Scenario(
        name="burst-after-warmup",
        phases=(
            Phase(
                name="warmup",
                tenants=(Tenant.random("ten-a", num_requests=64, size_bytes=16 * KB),),
                arrivals=PoissonArrivals(mean_interarrival_ns=4_000),
            ),
            Phase(
                name="burst",
                tenants=(
                    Tenant.random("ten-a", num_requests=64, size_bytes=16 * KB,
                                  address_base_bytes=0, address_span_bytes=64 * MB),
                    Tenant.sequential("ten-b", num_requests=64, size_bytes=128 * KB,
                                      address_base_bytes=64 * MB, address_span_bytes=64 * MB),
                ),
                arrivals=BurstyArrivals(),
            ),
        ),
    )

Building a scenario is deterministic for its ``seed``: every tenant stream
is generated by a seed-deterministic workload generator, its arrival times
are replaced by samples from the phase's :class:`ArrivalProcess` (each
tenant drawing from its own derived RNG substream), tenants are interleaved
with a deterministic tie-break, the phase's time dilation is applied, and
phases are concatenated on the time axis.
Because every piece is a frozen dataclass of primitives, a scenario is
hashable, picklable and content-fingerprintable - it rides through
:class:`~repro.experiments.spec.WorkloadSpec` and the execution engine's
result cache exactly like the built-in generators.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.scenarios.arrivals import ArrivalProcess
from repro.scenarios.characterize import WorkloadCharacterization, characterize
from repro.scenarios.transforms import (
    copy_request,
    merge_streams,
    remap_offsets,
    time_dilate,
)
from repro.sim.config import stable_fingerprint
from repro.workloads.build import build_generator
from repro.workloads.request import IORequest

KB = 1024
MB = 1024 * KB

#: Bump when scenario-building semantics change in a cache-invalidating way.
SCENARIO_VERSION = 1

#: Clamp granularity of a tenant's address-slice remap: a remapped request
#: is a whole number of these units.
REMAP_ALIGN_BYTES = 2 * KB


def _as_items(mapping: Optional[Mapping[str, Any]]) -> Tuple[Tuple[str, Any], ...]:
    if not mapping:
        return ()
    return tuple(sorted(mapping.items()))


def _derive_seed(*parts: int) -> int:
    """Mix integer parts into one RNG seed (FNV-style, process-independent)."""
    seed = 0xCBF29CE484222325
    for part in parts:
        seed ^= part & 0xFFFFFFFFFFFFFFFF
        seed = (seed * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return seed


@dataclass(frozen=True)
class Tenant:
    """One workload stream inside a phase.

    ``generator``/``params`` name a seed-deterministic source of request
    *shapes* (kinds, offsets, sizes) - the source's own arrival times are
    discarded and re-assigned by the phase's arrival process.  The optional
    ``address_base_bytes``/``address_span_bytes`` confine the tenant to its
    own slice of the logical address space (see
    :func:`~repro.scenarios.transforms.remap_offsets`), which is how
    independently generated streams become non-overlapping co-tenants,
    clamped to :data:`REMAP_ALIGN_BYTES` units (generator options such as
    ``align_bytes`` pass through to the source untouched).
    """

    generator: str
    name: str
    params: Tuple[Tuple[str, Any], ...]
    address_base_bytes: Optional[int] = None
    address_span_bytes: Optional[int] = None

    def __post_init__(self) -> None:
        if (self.address_base_bytes is None) != (self.address_span_bytes is None):
            raise ValueError("address_base_bytes and address_span_bytes go together")

    # -- constructors ---------------------------------------------------
    @classmethod
    def random(cls, name: str, *, num_requests: int, size_bytes: int, **extra) -> "Tenant":
        """Uniform-random-offset tenant."""
        remap, extra = cls._split_remap(extra)
        params = {"num_requests": num_requests, "size_bytes": size_bytes, **extra}
        return cls("random", name, _as_items(params), **remap)

    @classmethod
    def sequential(cls, name: str, *, num_requests: int, size_bytes: int, **extra) -> "Tenant":
        """Back-to-back sequential tenant."""
        remap, extra = cls._split_remap(extra)
        params = {"num_requests": num_requests, "size_bytes": size_bytes, **extra}
        return cls("sequential", name, _as_items(params), **remap)

    @classmethod
    def mixed(cls, name: str, **config_fields) -> "Tenant":
        """General synthetic tenant (:class:`SyntheticWorkloadConfig` fields)."""
        remap, config_fields = cls._split_remap(config_fields)
        return cls("mixed", name, _as_items(config_fields), **remap)

    @classmethod
    def datacenter(cls, trace_name: str, *, num_requests: int, seed: int, **extra) -> "Tenant":
        """A Table 1 data-center trace profile as a tenant."""
        remap, extra = cls._split_remap(extra)
        params = {"name": trace_name, "num_requests": num_requests, "seed": seed, **extra}
        return cls("datacenter", trace_name, _as_items(params), **remap)

    @staticmethod
    def _split_remap(extra: Dict[str, Any]) -> Tuple[Dict[str, Any], Dict[str, Any]]:
        """Pull the Tenant-level remap fields out of generator kwargs.

        Only the ``address_*`` names are claimed here; generator options
        that share spellings with remap concepts (``align_bytes`` on
        :class:`SyntheticWorkloadConfig`) stay in ``extra`` and reach the
        source generator.
        """
        remap_keys = ("address_base_bytes", "address_span_bytes")
        remap = {key: extra.pop(key) for key in remap_keys if key in extra}
        return remap, extra

    # -- materialisation -------------------------------------------------
    def build_stream(self) -> List[IORequest]:
        """Generate this tenant's request shapes (arrivals still the source's)."""
        requests = build_generator(self.generator, dict(self.params))
        if self.address_base_bytes is not None and self.address_span_bytes is not None:
            requests = remap_offsets(
                requests,
                base_bytes=self.address_base_bytes,
                span_bytes=self.address_span_bytes,
                align_bytes=REMAP_ALIGN_BYTES,
            )
        return requests


@dataclass(frozen=True)
class Phase:
    """One scenario stage: tenants bound to an arrival process.

    Every tenant's stream gets fresh arrival times from ``arrivals`` (each
    tenant sampling its own derived RNG substream), the streams are
    interleaved, and then the arrival times are dilated by ``time_scale``.
    """

    name: str
    tenants: Tuple[Tenant, ...]
    arrivals: ArrivalProcess
    time_scale: float = 1.0

    def __post_init__(self) -> None:
        if not self.tenants:
            raise ValueError(f"phase {self.name!r} needs at least one tenant")
        if self.time_scale <= 0:
            raise ValueError("time_scale must be positive")

    def build(self, scenario_seed: int, phase_index: int) -> List[IORequest]:
        """Materialise this phase on its own t=0 time axis."""
        streams: List[List[IORequest]] = []
        for tenant_index, tenant in enumerate(self.tenants):
            stream = tenant.build_stream()
            # The constant 0 is part of the mix every scenario trace was drawn with.
            rng = random.Random(_derive_seed(scenario_seed, 0, phase_index, tenant_index))
            times = self.arrivals.sample(len(stream), rng)
            # Stamp provenance here, where tenant identity still exists -
            # merge_streams interleaves the copies and would otherwise lose
            # it.  The tags are observational only (copy_request carries
            # them, freeze_requests drops them, fingerprints never see them).
            streams.append(
                [
                    copy_request(
                        io, arrival_ns=t, tenant=tenant.name, phase_index=phase_index
                    )
                    for io, t in zip(stream, times)
                ]
            )
        merged = merge_streams(streams)
        if self.time_scale != 1.0:
            merged = time_dilate(merged, self.time_scale)
        return merged


@dataclass(frozen=True)
class ScenarioReport:
    """Characterization stamped onto a built scenario: per phase + overall."""

    scenario: str
    overall: WorkloadCharacterization
    phases: Tuple[Tuple[str, WorkloadCharacterization], ...]

    def rows(self) -> List[Dict[str, object]]:
        """Printable rows (one per phase, then the overall roll-up)."""
        rows = [
            {"phase": name, **stats.summary_row()} for name, stats in self.phases
        ]
        rows.append({"phase": "(overall)", **self.overall.summary_row()})
        return rows


@dataclass(frozen=True)
class BuiltScenario:
    """A materialised scenario: the trace plus its characterization report."""

    requests: List[IORequest]
    report: ScenarioReport


@dataclass(frozen=True)
class Scenario:
    """An ordered sequence of phases forming one end-to-end workload.

    Phase k+1 starts at phase k's last arrival.  The built trace renumbers
    ``io_id`` 0..n-1, so a scenario built in any process is value-identical.
    """

    name: str
    phases: Tuple[Phase, ...]
    seed: int = 42

    def __post_init__(self) -> None:
        if not self.phases:
            raise ValueError(f"scenario {self.name!r} needs at least one phase")
        names = [phase.name for phase in self.phases]
        if len(set(names)) != len(names):
            raise ValueError(f"scenario {self.name!r} has duplicate phase names")

    def _build_phases(self) -> List[List[IORequest]]:
        """Build every phase, shifted onto the shared scenario time axis."""
        shifted: List[List[IORequest]] = []
        t0 = 0
        for index, phase in enumerate(self.phases):
            built = phase.build(self.seed, index)
            for io in built:
                io.arrival_ns += t0
            shifted.append(built)
            if built:
                t0 = built[-1].arrival_ns
        return shifted

    def build(self) -> List[IORequest]:
        """Materialise the scenario trace (deterministic for the seed)."""
        requests = [io for phase in self._build_phases() for io in phase]
        for index, io in enumerate(requests):
            io.io_id = index
        return requests

    def build_with_report(self) -> BuiltScenario:
        """Materialise the trace and stamp the characterization report on it."""
        per_phase = self._build_phases()
        requests = [io for phase in per_phase for io in phase]
        for index, io in enumerate(requests):
            io.io_id = index
        report = ScenarioReport(
            scenario=self.name,
            overall=characterize(requests),
            phases=tuple(
                (phase.name, characterize(built))
                for phase, built in zip(self.phases, per_phase)
            ),
        )
        return BuiltScenario(requests=requests, report=report)

    def report(self) -> ScenarioReport:
        """Just the characterization report (builds and discards the trace)."""
        return self.build_with_report().report

    def fingerprint(self) -> str:
        """Stable content hash over the whole scenario recipe."""
        return stable_fingerprint(("scenario", SCENARIO_VERSION, self))
