"""The canonical performance suite.

Seven pinned-seed workloads chosen to cover every layer the simulator's hot
path flows through, at two sizes:

========  =============================================================
case      exercises
========  =============================================================
figure06  the trace-driven figure grid (3 traces x VAS/PAS/SPK3)
transfer  large sequential transfers - long per-I/O request chains
array4    a 4-device array cell - many small per-device simulations
bursty    the MMPP multi-tenant scenario - queue backlog + FARO bursts
aged      a steady-state aged device - GC firing on every write
gcheavy   a 95%-prefilled fragmented device under random overwrites
zoo       a heterogeneous 2-device zoo array (mlc-gen2 + tlc-gen3)
========  =============================================================

Every case is a tuple of ordinary :class:`~repro.experiments.spec.SimJob`
objects, so a case runs exactly the code path the experiment engine runs in
production.  Seeds, geometry and request counts are pinned: the quick cases'
workload fingerprints and result digests are goldens
(``tests/data/perf_golden.json``) that every commit must reproduce.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.experiments import figure06
from repro.experiments.runner import ExperimentScale
from repro.experiments.spec import ArraySpec, SimJob, WorkloadSpec
from repro.scenarios.library import (
    aged_device_state,
    bursty_multitenant_scenario,
    sustained_write_scenario,
    zoo_probe_scenario,
)
from repro.sim.config import SimulationConfig

KB = 1024
MB = 1024 * KB

#: Recognised suite sizes.  ``quick`` cases are digest goldens (seconds per
#: case); ``full`` cases are four times larger (tens of seconds per case).
SUITE_SCALES = ("quick", "full")


@dataclass(frozen=True)
class PerfCase:
    """One named, pinned-seed member of the canonical suite."""

    name: str
    description: str
    jobs: Tuple[SimJob, ...]

    def fingerprint(self) -> str:
        """Stable content hash over every job in the case.

        A golden result digest applies only while the fingerprint matches -
        i.e. the workloads, configs and schedulers behind it are the same.
        """
        from repro.sim.config import stable_fingerprint

        return stable_fingerprint(
            ("perf-case", self.name, tuple(job.fingerprint() for job in self.jobs))
        )


def _scale_factor(scale: str) -> int:
    if scale not in SUITE_SCALES:
        raise ValueError(f"unknown suite scale {scale!r}; expected one of {SUITE_SCALES}")
    return 1 if scale == "quick" else 4


def _figure06_case(factor: int) -> PerfCase:
    spec = figure06.build_spec(
        ExperimentScale(
            requests_per_trace=40 * factor,
            requests_per_point=12,
            num_chips=64,
            traces=("cfs0", "msnfs1", "proj0"),
            seed=7,
        )
    )
    return PerfCase(
        name="figure06",
        description="trace grid: 3 datacenter traces x VAS/PAS/SPK3, 64 chips",
        jobs=spec.jobs,
    )


def _transfer_case(factor: int) -> PerfCase:
    config = SimulationConfig.paper_scale(64)
    workload = WorkloadSpec.random(
        "transfer-512k",
        num_requests=24 * factor,
        size_bytes=512 * KB,
        seed=7,
    )
    jobs = tuple(
        SimJob(workload=workload, scheduler=scheduler, config=config, key=(scheduler,))
        for scheduler in ("VAS", "SPK3")
    )
    return PerfCase(
        name="transfer",
        description="512 KB random transfers under VAS and SPK3, 64 chips",
        jobs=jobs,
    )


def _array_case(factor: int) -> PerfCase:
    config = SimulationConfig.paper_scale(16)
    workload = WorkloadSpec.random(
        "array-base",
        num_requests=48 * factor,
        size_bytes=128 * KB,
        seed=7,
    )
    spec = ArraySpec(
        workload=workload,
        num_devices=4,
        scheduler="SPK3",
        config=config,
        policy="stripe",
        key=("array4",),
    )
    return PerfCase(
        name="array4",
        description="4-device striped array, SPK3, 16 chips per device",
        jobs=spec.device_jobs(),
    )


def _bursty_case(factor: int) -> PerfCase:
    config = SimulationConfig.paper_scale(64)
    scenario = bursty_multitenant_scenario(requests_per_tenant=32 * factor, seed=11)
    job = SimJob(
        workload=WorkloadSpec.scenario(scenario),
        scheduler="SPK3",
        config=config,
        key=("bursty",),
    )
    return PerfCase(
        name="bursty",
        description="MMPP multi-tenant burst scenario under SPK3, 64 chips",
        jobs=(job,),
    )


def _aged_case(factor: int) -> PerfCase:
    base = SimulationConfig.paper_scale(64)
    geometry = base.geometry.scaled(blocks_per_plane=16, pages_per_block=32)
    state = aged_device_state(steady_state=True, seed=11)
    logical = int(geometry.total_pages * (1.0 - 0.15))
    live_bytes = int(logical * state.fill_fraction * geometry.page_size_bytes)
    scenario = sustained_write_scenario(
        num_requests=64 * factor,
        size_bytes=16 * KB,
        address_space_bytes=max(live_bytes, 64 * KB),
        seed=11,
    )
    config = base.with_overrides(
        geometry=geometry,
        gc_enabled=True,
        overprovisioning_fraction=0.15,
        device_state=state,
    )
    job = SimJob(
        workload=WorkloadSpec.scenario(scenario),
        scheduler="SPK3",
        config=config,
        key=("aged",),
    )
    return PerfCase(
        name="aged",
        description="steady-state aged device, sustained overwrites, SPK3",
        jobs=(job,),
    )


def _gc_heavy_case(factor: int) -> PerfCase:
    base = SimulationConfig.paper_scale(64)
    geometry = base.geometry.scaled(blocks_per_plane=16, pages_per_block=32)
    config = base.with_overrides(
        geometry=geometry,
        gc_enabled=True,
        prefill_fraction=0.95,
    )
    address_space = int(geometry.total_pages * geometry.page_size_bytes * 0.5)
    workload = WorkloadSpec.mixed(
        "gc-overwrites",
        num_requests=64 * factor,
        size_bytes=16 * KB,
        address_space_bytes=address_space,
        read_fraction=0.1,
        randomness=1.0,
        interarrival_ns=2_000,
        seed=7,
    )
    job = SimJob(workload=workload, scheduler="SPK3", config=config, key=("gcheavy",))
    return PerfCase(
        name="gcheavy",
        description="95%-prefilled fragmented device, write-heavy random I/O",
        jobs=(job,),
    )


def _zoo_case(factor: int) -> PerfCase:
    spec = ArraySpec(
        workload=WorkloadSpec.scenario(
            zoo_probe_scenario(num_requests=48 * factor, seed=11)
        ),
        num_devices=2,
        scheduler="SPK3",
        devices=("mlc-gen2", "tlc-gen3"),
        policy="stripe",
        key=("zoo",),
    )
    return PerfCase(
        name="zoo",
        description="heterogeneous zoo array: mlc-gen2 + tlc-gen3 under SPK3",
        jobs=spec.device_jobs(),
    )


def canonical_suite(scale: str = "quick") -> Tuple[PerfCase, ...]:
    """The seven canonical cases at the requested ``quick``/``full`` size."""
    factor = _scale_factor(scale)
    return (
        _figure06_case(factor),
        _transfer_case(factor),
        _array_case(factor),
        _bursty_case(factor),
        _aged_case(factor),
        _gc_heavy_case(factor),
        _zoo_case(factor),
    )


def tiny_suite() -> Tuple[PerfCase, ...]:
    """Miniature pinned-seed cases used by the bit-identity regression tests.

    Same layers as the canonical suite (scheduler grid, array, scenario,
    aged device, GC pressure, heterogeneous zoo array) but sized to run in
    well under a second each:
    their result digests are recorded as goldens
    (``tests/data/perf_golden.json``) so any change to simulation semantics
    - intended or not - shows up as a digest mismatch in the test suite,
    not just in a slow benchmark run.
    """
    grid_config = SimulationConfig.paper_scale(16)
    mixed = WorkloadSpec.mixed(
        "tiny-mixed",
        num_requests=16,
        size_bytes=64 * KB,
        read_fraction=0.5,
        seed=7,
    )
    grid = PerfCase(
        name="tiny-grid",
        description="16-request mixed workload under VAS/PAS/SPK3, 16 chips",
        jobs=tuple(
            SimJob(workload=mixed, scheduler=scheduler, config=grid_config, key=(scheduler,))
            for scheduler in ("VAS", "PAS", "SPK3")
        ),
    )
    array = PerfCase(
        name="tiny-array",
        description="2-device striped array over 12 random requests",
        jobs=ArraySpec(
            workload=WorkloadSpec.random(
                "tiny-array-base", num_requests=12, size_bytes=64 * KB, seed=7
            ),
            num_devices=2,
            scheduler="SPK3",
            config=SimulationConfig.paper_scale(8),
            key=("tiny-array",),
        ).device_jobs(),
    )
    scenario = PerfCase(
        name="tiny-bursty",
        description="8-request-per-tenant bursty scenario under SPK3",
        jobs=(
            SimJob(
                workload=WorkloadSpec.scenario(
                    bursty_multitenant_scenario(requests_per_tenant=8, seed=11)
                ),
                scheduler="SPK3",
                config=SimulationConfig.paper_scale(16),
                key=("tiny-bursty",),
            ),
        ),
    )
    base = SimulationConfig.paper_scale(8)
    aged_geometry = base.geometry.scaled(blocks_per_plane=8, pages_per_block=16)
    state = aged_device_state(steady_state=False, seed=11)
    live_bytes = int(
        aged_geometry.total_pages * 0.85 * state.fill_fraction * aged_geometry.page_size_bytes
    )
    aged = PerfCase(
        name="tiny-aged",
        description="aged 8-chip device under 16 sustained overwrites",
        jobs=(
            SimJob(
                workload=WorkloadSpec.scenario(
                    sustained_write_scenario(
                        num_requests=16,
                        size_bytes=4 * KB,
                        address_space_bytes=max(live_bytes, 16 * KB),
                        seed=11,
                    )
                ),
                scheduler="SPK3",
                config=base.with_overrides(
                    geometry=aged_geometry,
                    gc_enabled=True,
                    overprovisioning_fraction=0.15,
                    device_state=state,
                ),
                key=("tiny-aged",),
            ),
        ),
    )
    gc_config = base.with_overrides(
        geometry=aged_geometry, gc_enabled=True, prefill_fraction=0.95
    )
    zoo = PerfCase(
        name="tiny-zoo",
        description="heterogeneous slc-gen1 + mlc-gen1 array over 12 requests",
        jobs=ArraySpec(
            workload=WorkloadSpec.random(
                "tiny-zoo-base",
                num_requests=12,
                size_bytes=64 * KB,
                address_space_bytes=64 * MB,
                seed=7,
            ),
            num_devices=2,
            scheduler="SPK3",
            devices=("slc-gen1", "mlc-gen1"),
            key=("tiny-zoo",),
        ).device_jobs(),
    )
    gc_pressure = PerfCase(
        name="tiny-gc",
        description="95%-prefilled 8-chip device under 16 random overwrites",
        jobs=(
            SimJob(
                workload=WorkloadSpec.mixed(
                    "tiny-gc-overwrites",
                    num_requests=16,
                    size_bytes=4 * KB,
                    address_space_bytes=int(
                        aged_geometry.total_pages * aged_geometry.page_size_bytes * 0.5
                    ),
                    read_fraction=0.1,
                    seed=7,
                ),
                scheduler="SPK3",
                config=gc_config,
                key=("tiny-gc",),
            ),
        ),
    )
    return (grid, array, scenario, aged, gc_pressure, zoo)
