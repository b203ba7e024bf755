"""Canned scenarios: the default grid of the scenario-matrix experiment.

Four scheduler-stress archetypes the single-phase generators could not
express, each small enough to simulate in seconds yet shaped like the
pathologies the paper's data-center traces exhibit:

* ``steady``  - one phase of memoryless Poisson traffic from a single
  tenant; the control scenario closest to the legacy fixed-gap workloads.
* ``bursty``  - a Poisson warm-up phase followed by an MMPP burst phase in
  which two tenants (a random reader and a sequential writer), confined to
  disjoint address slices, are interleaved; stresses queue admission and
  FARO's ability to harvest parallelism inside bursts.
* ``diurnal`` - a data-center tenant and a random tenant riding a
  compressed sinusoidal rate curve; alternates overload and near-idle.
* ``sustained-write`` - relentless random overwrites, the *precondition-
  aware* scenario: pair it with :func:`aged_device_state` (the canned
  :class:`~repro.lifetime.state.DeviceState` it is calibrated for) so the
  writes land on live data of a full, fragmented drive and garbage
  collection runs for the whole measurement window - the steady-state
  regime of :mod:`repro.experiments.steady_state`.
"""

from __future__ import annotations

from typing import Tuple

from repro.lifetime.state import DeviceState
from repro.scenarios.arrivals import BurstyArrivals, DiurnalArrivals, PoissonArrivals
from repro.scenarios.scenario import Phase, Scenario, Tenant

KB = 1024
MB = 1024 * KB


def steady_scenario(*, requests_per_phase: int = 96, seed: int = 11) -> Scenario:
    """Single-tenant Poisson traffic (the control scenario)."""
    return Scenario(
        name="steady",
        seed=seed,
        phases=(
            Phase(
                name="steady",
                tenants=(
                    Tenant.random(
                        "uniform",
                        num_requests=requests_per_phase,
                        size_bytes=32 * KB,
                        address_space_bytes=128 * MB,
                        seed=seed,
                    ),
                ),
                arrivals=PoissonArrivals(mean_interarrival_ns=3_000),
            ),
        ),
    )


def bursty_multitenant_scenario(
    *, requests_per_tenant: int = 48, seed: int = 11
) -> Scenario:
    """Warm-up then an MMPP burst of two interleaved, range-isolated tenants."""
    reader = Tenant.random(
        "reader",
        num_requests=requests_per_tenant,
        size_bytes=16 * KB,
        address_space_bytes=256 * MB,
        seed=seed,
        address_base_bytes=0,
        address_span_bytes=64 * MB,
    )
    writer = Tenant.sequential(
        "writer",
        num_requests=requests_per_tenant,
        size_bytes=128 * KB,
        read_fraction=0.0,
        seed=seed + 1,
        address_base_bytes=64 * MB,
        address_span_bytes=64 * MB,
    )
    return Scenario(
        name="bursty",
        seed=seed,
        phases=(
            Phase(
                name="warmup",
                tenants=(reader,),
                arrivals=PoissonArrivals(mean_interarrival_ns=4_000),
            ),
            Phase(
                name="burst",
                tenants=(reader, writer),
                arrivals=BurstyArrivals(
                    burst_interarrival_ns=400.0,
                    idle_interarrival_ns=30_000.0,
                    mean_burst_length=12.0,
                    mean_idle_length=2.0,
                ),
            ),
        ),
    )


def diurnal_scenario(*, requests_per_tenant: int = 64, seed: int = 11) -> Scenario:
    """Data-center plus random tenants on a compressed day/night rate curve."""
    return Scenario(
        name="diurnal",
        seed=seed,
        phases=(
            Phase(
                name="cycle",
                tenants=(
                    Tenant.datacenter(
                        "cfs0",
                        num_requests=requests_per_tenant,
                        seed=seed,
                        address_base_bytes=0,
                        address_span_bytes=128 * MB,
                    ),
                    Tenant.random(
                        "background",
                        num_requests=requests_per_tenant,
                        size_bytes=8 * KB,
                        address_space_bytes=256 * MB,
                        seed=seed + 2,
                        address_base_bytes=128 * MB,
                        address_span_bytes=64 * MB,
                    ),
                ),
                arrivals=DiurnalArrivals(
                    base_interarrival_ns=2_500.0,
                    amplitude=0.85,
                    period_ns=120_000.0,
                ),
            ),
        ),
    )


def sustained_write_scenario(
    *,
    num_requests: int = 96,
    size_bytes: int = 16 * KB,
    address_space_bytes: int = 32 * MB,
    seed: int = 11,
) -> Scenario:
    """Sustained random overwrites - the preconditioning-aware workload.

    Pure writes, uniformly random over a *deliberately small* address
    window: run against a device aged with :func:`aged_device_state`, every
    request overwrites live data, so each write both consumes a fresh page
    and invalidates an old one - the traffic that keeps a full drive's
    garbage collector permanently busy.  Size ``address_space_bytes`` at or
    below the aged device's live capacity (``logical_pages * fill_fraction
    * page_size``); :mod:`repro.experiments.steady_state` computes that
    bound from the swept geometry.
    """
    return Scenario(
        name="sustained-write",
        seed=seed,
        phases=(
            Phase(
                name="sustain",
                tenants=(
                    Tenant.random(
                        "overwriter",
                        num_requests=num_requests,
                        size_bytes=size_bytes,
                        address_space_bytes=address_space_bytes,
                        read_fraction=0.0,
                        seed=seed,
                    ),
                ),
                arrivals=PoissonArrivals(mean_interarrival_ns=2_500),
            ),
        ),
    )


def zoo_probe_scenario(*, num_requests: int = 48, seed: int = 11) -> Scenario:
    """A device-portable probe for sweeping one workload across the zoo.

    Mixed read/write Poisson traffic confined to a 16 MB address window -
    small enough to fit the *logical* capacity of every shipped device in
    :mod:`repro.devices` (the smallest, ``slc-gen1``, exposes ~119 MB after
    over-provisioning), so the same scenario is byte-for-byte valid on all
    of them and cross-device comparisons measure the device, not workload
    truncation.
    """
    return Scenario(
        name="zoo-probe",
        seed=seed,
        phases=(
            Phase(
                name="probe",
                tenants=(
                    Tenant.random(
                        "prober",
                        num_requests=num_requests,
                        size_bytes=16 * KB,
                        address_space_bytes=16 * MB,
                        read_fraction=0.5,
                        seed=seed,
                    ),
                ),
                arrivals=PoissonArrivals(mean_interarrival_ns=3_000),
            ),
        ),
    )


def fleet_scenario(*, requests_per_tenant: int = 32, seed: int = 11) -> Scenario:
    """Four range-isolated tenants over a day/night cycle - the fleet workload.

    Built for :mod:`repro.fleet`: enough distinct tenants that every
    placement policy produces a different assignment, with each tenant
    confined to its own 16 MB slice of a 64 MB window, so any subset of
    tenants fits the logical capacity of every shipped zoo device
    (heterogeneous fleets stay valid whatever the placement).  A diurnal
    "day" phase carries the interactive web and key-value tenants; a bursty
    "night" phase adds the analytics scanner and log writer while the
    key-value store keeps running - the valleys between night bursts are
    what the background scheduler aims for.
    """
    web = Tenant.mixed(
        "web",
        num_requests=requests_per_tenant,
        size_bytes=16 * KB,
        address_space_bytes=64 * MB,
        read_fraction=0.9,
        randomness=0.8,
        seed=seed,
        address_base_bytes=0,
        address_span_bytes=16 * MB,
    )
    kv = Tenant.random(
        "kv",
        num_requests=requests_per_tenant,
        size_bytes=8 * KB,
        address_space_bytes=64 * MB,
        read_fraction=0.7,
        seed=seed + 1,
        address_base_bytes=16 * MB,
        address_span_bytes=16 * MB,
    )
    analytics = Tenant.sequential(
        "analytics",
        num_requests=requests_per_tenant,
        size_bytes=128 * KB,
        read_fraction=1.0,
        seed=seed + 2,
        address_base_bytes=32 * MB,
        address_span_bytes=16 * MB,
    )
    logger = Tenant.sequential(
        "logger",
        num_requests=requests_per_tenant,
        size_bytes=64 * KB,
        read_fraction=0.0,
        seed=seed + 3,
        address_base_bytes=48 * MB,
        address_span_bytes=16 * MB,
    )
    return Scenario(
        name="fleet",
        seed=seed,
        phases=(
            Phase(
                name="day",
                tenants=(web, kv),
                arrivals=DiurnalArrivals(
                    base_interarrival_ns=2_500.0,
                    amplitude=0.85,
                    period_ns=120_000.0,
                ),
            ),
            Phase(
                name="night",
                tenants=(analytics, logger, kv),
                arrivals=BurstyArrivals(
                    burst_interarrival_ns=500.0,
                    idle_interarrival_ns=40_000.0,
                    mean_burst_length=10.0,
                    mean_idle_length=2.0,
                ),
            ),
        ),
    )


def aged_device_state(*, steady_state: bool = False, seed: int = 11) -> DeviceState:
    """The canned aged starting point :func:`sustained_write_scenario` targets.

    85% full with 30% of programmed pages invalidated under an 80/20
    hot/cold overwrite skew - fragmented enough that greedy collection is
    productive, full enough that every sustained write keeps it running.
    ``steady_state=True`` additionally drives write amplification to its
    converged plateau before measurement starts.
    """
    return DeviceState(
        fill_fraction=0.85,
        invalid_fraction=0.30,
        hot_fraction=0.2,
        hot_write_share=0.8,
        seed=seed,
        steady_state=steady_state,
    )


def default_scenarios(*, scale: float = 1.0, seed: int = 11) -> Tuple[Scenario, ...]:
    """The standard scenario set, optionally scaled in request count."""
    if scale <= 0:
        raise ValueError("scale must be positive")
    return (
        steady_scenario(requests_per_phase=max(8, int(96 * scale)), seed=seed),
        bursty_multitenant_scenario(requests_per_tenant=max(8, int(48 * scale)), seed=seed),
        diurnal_scenario(requests_per_tenant=max(8, int(64 * scale)), seed=seed),
    )
