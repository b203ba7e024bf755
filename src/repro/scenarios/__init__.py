"""Scenario engine: composable workloads and arrival processes.

The paper evaluates Sprinkler against sixteen data-center traces plus
synthetic sweeps; this package opens that axis for the reproduction.  A
:class:`Scenario` is an ordered list of :class:`Phase`\\ s, each binding one
or more :class:`Tenant` workload sources to an :class:`ArrivalProcess`
(fixed, Poisson, MMPP-style bursty, or diurnal).  Trace transforms compose
(multi-tenant interleaving, time dilation, per-tenant address remapping),
every built scenario can be stamped with a
:class:`WorkloadCharacterization` report, and - because scenarios are frozen
dataclasses of primitives - they fingerprint and pickle cleanly into the
execution engine via ``WorkloadSpec.scenario``.
"""

from repro.scenarios.arrivals import (
    ArrivalProcess,
    BurstyArrivals,
    DiurnalArrivals,
    PoissonArrivals,
)
from repro.scenarios.characterize import WorkloadCharacterization, characterize
from repro.scenarios.library import (
    aged_device_state,
    bursty_multitenant_scenario,
    default_scenarios,
    diurnal_scenario,
    steady_scenario,
    sustained_write_scenario,
)
from repro.scenarios.scenario import (
    BuiltScenario,
    Phase,
    Scenario,
    ScenarioReport,
    Tenant,
)
from repro.scenarios.transforms import (
    copy_request,
    merge_streams,
    remap_offsets,
    time_dilate,
)

__all__ = [
    "ArrivalProcess",
    "BuiltScenario",
    "BurstyArrivals",
    "DiurnalArrivals",
    "Phase",
    "PoissonArrivals",
    "Scenario",
    "ScenarioReport",
    "Tenant",
    "WorkloadCharacterization",
    "aged_device_state",
    "bursty_multitenant_scenario",
    "characterize",
    "copy_request",
    "default_scenarios",
    "diurnal_scenario",
    "merge_streams",
    "remap_offsets",
    "steady_scenario",
    "sustained_write_scenario",
    "time_dilate",
]
