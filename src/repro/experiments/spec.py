"""Declarative experiment specifications.

The paper's evaluation is one big matrix of ``(workload x scheduler x
config)`` simulations.  Instead of hand-rolling a serial loop, every
experiment *declares* its grid as data:

* :class:`WorkloadSpec` - a picklable recipe for a workload.  Workers rebuild
  the trace from ``(generator, params, seed)``, so the request objects
  themselves never cross a process boundary, and every rebuild renumbers its
  I/O ids ``0..n-1`` (serial and parallel runs are therefore bit-identical).
* :class:`SimJob` - one independent simulation: a workload spec, a scheduler
  name, a full :class:`~repro.sim.config.SimulationConfig` and optional
  scheduler options, plus a caller-chosen ``key`` used to reassemble results.
  Jobs have a stable content fingerprint, which doubles as the on-disk cache
  key of the execution engine.
* :class:`ExperimentSpec` - a named, ordered collection of jobs, with a
  :meth:`ExperimentSpec.matrix` helper for the common "every scheduler
  against every workload" shape.
* :class:`ArraySpec` - one multi-SSD array cell: a workload, a placement
  layout and a per-device setup, expanding into one fingerprinted
  :class:`SimJob` per device (see :mod:`repro.array`).

The specs are pure data; running them is the job of
:class:`~repro.experiments.engine.ExecutionEngine`.
"""

from __future__ import annotations

# ``gc`` means the FTL's garbage collector throughout the simulator.
import gc as cyclic_gc
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.metrics.report import SimulationResult
from repro.obs.trace import TraceSink
from repro.scenarios.scenario import SCENARIO_VERSION, Scenario
from repro.sim.config import SimulationConfig, stable_fingerprint
from repro.sim.ssd import SSDSimulator
from repro.workloads.build import build_generator, freeze_requests, strip_request_tags
from repro.workloads.request import IORequest

#: Bump when the semantics of job execution change in a way that invalidates
#: previously cached results.
#: v2: SimulationResult grew first-class gc_stats/wear/lifetime fields -
#: pre-v2 cache entries unpickle without them and must not be reused.
#: v3: prefilled devices (``prefill_fraction``) report their fill writes in
#: ``lifetime.precondition_writes`` - pre-v3 entries carry 0 there.
SPEC_VERSION = 3


def _as_items(mapping: Optional[Mapping[str, Any]]) -> Tuple[Tuple[str, Any], ...]:
    """Freeze a keyword mapping into a sorted, hashable tuple of pairs."""
    if not mapping:
        return ()
    return tuple(sorted(mapping.items()))


@dataclass(frozen=True)
class WorkloadSpec:
    """A reconstructible description of one workload.

    ``generator`` selects the generation routine, ``params`` are its frozen
    keyword arguments and ``name`` is the label stamped onto results.  The
    spec (not the generated requests) is what travels to worker processes;
    :meth:`build` regenerates the exact same trace anywhere because every
    generator is seed-deterministic and the I/O ids are renumbered ``0..n-1``
    after generation (the process-global id counter is left untouched).

    Note: because every built workload is numbered from 0, two *built*
    workloads must not be merged into a single simulator run; each
    :class:`SimJob` runs exactly one workload, which is the intended use.
    """

    generator: str
    name: str
    params: Tuple[Tuple[str, Any], ...] = ()

    # -- constructors ---------------------------------------------------
    @classmethod
    def datacenter(cls, trace_name: str, *, num_requests: int, seed: int, **extra) -> "WorkloadSpec":
        """One of the sixteen Table 1 data-center traces."""
        params = {"name": trace_name, "num_requests": num_requests, "seed": seed, **extra}
        return cls("datacenter", trace_name, _as_items(params))

    @classmethod
    def random(cls, name: str, *, num_requests: int, size_bytes: int, **extra) -> "WorkloadSpec":
        """Uniform-random-offset workload (transfer-size sweeps)."""
        params = {"num_requests": num_requests, "size_bytes": size_bytes, **extra}
        return cls("random", name, _as_items(params))

    @classmethod
    def mixed(cls, name: str, **config_fields) -> "WorkloadSpec":
        """General synthetic workload (:class:`SyntheticWorkloadConfig` fields)."""
        return cls("mixed", name, _as_items(config_fields))

    @classmethod
    def scenario(cls, scenario: Scenario) -> "WorkloadSpec":
        """A composed :class:`~repro.scenarios.scenario.Scenario` as a workload.

        The scenario object itself (a frozen dataclass of primitives) is the
        spec's parameter, so the fingerprint covers every phase, tenant,
        arrival-process knob and transform - any change to the scenario
        recipe invalidates exactly the affected cache entries.  The scenario
        engine's version rides along as a param so bumping
        ``SCENARIO_VERSION`` (a semantics change in scenario *building*)
        also invalidates the engine's cached results.
        """
        return cls(
            "scenario",
            scenario.name,
            (("scenario", scenario), ("scenario_version", SCENARIO_VERSION)),
        )

    @classmethod
    def inline(
        cls, name: str, requests: Sequence[IORequest], *, keep_tags: bool = False
    ) -> "WorkloadSpec":
        """Freeze an already-materialised request list into a spec.

        The array and fleet device jobs freeze each device's sub-trace this
        way.  The requests are stored as plain value tuples, so the spec
        stays hashable and rebuilds (with fresh ids) identically in any
        process.

        ``keep_tags=True`` preserves the observational provenance tags
        (``tenant``/``phase_index``) through the freeze/thaw round trip so
        attribution survives; :meth:`fingerprint` strips the tags before
        hashing, keeping a tagged spec cache-compatible with the identical
        untagged trace.
        """
        frozen = freeze_requests(requests, keep_tags=keep_tags)
        return cls("inline", name, (("requests", frozen),))

    # -- materialisation -------------------------------------------------
    def build(self) -> List[IORequest]:
        """Regenerate the workload from scratch (fresh, deterministic ids)."""
        params = dict(self.params)
        if self.generator == "scenario":
            requests = params["scenario"].build()
        else:
            requests = build_generator(self.generator, params)
        # Renumber in place so the ids a job sees are independent of which
        # process (and how many prior jobs) generated the trace - this is
        # what makes serial and parallel runs bit-identical.
        for index, io in enumerate(requests):
            io.io_id = index
        return requests

    def fingerprint(self) -> str:
        """Stable content hash of the workload recipe.

        Inline specs hash the *untagged* view of their frozen requests:
        provenance tags are observational (they never change simulated
        behaviour), so a tagged inline spec fingerprints byte-identically to
        the same trace frozen without tags - cache entries and perf-golden
        fingerprints are unaffected by tagging.
        """
        params = self.params
        if self.generator == "inline":
            params = tuple(
                (key, strip_request_tags(value) if key == "requests" else value)
                for key, value in params
            )
        return stable_fingerprint(("workload", SPEC_VERSION, self.generator, self.name, params))


@dataclass(frozen=True)
class SimJob:
    """One independent ``(workload, scheduler, config)`` simulation.

    The device under test is given either as an explicit ``config`` or as a
    ``device`` id resolved from the shipped device zoo
    (:mod:`repro.devices`).  Fingerprints always cover the *resolved*
    configuration, so editing a zoo file invalidates exactly the cached
    results of the jobs that used that device - and a zoo job whose device
    resolves to the same config as an explicit-config job shares its cache
    entry.

    ``key`` is whatever tuple the declaring experiment wants results keyed
    by (e.g. ``(trace, scheduler)`` or ``(chips, size_kb, scheduler)``);
    it does not enter the fingerprint, so relabelling cells never invalidates
    the cache.
    """

    workload: WorkloadSpec
    scheduler: str
    config: Optional[SimulationConfig] = None
    scheduler_options: Tuple[Tuple[str, Any], ...] = ()
    key: Tuple[Any, ...] = ()
    #: Device-zoo id (e.g. ``"mlc-gen2"``), resolved through
    #: :func:`repro.devices.device_config`.  Exactly one of
    #: ``config``/``device`` must be set.
    device: Optional[str] = None

    def __post_init__(self) -> None:
        if (self.config is None) == (self.device is None):
            raise ValueError("set exactly one of config= or device= on a SimJob")

    @property
    def options_dict(self) -> Optional[Dict[str, Any]]:
        """Scheduler options as the keyword dict ``SSDSimulator`` expects."""
        return dict(self.scheduler_options) if self.scheduler_options else None

    @property
    def resolved_config(self) -> SimulationConfig:
        """The full configuration this job simulates (zoo ids resolved)."""
        if self.config is not None:
            return self.config
        from repro.devices import device_config  # lazy: zoo loads on demand

        return device_config(self.device)

    def fingerprint(self) -> str:
        """Content hash over everything that influences the result.

        Any change to the workload recipe, the scheduler, a scheduler option
        or *any* config knob (geometry, timing, GC, callbacks ...) yields a
        different fingerprint; the engine's result cache keys on this.  Zoo
        devices enter by resolved content, never by id - renaming a device
        without changing its definition does not invalidate anything.
        """
        return stable_fingerprint(
            (
                "job",
                SPEC_VERSION,
                self.workload.fingerprint(),
                self.scheduler,
                # Sorted so semantically equal option sets fingerprint the
                # same however the caller ordered the pairs.
                tuple(sorted(self.scheduler_options)),
                self.resolved_config,
            )
        )

    def execute(self, trace_sink: Optional[TraceSink] = None) -> SimulationResult:
        """Run this job on a fresh simulator (the engine's unit of work).

        The one place a job becomes an :class:`SSDSimulator`.

        ``trace_sink`` (e.g. a :class:`~repro.obs.trace.MemoryTraceSink`)
        records the run's spans.  Tracing is observational only: the result
        is value-identical to an untraced run of the same job.

        CPython's cyclic collector is paused for the job and restored to
        the state it was found in, also when the job raises.  A simulator
        is tens of thousands of long-lived objects with no reference cycle
        among them, so the collector's passes over them find nothing to
        free; the simulator is freed by reference counting when
        :meth:`_simulate` returns, before the collector is back on.
        """
        was_enabled = cyclic_gc.isenabled()
        cyclic_gc.disable()
        try:
            return self._simulate(trace_sink)
        finally:
            if was_enabled:
                cyclic_gc.enable()

    def _simulate(self, trace_sink: Optional[TraceSink]) -> SimulationResult:
        workload = self.workload.build()
        simulator = SSDSimulator(
            self.resolved_config,
            self.scheduler,
            scheduler_options=self.options_dict,
            trace_sink=trace_sink,
        )
        return simulator.run(workload, workload_name=self.workload.name)


@dataclass(frozen=True)
class ArraySpec:
    """One host-level array cell: a workload striped over ``num_devices`` SSDs.

    The spec captures everything that determines the array outcome - the
    base workload recipe, the placement layout, and the per-device scheduler
    and config - and expands into one cache-aware :class:`SimJob` per device
    (:meth:`device_jobs`).  Each device job freezes its sub-trace via
    :meth:`WorkloadSpec.inline`, so its fingerprint covers the actual bytes
    the device serves plus the device label: array cells at the same device
    count whose placements hand a device an identical sub-trace (e.g. a
    1-device array under any policy, or stripe vs range over a
    stripe-aligned trace) share that device's cache entry.
    """

    workload: WorkloadSpec
    num_devices: int
    scheduler: str
    config: Optional[SimulationConfig] = None
    policy: str = "stripe"
    chunk_bytes: int = 64 * 1024
    key: Tuple[Any, ...] = ()
    #: Per-slot device-zoo ids - the heterogeneous-array form.  When set,
    #: one id per device slot (``len(devices) == num_devices``) and
    #: ``config`` must be ``None``; slot *i* simulates zoo device
    #: ``devices[i]``.  Homogeneous arrays keep using ``config``.
    devices: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if (self.config is None) == (not self.devices):
            raise ValueError("set exactly one of config= or devices= on an ArraySpec")
        if self.devices and len(self.devices) != self.num_devices:
            raise ValueError(
                f"devices= lists {len(self.devices)} ids for {self.num_devices} slots"
            )

    def layout(self):
        """The :class:`repro.array.layout.ArrayLayout` this spec describes."""
        # Imported lazily: repro.array depends on this module for SimJob.
        from repro.array.layout import ArrayLayout

        return ArrayLayout(
            num_devices=self.num_devices,
            policy=self.policy,
            chunk_bytes=self.chunk_bytes,
        )

    def device_jobs(self, sub_traces=None) -> Tuple[SimJob, ...]:
        """Expand into one :class:`SimJob` per device, keyed ``key + (device,)``.

        The base trace is built once, split by the layout, and each
        sub-trace frozen into an inline workload spec; devices with an empty
        sub-trace still get a job so results stay positional.  Batch callers
        sweeping schedulers over one layout can pass the already-split
        ``sub_traces`` to skip the rebuild (see
        :func:`repro.experiments.array_scaling.run_array_specs`).

        Sub-traces are frozen with their provenance tags so tagged scenario
        workloads keep per-tenant attribution on every device; the tags are
        stripped at fingerprint time, so cache keys are unchanged.
        """
        from repro.array.layout import split_trace

        if sub_traces is None:
            sub_traces = split_trace(self.workload.build(), self.layout())
        return tuple(
            SimJob(
                workload=WorkloadSpec.inline(
                    f"{self.workload.name}@dev{device}/{self.num_devices}",
                    sub_trace,
                    keep_tags=True,
                ),
                scheduler=self.scheduler,
                config=self.config,
                device=self.devices[device] if self.devices else None,
                key=self.key + (device,),
            )
            for device, sub_trace in enumerate(sub_traces)
        )


@dataclass(frozen=True)
class ExperimentSpec:
    """A named, ordered set of independent simulation jobs."""

    name: str
    jobs: Tuple[SimJob, ...]

    def __post_init__(self) -> None:
        keys = [job.key for job in self.jobs]
        if len(set(keys)) != len(keys):
            raise ValueError(f"experiment {self.name!r} has duplicate job keys")

    @classmethod
    def matrix(
        cls,
        name: str,
        workloads: Iterable[WorkloadSpec],
        schedulers: Sequence[str],
        config: SimulationConfig,
    ) -> "ExperimentSpec":
        """Every scheduler against every workload, keyed ``(workload, scheduler)``."""
        jobs = tuple(
            SimJob(
                workload=workload,
                scheduler=scheduler,
                config=config,
                key=(workload.name, scheduler),
            )
            for workload in workloads
            for scheduler in schedulers
        )
        return cls(name, jobs)
