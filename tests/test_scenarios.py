"""Tests for the scenario engine: arrivals, transforms, DSL, engine flow."""

import random

import pytest

from repro.experiments.engine import ExecutionEngine
from repro.experiments.spec import ExperimentSpec, SimJob, WorkloadSpec
from repro.scenarios import (
    BurstyArrivals,
    DiurnalArrivals,
    Phase,
    PoissonArrivals,
    Scenario,
    Tenant,
    characterize,
    merge_streams,
    remap_offsets,
    time_dilate,
)
from repro.scenarios.characterize import NOMINAL_SERVICE_NS
from repro.scenarios.library import (
    bursty_multitenant_scenario,
    default_scenarios,
    diurnal_scenario,
    steady_scenario,
)
from repro.sim.config import SimulationConfig
from repro.workloads.request import IOKind, IORequest
from repro.workloads.synthetic import (
    SEQUENTIAL_INTERARRIVAL_NS,
    generate_random_workload,
    generate_sequential_workload,
)

KB = 1024
MB = 1024 * KB

ALL_PROCESSES = [
    PoissonArrivals(mean_interarrival_ns=1_500.0),
    BurstyArrivals(),
    DiurnalArrivals(),
]


def request_values(requests):
    """Value tuples for comparing request lists across builds/processes."""
    return [
        (io.io_id, io.kind.value, io.offset_bytes, io.size_bytes, io.arrival_ns)
        for io in requests
    ]


class TestArrivalProcesses:
    @pytest.mark.parametrize("process", ALL_PROCESSES, ids=lambda p: type(p).__name__)
    def test_monotone_and_deterministic(self, process):
        first = process.sample(64, random.Random(7))
        second = process.sample(64, random.Random(7))
        assert first == second
        assert len(first) == 64
        assert all(t >= 0 for t in first)
        assert first == sorted(first)

    @pytest.mark.parametrize("process", ALL_PROCESSES, ids=lambda p: type(p).__name__)
    def test_different_seeds_differ(self, process):
        assert process.sample(64, random.Random(1)) != process.sample(64, random.Random(2))

    def test_poisson_mean_approximates_parameter(self):
        times = PoissonArrivals(mean_interarrival_ns=1_000.0).sample(4_000, random.Random(3))
        mean_gap = times[-1] / (len(times) - 1)
        assert mean_gap == pytest.approx(1_000.0, rel=0.1)

    def test_bursty_produces_bimodal_gaps(self):
        process = BurstyArrivals(
            burst_interarrival_ns=200.0,
            idle_interarrival_ns=50_000.0,
            mean_burst_length=16.0,
            mean_idle_length=2.0,
        )
        times = process.sample(2_000, random.Random(5))
        gaps = [b - a for a, b in zip(times, times[1:])]
        short = sum(1 for gap in gaps if gap < 2_000)
        long = sum(1 for gap in gaps if gap > 10_000)
        # Most gaps are burst-dense, but a solid tail of idle gaps exists.
        assert short > len(gaps) * 0.5
        assert long > len(gaps) * 0.02

    def test_bursty_gap_cv_exceeds_poisson(self):
        rng = random.Random(9)
        bursty = BurstyArrivals().sample(1_000, rng)
        poisson = PoissonArrivals(mean_interarrival_ns=2_000.0).sample(1_000, random.Random(9))
        make = lambda times: [
            IORequest(kind=IOKind.READ, offset_bytes=0, size_bytes=512, arrival_ns=t)
            for t in times
        ]
        assert characterize(make(bursty)).interarrival_cv > characterize(make(poisson)).interarrival_cv

    def test_diurnal_rate_tracks_curve(self):
        process = DiurnalArrivals(
            base_interarrival_ns=1_000.0, amplitude=0.9, period_ns=1_000_000.0
        )
        # Rate at the sinusoid peak is (1+a)/base, at the trough (1-a)/base.
        assert process.rate_at(250_000.0) == pytest.approx(1.9e-3, rel=1e-6)
        assert process.rate_at(750_000.0) == pytest.approx(0.1e-3, rel=1e-6)

    @pytest.mark.parametrize(
        "factory",
        [
            lambda: DiurnalArrivals(base_interarrival_ns=0.0),
            lambda: PoissonArrivals(mean_interarrival_ns=0.0),
            lambda: BurstyArrivals(burst_interarrival_ns=0.0),
            lambda: BurstyArrivals(burst_interarrival_ns=5_000.0, idle_interarrival_ns=100.0),
            lambda: BurstyArrivals(mean_burst_length=0.5),
            lambda: DiurnalArrivals(amplitude=1.5),
            lambda: DiurnalArrivals(period_ns=0.0),
        ],
    )
    def test_parameter_validation(self, factory):
        with pytest.raises(ValueError):
            factory()


class TestTransforms:
    def make_stream(self, arrivals, *, offset=0, size=4 * KB, kind=IOKind.READ):
        return [
            IORequest(kind=kind, offset_bytes=offset + i * size, size_bytes=size, arrival_ns=t)
            for i, t in enumerate(arrivals)
        ]

    def test_merge_orders_by_arrival(self):
        a = self.make_stream([0, 100, 300])
        b = self.make_stream([50, 200], kind=IOKind.WRITE)
        merged = merge_streams([a, b])
        assert [io.arrival_ns for io in merged] == [0, 50, 100, 200, 300]
        assert sum(io.size_bytes for io in merged) == sum(
            io.size_bytes for io in a + b
        )

    def test_merge_tie_break_is_stream_order(self):
        a = self.make_stream([100], offset=0)
        b = self.make_stream([100], offset=1 * MB, kind=IOKind.WRITE)
        merged = merge_streams([a, b])
        assert [io.offset_bytes for io in merged] == [0, 1 * MB]
        # Swapping stream order swaps the tie-break deterministically.
        swapped = merge_streams([b, a])
        assert [io.offset_bytes for io in swapped] == [1 * MB, 0]

    def test_merge_copies_requests(self):
        a = self.make_stream([0, 10])
        merged = merge_streams([a])
        assert merged[0] is not a[0]
        merged[0].arrival_ns = 999
        assert a[0].arrival_ns == 0

    def test_time_dilate_scales_and_preserves_order(self):
        stream = self.make_stream([0, 100, 250])
        compressed = time_dilate(stream, 0.5)
        assert [io.arrival_ns for io in compressed] == [0, 50, 125]
        stretched = time_dilate(stream, 2.0)
        assert [io.arrival_ns for io in stretched] == [0, 200, 500]
        with pytest.raises(ValueError):
            time_dilate(stream, 0.0)

    def test_remap_confines_to_slice(self):
        stream = generate_random_workload(
            num_requests=64, size_bytes=16 * KB, address_space_bytes=512 * MB, seed=4
        )
        remapped = remap_offsets(
            stream, base_bytes=64 * MB, span_bytes=32 * MB, align_bytes=2 * KB
        )
        assert len(remapped) == len(stream)
        for io in remapped:
            assert 64 * MB <= io.offset_bytes
            assert io.end_offset_bytes <= 64 * MB + 32 * MB
            assert io.offset_bytes % (2 * KB) == 0
            assert io.size_bytes % (2 * KB) == 0

    def test_wrap_clamp_respects_alignment(self):
        # Offset wraps to 4 KB below the end of a 64 KB slice; the 16 KB
        # request must be clamped to the remaining 4 KB, not to 1 byte.
        stream = [IORequest(kind=IOKind.READ, offset_bytes=126976, size_bytes=16384, arrival_ns=0)]
        (io,) = remap_offsets(stream, base_bytes=0, span_bytes=65536, align_bytes=512)
        assert io.offset_bytes == 61440
        assert io.size_bytes == 4096
        assert io.end_offset_bytes <= 65536

    def test_wrap_clamp_never_emits_sub_align_requests(self):
        # Even when the wrapped offset sits at the last aligned slot, the
        # clamped size stays a whole alignment unit.
        stream = [IORequest(kind=IOKind.WRITE, offset_bytes=65024, size_bytes=4096, arrival_ns=0)]
        (io,) = remap_offsets(stream, base_bytes=0, span_bytes=65536, align_bytes=512)
        assert io.size_bytes == 512
        assert io.offset_bytes + io.size_bytes == 65536

    def test_wrap_aligns_offsets(self):
        # A misaligned offset is aligned down when wrapping.
        stream = [IORequest(kind=IOKind.READ, offset_bytes=66100, size_bytes=512, arrival_ns=0)]
        (io,) = remap_offsets(stream, base_bytes=0, span_bytes=65536, align_bytes=512)
        assert io.offset_bytes == 512

    def test_remap_validation(self):
        stream = self.make_stream([0])
        with pytest.raises(ValueError):
            remap_offsets(stream, base_bytes=-1, span_bytes=1 * MB)
        with pytest.raises(ValueError):
            remap_offsets(stream, base_bytes=0, span_bytes=3_000, align_bytes=2 * KB)
        # align_bytes=0 must raise, not silently degrade to byte granularity.
        with pytest.raises(ValueError):
            remap_offsets(stream, base_bytes=0, span_bytes=4 * KB, align_bytes=0)


class TestCharacterize:
    def test_empty_stream(self):
        stats = characterize([])
        assert stats.num_requests == 0
        assert stats.mean_queue_depth == 0.0

    def test_sequential_stream_statistics(self):
        stream = generate_sequential_workload(num_requests=16, size_bytes=8 * KB)
        stats = characterize(stream)
        assert stats.num_requests == 16
        assert stats.total_bytes == 16 * 8 * KB
        assert stats.read_fraction == 1.0
        assert stats.sequentiality == 1.0
        assert stats.working_set_bytes == 16 * 8 * KB
        assert stats.interarrival_cv == 0.0
        assert stats.duration_ns == 15 * SEQUENTIAL_INTERARRIVAL_NS

    def test_queue_depth_against_nominal_service(self):
        # 4 requests at t=0, within one nominal service time: all outstanding
        # together.
        burst = [
            IORequest(kind=IOKind.READ, offset_bytes=i * 4 * KB, size_bytes=4 * KB, arrival_ns=0)
            for i in range(4)
        ]
        stats = characterize(burst)
        assert stats.max_queue_depth == 4
        # Same 4 requests one service time apart: never more than one
        # outstanding.
        sparse = [
            IORequest(
                kind=IOKind.READ,
                offset_bytes=i * 4 * KB,
                size_bytes=4 * KB,
                arrival_ns=i * NOMINAL_SERVICE_NS,
            )
            for i in range(4)
        ]
        assert characterize(sparse).max_queue_depth == 1

    def test_read_fraction_and_working_set_overlap(self):
        # Two requests on the same page: working set counts the page once.
        stream = [
            IORequest(kind=IOKind.READ, offset_bytes=0, size_bytes=4 * KB, arrival_ns=0),
            IORequest(kind=IOKind.WRITE, offset_bytes=0, size_bytes=4 * KB, arrival_ns=100),
        ]
        stats = characterize(stream)
        assert stats.read_fraction == 0.5
        assert stats.working_set_bytes == 4 * KB


class TestScenarioDSL:
    def two_phase_scenario(self, seed=13):
        return bursty_multitenant_scenario(requests_per_tenant=24, seed=seed)

    def test_build_is_deterministic(self):
        scenario = self.two_phase_scenario()
        assert request_values(scenario.build()) == request_values(scenario.build())

    def test_ids_renumbered_from_zero(self):
        requests = self.two_phase_scenario().build()
        assert [io.io_id for io in requests] == list(range(len(requests)))

    def test_arrivals_monotone_across_phases(self):
        requests = self.two_phase_scenario().build()
        arrivals = [io.arrival_ns for io in requests]
        assert arrivals == sorted(arrivals)

    def test_phases_are_time_ordered(self):
        scenario = self.two_phase_scenario()
        built = scenario.build_with_report()
        warmup = next(stats for name, stats in built.report.phases if name == "warmup")
        # Warm-up has 24 single-tenant requests; the burst phase interleaves
        # both tenants after them.
        assert warmup.num_requests == 24
        assert built.report.overall.num_requests == len(built.requests) == 72

    def test_multi_tenant_interleaving_and_isolation(self):
        built = self.two_phase_scenario().build_with_report()
        burst_slice = built.requests[24:]
        reads = [io for io in burst_slice if not io.is_write]
        writes = [io for io in burst_slice if io.is_write]
        assert reads and writes
        # Tenants are confined to their disjoint address slices.
        assert all(io.end_offset_bytes <= 64 * MB for io in reads)
        assert all(64 * MB <= io.offset_bytes for io in writes)
        # And genuinely interleaved: the write tenant does not simply queue
        # up after the read tenant.
        first_write = min(io.arrival_ns for io in writes)
        last_read = max(io.arrival_ns for io in reads)
        assert first_write < last_read

    def test_seed_changes_trace(self):
        assert request_values(self.two_phase_scenario(seed=1).build()) != request_values(
            self.two_phase_scenario(seed=2).build()
        )

    def test_fingerprint_stable_and_sensitive(self):
        a = self.two_phase_scenario(seed=5)
        b = self.two_phase_scenario(seed=5)
        c = self.two_phase_scenario(seed=6)
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint() != c.fingerprint()
        # Changing an arrival-process knob inside a phase changes the print.
        tweaked = Scenario(
            name=a.name,
            seed=a.seed,
            phases=(
                a.phases[0],
                Phase(
                    name=a.phases[1].name,
                    tenants=a.phases[1].tenants,
                    arrivals=BurstyArrivals(burst_interarrival_ns=401.0,
                                            idle_interarrival_ns=30_000.0,
                                            mean_burst_length=12.0,
                                            mean_idle_length=2.0),
                ),
            ),
        )
        assert tweaked.fingerprint() != a.fingerprint()

    def test_phase_transforms_apply(self):
        tenant = Tenant.random("t", num_requests=32, size_bytes=4 * KB, seed=3)
        plain = Scenario(
            name="plain",
            phases=(Phase(name="p", tenants=(tenant,), arrivals=PoissonArrivals(1_000.0)),),
        ).build()
        dilated = Scenario(
            name="dilated",
            phases=(
                Phase(
                    name="p",
                    tenants=(tenant,),
                    arrivals=PoissonArrivals(1_000.0),
                    time_scale=2.0,
                ),
            ),
        ).build()
        assert [io.arrival_ns for io in dilated] == [2 * io.arrival_ns for io in plain]

    def test_generator_align_bytes_reaches_the_source(self):
        # ``align_bytes`` is a generator option (SyntheticWorkloadConfig),
        # distinct from the tenant's remap clamp granularity - it must flow
        # through to the source untouched.
        tenant = Tenant.mixed(
            "aligned",
            num_requests=32,
            size_bytes=8 * KB,
            address_space_bytes=64 * MB,
            align_bytes=8 * KB,
            seed=3,
        )
        assert dict(tenant.params)["align_bytes"] == 8 * KB
        assert all(io.offset_bytes % (8 * KB) == 0 for io in tenant.build_stream())

    @pytest.mark.parametrize(
        "factory",
        [
            lambda: Scenario(name="empty", phases=()),
            lambda: Scenario(
                name="dup",
                phases=(
                    Phase(name="p", tenants=(Tenant.random("t", num_requests=1, size_bytes=4 * KB),), arrivals=PoissonArrivals()),
                    Phase(name="p", tenants=(Tenant.random("t", num_requests=1, size_bytes=4 * KB),), arrivals=PoissonArrivals()),
                ),
            ),
            lambda: Phase(name="no-tenants", tenants=(), arrivals=PoissonArrivals()),
            lambda: Phase(
                name="bad-scale",
                tenants=(Tenant.random("t", num_requests=1, size_bytes=4 * KB),),
                arrivals=PoissonArrivals(),
                time_scale=0.0,
            ),
            lambda: Tenant.random(
                "half-remap", num_requests=1, size_bytes=4 * KB, address_base_bytes=0
            ),
        ],
    )
    def test_dsl_validation(self, factory):
        with pytest.raises(ValueError):
            factory()

    def test_library_scenarios_build(self):
        for scenario in default_scenarios(scale=0.25):
            requests = scenario.build()
            assert requests
            arrivals = [io.arrival_ns for io in requests]
            assert arrivals == sorted(arrivals)
        assert steady_scenario().name == "steady"
        assert diurnal_scenario().name == "diurnal"


class TestScenarioThroughEngine:
    """Acceptance: a 2-phase, bursty, 2-tenant scenario through the engine."""

    def scenario(self):
        return bursty_multitenant_scenario(requests_per_tenant=16, seed=9)

    def spec(self):
        config = SimulationConfig.small(gc_enabled=False)
        return ExperimentSpec(
            "scenario-accept",
            tuple(
                SimJob(
                    workload=WorkloadSpec.scenario(self.scenario()),
                    scheduler=scheduler,
                    config=config,
                    key=(scheduler,),
                )
                for scheduler in ("VAS", "SPK3")
            ),
        )

    def test_workload_spec_build_matches_scenario_build(self):
        direct = self.scenario().build()
        via_spec = WorkloadSpec.scenario(self.scenario()).build()
        assert request_values(via_spec) == request_values(direct)

    def test_workload_spec_fingerprint_stable_and_sensitive(self):
        a = WorkloadSpec.scenario(self.scenario())
        b = WorkloadSpec.scenario(self.scenario())
        c = WorkloadSpec.scenario(bursty_multitenant_scenario(requests_per_tenant=16, seed=10))
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint() != c.fingerprint()

    def test_serial_and_process_backends_bit_identical(self):
        serial = ExecutionEngine("serial").run(self.spec())
        parallel = ExecutionEngine("process", max_workers=2).run(self.spec())
        assert serial == parallel

    def test_cache_hits_on_rerun(self, tmp_path):
        cache_dir = tmp_path / "cache"
        cold = ExecutionEngine("serial", cache_dir=cache_dir)
        first = cold.run(self.spec())
        assert cold.stats.jobs_executed == 2
        assert cold.stats.cache_stores == 2
        warm = ExecutionEngine("serial", cache_dir=cache_dir)
        second = warm.run(self.spec())
        assert warm.stats.cache_hits == 2
        assert warm.stats.jobs_executed == 0
        assert first == second

    def test_scenario_results_differ_across_schedulers(self):
        results = ExecutionEngine().run(self.spec())
        assert results[("VAS",)].makespan_ns != results[("SPK3",)].makespan_ns
