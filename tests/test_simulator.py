"""End-to-end tests of the SSD simulator."""

import cProfile
import dataclasses
import heapq
import pstats

import pytest

from repro.core.policies import SCHEDULER_NAMES
from repro.sim.config import SimulationConfig
from repro.sim.events import EventKind
from repro.sim.ssd import SSDSimulator
from repro.workloads.request import IOKind, IORequest
from repro.workloads.synthetic import generate_random_workload

KB = 1024


def clone(workload):
    return [
        IORequest(
            kind=io.kind,
            offset_bytes=io.offset_bytes,
            size_bytes=io.size_bytes,
            arrival_ns=io.arrival_ns,
        )
        for io in workload
    ]


@pytest.fixture(scope="module")
def mixed_workload():
    return generate_random_workload(
        num_requests=40,
        size_bytes=16 * KB,
        address_space_bytes=16 * 1024 * KB,
        read_fraction=0.6,
        interarrival_ns=2_000,
        seed=11,
    )


class TestBasicCompletion:
    @pytest.mark.parametrize("scheduler", SCHEDULER_NAMES)
    def test_all_ios_complete(self, scheduler, test_config, mixed_workload):
        result = SSDSimulator(test_config, scheduler).run(clone(mixed_workload))
        assert result.completed_ios == len(mixed_workload)
        assert result.num_ios == len(mixed_workload)
        assert result.makespan_ns > 0

    @pytest.mark.parametrize("scheduler", SCHEDULER_NAMES)
    def test_request_conservation(self, scheduler, test_config, mixed_workload):
        result = SSDSimulator(test_config, scheduler).run(clone(mixed_workload))
        expected_pages = sum(
            len(io.logical_pages(test_config.geometry.page_size_bytes)) for io in mixed_workload
        )
        assert result.memory_requests_composed == expected_pages
        assert result.memory_requests_served == expected_pages
        assert result.total_bytes == sum(io.size_bytes for io in mixed_workload)

    def test_latency_positive_and_bounded(self, test_config, mixed_workload):
        result = SSDSimulator(test_config, "SPK3").run(clone(mixed_workload))
        assert result.latency.count == len(mixed_workload)
        assert min(result.latency.samples_ns) > 0
        assert result.latency.max_ns <= result.makespan_ns + max(
            io.arrival_ns for io in mixed_workload
        )

    def test_deterministic_repeat(self, test_config, mixed_workload):
        first = SSDSimulator(test_config, "SPK3").run(clone(mixed_workload))
        second = SSDSimulator(test_config, "SPK3").run(clone(mixed_workload))
        assert first.makespan_ns == second.makespan_ns
        assert first.transactions == second.transactions
        assert first.avg_latency_ns == second.avg_latency_ns

    def test_empty_workload(self, test_config):
        result = SSDSimulator(test_config, "SPK3").run([])
        assert result.completed_ios == 0
        assert result.makespan_ns == 0

    def test_single_small_read(self, test_config):
        io = IORequest(kind=IOKind.READ, offset_bytes=0, size_bytes=2048, arrival_ns=0)
        result = SSDSimulator(test_config, "VAS").run([io])
        assert result.completed_ios == 1
        assert result.transactions == 1
        # Latency must cover at least the cell read plus the bus transfer.
        assert result.avg_latency_ns >= test_config.timing.read_ns

    def test_dispatch_covers_every_event_kind(self, test_config):
        # The event loop dispatches on EventKind identity with no fallback
        # arm: each remaining kind reaches exactly its own handler, and a
        # new kind without an arm would be dropped and fail here.
        simulator = SSDSimulator(test_config, "SPK3")
        seen = []
        handlers = {
            EventKind.COMPOSE_DONE: "_handle_compose_done",
            EventKind.TRANSACTION_DONE: "_handle_transaction_done",
            EventKind.TRANSACTION_DECISION: "_handle_decision",
        }
        assert set(handlers) == set(EventKind)
        for kind, name in handlers.items():
            setattr(simulator, name, lambda payload, kind=kind: seen.append((kind, payload)))
        events = simulator.events
        for time_ns, kind in enumerate(EventKind, start=1):
            heapq.heappush(events.heap, (time_ns, next(events.sequence), kind, kind.value))
        simulator.run([])
        assert seen == [(kind, kind.value) for kind in EventKind]


class TestSchedulerOrdering:
    def test_spk3_outperforms_vas(self, test_config, mixed_workload):
        vas = SSDSimulator(test_config, "VAS").run(clone(mixed_workload))
        spk3 = SSDSimulator(test_config, "SPK3").run(clone(mixed_workload))
        assert spk3.bandwidth_kb_s > vas.bandwidth_kb_s
        assert spk3.avg_latency_ns < vas.avg_latency_ns

    def test_spk3_coalesces_more_than_vas(self, test_config, mixed_workload):
        vas = SSDSimulator(test_config, "VAS").run(clone(mixed_workload))
        spk3 = SSDSimulator(test_config, "SPK3").run(clone(mixed_workload))
        assert spk3.transactions < vas.transactions
        assert spk3.coalescing_degree > vas.coalescing_degree

    def test_spk3_reduces_inter_chip_idleness(self, test_config, mixed_workload):
        vas = SSDSimulator(test_config, "VAS").run(clone(mixed_workload))
        spk3 = SSDSimulator(test_config, "SPK3").run(clone(mixed_workload))
        assert spk3.inter_chip_idleness <= vas.inter_chip_idleness

    def test_pas_not_worse_than_vas(self, test_config, mixed_workload):
        vas = SSDSimulator(test_config, "VAS").run(clone(mixed_workload))
        pas = SSDSimulator(test_config, "PAS").run(clone(mixed_workload))
        assert pas.bandwidth_kb_s >= vas.bandwidth_kb_s * 0.95


class TestQueuePressure:
    def test_small_queue_causes_stall_time(self, mixed_workload):
        config = SimulationConfig.small(gc_enabled=False, queue_depth=2)
        result = SSDSimulator(config, "VAS").run(clone(mixed_workload))
        assert result.completed_ios == len(mixed_workload)
        assert result.queue_stall_time_ns > 0
        assert result.extra["stalled_requests"] > 0

    def test_deep_queue_avoids_stalls(self, mixed_workload):
        config = SimulationConfig.small(gc_enabled=False, queue_depth=256)
        result = SSDSimulator(config, "VAS").run(clone(mixed_workload))
        assert result.queue_stall_time_ns == 0


class TestMetricsConsistency:
    def test_breakdown_fractions_sum_to_one(self, test_config, mixed_workload):
        result = SSDSimulator(test_config, "SPK3").run(clone(mixed_workload))
        assert sum(result.breakdown_fractions().values()) == pytest.approx(1.0)

    def test_flp_fractions_sum_to_one(self, test_config, mixed_workload):
        result = SSDSimulator(test_config, "SPK3").run(clone(mixed_workload))
        assert sum(result.flp_fractions().values()) == pytest.approx(1.0)

    def test_utilization_within_bounds(self, test_config, mixed_workload):
        result = SSDSimulator(test_config, "SPK3").run(clone(mixed_workload))
        assert 0.0 < result.chip_utilization <= 1.0
        assert 0.0 <= result.inter_chip_idleness < 1.0
        assert 0.0 <= result.intra_chip_idleness <= 1.0

    def test_time_series_matches_completions(self, test_config, mixed_workload):
        result = SSDSimulator(test_config, "PAS").run(clone(mixed_workload))
        assert len(result.time_series) == result.completed_ios
        assert all(point.latency_ns > 0 for point in result.time_series)

    def test_summary_row_keys(self, test_config, mixed_workload):
        result = SSDSimulator(test_config, "SPK2").run(clone(mixed_workload))
        row = result.summary_row()
        assert row["scheduler"] == "SPK2"
        assert row["bandwidth_kb_s"] > 0


class TestWriteAndGcPath:
    def test_write_only_workload_completes(self, test_config):
        workload = generate_random_workload(
            num_requests=24,
            size_bytes=8 * KB,
            address_space_bytes=4 * 1024 * KB,
            read_fraction=0.0,
            seed=3,
        )
        result = SSDSimulator(test_config, "SPK3").run(clone(workload))
        assert result.completed_ios == 24

    def test_gc_triggers_on_fragmented_drive(self):
        config = SimulationConfig.small(
            gc_enabled=True,
            prefill_fraction=0.92,
            prefill_overwrite_fraction=0.4,
        )
        workload = generate_random_workload(
            num_requests=24,
            size_bytes=8 * KB,
            address_space_bytes=2 * 1024 * KB,
            read_fraction=0.0,
            seed=5,
        )
        result = SSDSimulator(config, "SPK3").run(clone(workload))
        assert result.completed_ios == 24
        assert result.extra["gc_invocations"] > 0
        assert result.gc_time_ns > 0

    def test_gc_slows_down_writes(self):
        workload = generate_random_workload(
            num_requests=24,
            size_bytes=8 * KB,
            address_space_bytes=2 * 1024 * KB,
            read_fraction=0.0,
            seed=5,
        )
        pristine = SSDSimulator(SimulationConfig.small(gc_enabled=False), "SPK3").run(
            clone(workload)
        )
        fragmented = SSDSimulator(
            SimulationConfig.small(
                gc_enabled=True, prefill_fraction=0.92, prefill_overwrite_fraction=0.4
            ),
            "SPK3",
        ).run(clone(workload))
        assert fragmented.bandwidth_kb_s < pristine.bandwidth_kb_s

    def test_readdressing_callback_disabled_for_vas(self, test_config):
        simulator = SSDSimulator(test_config, "VAS")
        assert not simulator.callback.enabled

    def test_readdressing_callback_enabled_for_sprinkler(self, test_config):
        simulator = SSDSimulator(test_config, "SPK3")
        assert simulator.callback.enabled

    def test_callback_override(self, test_config):
        config = test_config.with_overrides(readdressing_callback=True)
        simulator = SSDSimulator(config, "VAS")
        assert simulator.callback.enabled


#: Python calls (cProfile's count, C builtins included) per simulated event
#: of ``test_calls_per_event_cut_by_a_quarter``'s job list, counted the same
#: way on the event path before it went lean: 764,180 calls for 18,347
#: events.
HELPER_EVENT_PATH_CALLS_PER_EVENT = 764_180 / 18_347


class TestEventPathCost:
    def test_calls_per_event_cut_by_a_quarter(self):
        """The lean event path stays lean: a deterministic host-cost guard.

        cProfile counts every call while VAS, PAS and SPK3 replay one fixed
        workload; the count per event must stay at most 3/4 of the count
        before the event loop stopped calling push/pop/accounting helpers.
        """
        config = SimulationConfig.small(gc_enabled=False)
        workload = generate_random_workload(
            num_requests=300,
            size_bytes=16 * KB,
            address_space_bytes=64 * 1024 * KB,
            read_fraction=0.5,
            interarrival_ns=5_000,
            seed=5,
        )
        calls = events = 0
        for scheduler in ("VAS", "PAS", "SPK3"):
            # Pinned io ids: the count must not depend on earlier tests.
            replay = [dataclasses.replace(io, io_id=i) for i, io in enumerate(workload)]
            simulator = SSDSimulator(config, scheduler)
            profile = cProfile.Profile()
            profile.enable()
            try:
                result = simulator.run(replay)
            finally:
                profile.disable()
            calls += pstats.Stats(profile).total_calls
            events += result.events_processed
        # The fixture is pinned: the ratio compares the same events.
        assert events == 18_347
        assert calls / events <= 0.75 * HELPER_EVENT_PATH_CALLS_PER_EVENT
