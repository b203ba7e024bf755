"""Tests for the event queue contract and simulation configuration.

The event queue has no push/pop methods: the simulator's handlers push
``(time_ns, sequence, kind, payload)`` tuples onto ``EventQueue.heap`` and
``SSDSimulator.run`` pops same-timestamp batches straight off it.  These
tests drive that run loop with recording handlers.
"""

import heapq

import pytest

from repro.flash.geometry import SSDGeometry
from repro.lifetime.state import DeviceState
from repro.sim.config import SimulationConfig
from repro.sim.events import EventKind, EventQueue
from repro.sim.ssd import SSDSimulator
from repro.workloads.request import IOKind, IORequest


def push(simulator, time_ns, payload, kind=EventKind.COMPOSE_DONE):
    """Schedule an event the way the simulator's handlers do."""
    events = simulator.events
    heapq.heappush(events.heap, (time_ns, next(events.sequence), kind, payload))


def recording_simulator(react=None):
    """A simulator whose event handlers only record ``(now_ns, payload)``.

    ``react(simulator, payload)`` runs after each record and may push more
    events, the way real handlers do.
    """
    simulator = SSDSimulator(SimulationConfig.small(gc_enabled=False), "VAS")
    seen = []

    def handle(payload):
        seen.append((simulator.now_ns, payload))
        if react is not None:
            react(simulator, payload)

    for name in ("_handle_compose_done", "_handle_transaction_done", "_handle_decision"):
        setattr(simulator, name, handle)
    return simulator, seen


class TestEventQueue:
    def test_pops_in_time_order(self):
        simulator, seen = recording_simulator()
        push(simulator, 50, "b")
        push(simulator, 10, "a")
        push(simulator, 30, "c")
        simulator.run([])
        assert seen == [(10, "a"), (30, "c"), (50, "b")]

    def test_ties_broken_by_insertion_order(self):
        simulator, seen = recording_simulator()
        push(simulator, 10, "first", EventKind.TRANSACTION_DONE)
        push(simulator, 10, "second")
        simulator.run([])
        assert [payload for _, payload in seen] == ["first", "second"]
        assert simulator.events.batches == 1

    def test_arrivals_run_before_events_at_the_same_time(self):
        # The loop compares the next arrival with the heap's earliest time:
        # arrivals at time T run before every dynamic event at time T.
        simulator, seen = recording_simulator()
        arrivals = []
        simulator._handle_arrival = lambda io: arrivals.append(len(seen))
        push(simulator, 42, "event")
        io = IORequest(kind=IOKind.READ, offset_bytes=0, size_bytes=2048, arrival_ns=42)
        simulator.run([io])
        assert arrivals == [0]
        assert seen == [(42, "event")]
        assert simulator.events.batches == 2

    def test_len_counts_pending_events(self):
        simulator, _ = recording_simulator()
        assert len(simulator.events) == 0
        push(simulator, 1, "a")
        assert len(simulator.events) == 1
        simulator.run([])
        assert len(simulator.events) == 0

    def test_negative_time_rejected(self, monkeypatch):
        # A handler refuses to schedule at a negative time (here the DMA
        # engine reports a negative completion for the first composition).
        simulator = SSDSimulator(SimulationConfig.small(gc_enabled=False), "VAS")
        monkeypatch.setattr(simulator.dma, "begin", lambda now_ns, size_bytes: -1)
        io = IORequest(kind=IOKind.READ, offset_bytes=0, size_bytes=2048, arrival_ns=0)
        with pytest.raises(ValueError, match="non-negative"):
            simulator.run([io])

    def test_processed_counter(self):
        simulator, _ = recording_simulator()
        push(simulator, 1, "a")
        simulator.run([])
        assert simulator.events.processed == 1

    def test_handlers_push_plain_tuples(self):
        # Heap entries are (time_ns, sequence, kind, payload) tuples with
        # unique sequence numbers, so comparisons never reach the payload.
        simulator = SSDSimulator(SimulationConfig.small(gc_enabled=False), "SPK3")
        snapshots = []
        compose = simulator._handle_compose_done

        def snapshot_then_compose(request):
            snapshots.extend(simulator.events.heap)
            compose(request)

        simulator._handle_compose_done = snapshot_then_compose
        workload = [
            IORequest(kind=IOKind.WRITE, offset_bytes=i * 8192, size_bytes=8192, arrival_ns=i * 100)
            for i in range(8)
        ]
        simulator.run(workload)
        assert snapshots
        by_sequence = {}
        for entry in snapshots:
            time_ns, sequence, kind, _ = entry
            assert type(entry) is tuple and time_ns >= 0
            assert isinstance(sequence, int) and isinstance(kind, EventKind)
            assert by_sequence.setdefault(sequence, entry) is entry


class TestEventQueueBatching:
    """The run loop's same-timestamp batches, including re-entrant pushes."""

    def test_pop_batch_groups_same_timestamp(self):
        simulator, seen = recording_simulator()
        push(simulator, 20, "late")
        push(simulator, 10, "a")
        push(simulator, 10, "b", EventKind.TRANSACTION_DONE)
        simulator.run([])
        assert seen == [(10, "a"), (10, "b"), (20, "late")]
        events = simulator.events
        assert (events.processed, events.batches, events.largest_batch) == (3, 2, 2)

    def test_pop_batch_empty_returns_none(self):
        # An empty queue and no arrivals: the loop ends at once.
        simulator, seen = recording_simulator()
        result = simulator.run([])
        assert seen == []
        assert (result.events_processed, result.event_batches) == (0, 0)

    def test_drain_batch_matches_drain_order(self):
        # Batches hand events out in exact (time, insertion) order.
        simulator, seen = recording_simulator()
        for time_ns, payload in [(5, "a"), (1, "b"), (5, "c"), (3, "d"), (1, "e")]:
            push(simulator, time_ns, payload)
        simulator.run([])
        assert [payload for _, payload in seen] == ["b", "e", "d", "a", "c"]
        assert simulator.events.processed == 5

    def test_same_timestamp_push_mid_batch_lands_in_next_batch(self):
        # The re-entrancy contract: a handler pushing at the current batch
        # timestamp must see its event in the NEXT batch (sequences are
        # monotonic, so it sorts after everything already handed out).
        def react(simulator, payload):
            if payload == "first":
                push(simulator, simulator.now_ns, "re-entrant")

        simulator, seen = recording_simulator(react)
        push(simulator, 10, "first")
        push(simulator, 10, "second")
        simulator.run([])
        assert seen == [(10, "first"), (10, "second"), (10, "re-entrant")]
        events = simulator.events
        assert (events.processed, events.batches, events.largest_batch) == (3, 2, 2)

    def test_future_push_mid_drain_is_seen(self):
        def react(simulator, payload):
            if payload == "seed":
                push(simulator, simulator.now_ns + 4, "chained", EventKind.TRANSACTION_DONE)

        simulator, seen = recording_simulator(react)
        push(simulator, 1, "seed")
        simulator.run([])
        assert seen == [(1, "seed"), (5, "chained")]

    def test_past_push_mid_batch_is_processed_late(self):
        # Scheduling into the past is a contract violation; the loop does
        # not lose the event, but it is handed out after the current batch,
        # i.e. out of timestamp order.  This pins the documented behaviour.
        def react(simulator, payload):
            if payload == "now":
                push(simulator, 3, "past")

        simulator, seen = recording_simulator(react)
        push(simulator, 10, "now")
        simulator.run([])
        assert seen == [(10, "now"), (3, "past")]

    def test_generators_restart_after_exhaustion(self):
        # The heap drains between two distant arrivals; events pushed after
        # that are handed out again, and the counters keep accumulating.
        def arrive(io):
            push(simulator, io.arrival_ns + 1, io.arrival_ns)

        simulator, seen = recording_simulator()
        simulator._handle_arrival = arrive
        workload = [
            IORequest(kind=IOKind.READ, offset_bytes=0, size_bytes=2048, arrival_ns=t)
            for t in (0, 1_000)
        ]
        simulator.run(workload)
        assert seen == [(1, 0), (1_001, 1_000)]
        assert simulator.events.processed == 4
        assert simulator.events.batches == 4

    def test_processed_counts_batches_and_singles_consistently(self):
        # processed counts events, batches counts timestamps.
        simulator, _ = recording_simulator()
        for time_ns in (1, 1, 2, 3, 3, 3):
            push(simulator, time_ns, None)
        simulator.run([])
        events = simulator.events
        assert events.processed == 6
        assert events.batches == 3
        assert events.largest_batch == 3
        assert len(events) == 0

    def test_a_fresh_queue_is_empty(self):
        events = EventQueue()
        assert len(events) == events.processed == events.batches == events.largest_batch == 0


class TestSimulationConfig:
    def test_defaults_valid(self):
        config = SimulationConfig()
        assert config.queue_depth == 64
        assert config.geometry.num_chips == 64

    def test_small_profile(self):
        config = SimulationConfig.small()
        assert config.geometry.num_chips == 8

    def test_paper_scale_chip_counts(self):
        assert SimulationConfig.paper_scale(64).geometry.num_chips == 64
        assert SimulationConfig.paper_scale(256).geometry.num_chips == 256
        assert SimulationConfig.paper_scale(1024).geometry.num_chips == 1024

    def test_paper_scale_channel_split(self):
        assert SimulationConfig.paper_scale(64).geometry.num_channels == 8
        assert SimulationConfig.paper_scale(1024).geometry.num_channels == 32

    def test_paper_scale_rejects_bad_count(self):
        with pytest.raises(ValueError):
            SimulationConfig.paper_scale(60)

    def test_with_overrides_returns_copy(self):
        config = SimulationConfig()
        other = config.with_overrides(queue_depth=8)
        assert other.queue_depth == 8
        assert config.queue_depth == 64

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(queue_depth=0),
            dict(overprovisioning_fraction=-0.1),
            dict(prefill_fraction=-0.1),
            dict(prefill_fraction=1.0),
            dict(prefill_overwrite_fraction=1.0),
            # The two preconditioners are alternatives.
            dict(prefill_fraction=0.5, device_state=DeviceState()),
            # Prefill sized from physical capacity must fit the logical space.
            dict(
                prefill_fraction=0.95,
                prefill_overwrite_fraction=0.0,
                overprovisioning_fraction=0.1,
            ),
        ],
    )
    def test_validation(self, overrides):
        with pytest.raises(ValueError):
            SimulationConfig(**overrides)

    def test_custom_geometry(self):
        geometry = SSDGeometry(num_channels=2, chips_per_channel=2)
        config = SimulationConfig(geometry=geometry)
        assert config.geometry.num_chips == 4


class TestCanonicalizeSets:
    """Sets and frozensets must canonicalize deterministically.

    Device models carry ``tags`` as a frozenset; before PR 7,
    ``canonicalize`` rejected set types outright, and a naive
    ``tuple(the_set)`` would have made fingerprints depend on hash-iteration
    order - silently unstable across processes with randomized hashing.
    """

    def test_equal_sets_fingerprint_identically(self):
        from repro.sim.config import stable_fingerprint

        assert stable_fingerprint({"b", "a", "c"}) == stable_fingerprint({"c", "a", "b"})
        assert stable_fingerprint(frozenset({1, 2, 3})) == stable_fingerprint(
            frozenset({3, 2, 1})
        )

    def test_set_and_frozenset_are_interchangeable(self):
        from repro.sim.config import stable_fingerprint

        assert stable_fingerprint({"a", "b"}) == stable_fingerprint(frozenset({"a", "b"}))

    def test_canonical_form_is_sorted_and_tagged(self):
        from repro.sim.config import canonicalize

        assert canonicalize({"b", "a"}) == ("set", "a", "b")

    def test_set_differs_from_equivalent_tuple(self):
        from repro.sim.config import stable_fingerprint

        assert stable_fingerprint({"a", "b"}) != stable_fingerprint(("a", "b"))

    def test_golden_fingerprint_is_pinned(self):
        # Regression pin: this exact value must survive refactors, or every
        # cached result computed against a tagged device silently invalidates.
        from repro.sim.config import stable_fingerprint

        assert (
            stable_fingerprint(frozenset({"mlc", "gen2", "paper"}))
            == stable_fingerprint(frozenset({"paper", "gen2", "mlc"}))
            == "a272641355f0d3eae01fa487a2206afc2462a00d114d980e6d3bc3788ba54f39"
        )
