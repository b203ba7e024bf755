"""Tests for the event queue and simulation configuration."""

import pytest

from repro.flash.geometry import SSDGeometry
from repro.sim.config import SimulationConfig
from repro.sim.events import Event, EventKind, EventQueue


class TestEventQueue:
    def test_pops_in_time_order(self):
        queue = EventQueue()
        queue.push(50, EventKind.IO_ARRIVAL, "b")
        queue.push(10, EventKind.IO_ARRIVAL, "a")
        queue.push(30, EventKind.IO_ARRIVAL, "c")
        assert [queue.pop().payload for _ in range(3)] == ["a", "c", "b"]

    def test_ties_broken_by_insertion_order(self):
        queue = EventQueue()
        queue.push(10, EventKind.IO_ARRIVAL, "first")
        queue.push(10, EventKind.COMPOSE_DONE, "second")
        assert queue.pop().payload == "first"
        assert queue.pop().payload == "second"

    def test_peek_time(self):
        queue = EventQueue()
        assert queue.peek_time() is None
        queue.push(42, EventKind.IO_ARRIVAL)
        assert queue.peek_time() == 42

    def test_len_and_bool(self):
        queue = EventQueue()
        assert not queue
        queue.push(1, EventKind.IO_ARRIVAL)
        assert queue
        assert len(queue) == 1

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            EventQueue().pop()

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            EventQueue().push(-1, EventKind.IO_ARRIVAL)

    def test_processed_counter(self):
        queue = EventQueue()
        queue.push(1, EventKind.IO_ARRIVAL)
        queue.pop()
        assert queue.processed == 1

    def test_event_ordering_dataclass(self):
        early = Event(time_ns=1, sequence=0, kind=EventKind.IO_ARRIVAL)
        late = Event(time_ns=2, sequence=0, kind=EventKind.IO_ARRIVAL)
        assert early < late

    def test_push_returns_nothing(self):
        # Regression: push used to leak the raw heap tuple, and callers
        # compared it against drained entries - an internal representation
        # that is free to change.  Scheduling is fire-and-forget.
        queue = EventQueue()
        assert queue.push(5, EventKind.IO_ARRIVAL, "p") is None


class TestEventQueueBatching:
    """pop_batch / drain_batch semantics, including re-entrant pushes."""

    def test_pop_batch_groups_same_timestamp(self):
        queue = EventQueue()
        queue.push(20, EventKind.IO_ARRIVAL, "late")
        queue.push(10, EventKind.IO_ARRIVAL, "a")
        queue.push(10, EventKind.COMPOSE_DONE, "b")
        time_ns, batch = queue.pop_batch()
        assert time_ns == 10
        assert [entry[3] for entry in batch] == ["a", "b"]
        assert queue.processed == 2
        time_ns, batch = queue.pop_batch()
        assert time_ns == 20
        assert [entry[3] for entry in batch] == ["late"]
        assert queue.processed == 3

    def test_pop_batch_empty_returns_none(self):
        queue = EventQueue()
        assert queue.pop_batch() is None
        queue.push(1, EventKind.IO_ARRIVAL)
        queue.pop_batch()
        assert queue.pop_batch() is None
        assert queue.processed == 1

    def test_drain_batch_matches_drain_order(self):
        def load(queue):
            for time_ns, payload in [(5, "a"), (1, "b"), (5, "c"), (3, "d"), (1, "e")]:
                queue.push(time_ns, EventKind.IO_ARRIVAL, payload)

        plain, batched = EventQueue(), EventQueue()
        load(plain)
        load(batched)
        flat_order = [entry[3] for entry in plain.drain()]
        batch_order = [
            entry[3] for _, batch in batched.drain_batch() for entry in batch
        ]
        assert batch_order == flat_order == ["b", "e", "d", "a", "c"]
        assert batched.processed == plain.processed == 5

    def test_same_timestamp_push_mid_batch_lands_in_next_batch(self):
        # The re-entrancy contract: a handler pushing at the current batch
        # timestamp must see its event in the NEXT batch - exactly where
        # per-event drain() would have processed it (sequences are
        # monotonic, so it sorts after everything already handed out).
        queue = EventQueue()
        queue.push(10, EventKind.IO_ARRIVAL, "first")
        steps = []
        for time_ns, batch in queue.drain_batch():
            steps.append((time_ns, [entry[3] for entry in batch]))
            if len(steps) == 1:
                queue.push(10, EventKind.COMPOSE_DONE, "re-entrant")
        assert steps == [(10, ["first"]), (10, ["re-entrant"])]
        assert queue.processed == 2

    def test_future_push_mid_drain_is_seen(self):
        queue = EventQueue()
        queue.push(1, EventKind.IO_ARRIVAL, "seed")
        seen = []
        for time_ns, batch in queue.drain_batch():
            for entry in batch:
                seen.append(entry[3])
                if entry[3] == "seed":
                    queue.push(time_ns + 4, EventKind.TRANSACTION_DONE, "chained")
        assert seen == ["seed", "chained"]

    def test_past_push_mid_batch_is_processed_late(self):
        # Scheduling into the past is a contract violation; the queue does
        # not lose the event, but it is handed out after the current batch,
        # i.e. out of timestamp order.  This pins the documented behaviour.
        queue = EventQueue()
        queue.push(10, EventKind.IO_ARRIVAL, "now")
        steps = []
        for time_ns, batch in queue.drain_batch():
            steps.append((time_ns, [entry[3] for entry in batch]))
            if len(steps) == 1:
                queue.push(3, EventKind.IO_ARRIVAL, "past")
        assert steps == [(10, ["now"]), (3, ["past"])]

    def test_generators_restart_after_exhaustion(self):
        # Draining to empty ends the generator; a fresh drain()/drain_batch()
        # call on the same queue picks up events pushed afterwards, and the
        # processed counter keeps accumulating across restarts.
        queue = EventQueue()
        queue.push(1, EventKind.IO_ARRIVAL, "a")
        assert [entry[3] for entry in queue.drain()] == ["a"]
        assert queue.pop_batch() is None
        queue.push(2, EventKind.IO_ARRIVAL, "b")
        queue.push(2, EventKind.IO_ARRIVAL, "c")
        assert [
            entry[3] for _, batch in queue.drain_batch() for entry in batch
        ] == ["b", "c"]
        assert queue.processed == 3

    def test_processed_counts_batches_and_singles_consistently(self):
        queue = EventQueue()
        for time_ns in (1, 1, 2, 3, 3, 3):
            queue.push(time_ns, EventKind.IO_ARRIVAL)
        queue.pop()  # one event
        queue.pop_batch()  # remainder of the t=1 batch
        for _ in queue.drain_batch():  # t=2 and t=3 batches
            pass
        assert queue.processed == 6
        assert len(queue) == 0


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
            dict(compose_ns=-1),
            dict(decision_window_ns=-1),
            dict(prefill_fraction=1.0),
            dict(prefill_overwrite_fraction=1.0),
            dict(stale_penalty_ns=-1),
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
