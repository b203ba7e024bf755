"""Tests for the readdressing callback."""

import dataclasses
import itertools
import random

import pytest

from repro.flash.commands import FlashOp
from repro.flash.geometry import PhysicalPageAddress
from repro.flash.request import MemoryRequest
from repro.ftl.callbacks import STALE_PENALTY_NS, CallbackStats, ReaddressingCallback
from repro.lifetime.state import DeviceState
from repro.sim.config import SimulationConfig, stable_fingerprint
from repro.sim.ssd import SSDSimulator
from repro.workloads.synthetic import generate_random_workload


def address(channel=0, chip=0, die=0, plane=0, block=0, page=0):
    return PhysicalPageAddress(channel, chip, die, plane, block, page)


def request_at(addr, io_id=1):
    return MemoryRequest(io_id=io_id, op=FlashOp.READ, lpn=0, size_bytes=2048, address=addr)


class TestEnabledCallback:
    def test_retargets_tracked_request(self):
        callback = ReaddressingCallback(enabled=True)
        old, new = address(block=0), address(block=3)
        req = request_at(old)
        callback.track_request(req)
        callback.on_migration(7, old, new)
        assert req.address == new
        assert req.penalty_ns == 0
        assert callback.stats.requests_retargeted == 1

    @pytest.mark.parametrize("batched", [False, True])
    def test_committed_source_seeds_the_index_at_the_first_migration(self, batched):
        old, new = address(block=0), address(block=3)
        req = request_at(old)
        reads = []
        callback = ReaddressingCallback(committed=lambda: reads.append(1) or [req])
        assert not callback.tracking and reads == []
        if batched:
            callback.on_migrations([7], [(old, new)])
            callback.on_migrations([8], [(address(block=1), address(block=4))])
        else:
            callback.on_migration(7, old, new)
            callback.on_migration(8, address(block=1), address(block=4))
        assert callback.tracking and reads == [1]
        assert req.address == new
        assert callback.stats.requests_retargeted == 1

    def test_untracked_request_not_touched(self):
        callback = ReaddressingCallback(enabled=True)
        old, new = address(block=0), address(block=3)
        req = request_at(old)
        callback.track_request(req)
        callback.untrack_request(req)
        callback.on_migration(7, old, new)
        assert req.address == old

    def test_migration_of_unrelated_address(self):
        callback = ReaddressingCallback(enabled=True)
        req = request_at(address(block=5))
        callback.track_request(req)
        callback.on_migration(7, address(block=0), address(block=3))
        assert req.address == address(block=5)

    def test_cross_plane_move_retargets(self):
        callback = ReaddressingCallback(enabled=True)
        near, far = request_at(address(block=0, page=1)), request_at(address(plane=0), io_id=2)
        callback.track_request(near)
        callback.track_request(far)
        callback.on_migration(1, address(plane=0), address(plane=1))
        callback.on_migration(2, address(block=0, page=1), address(block=2, page=1))
        assert far.address == address(plane=1)
        assert near.address == address(block=2, page=1)
        assert callback.stats.requests_retargeted == 2

    def test_track_ignores_untranslated(self):
        callback = ReaddressingCallback(enabled=True)
        req = MemoryRequest(io_id=1, op=FlashOp.READ, lpn=0, size_bytes=2048)
        callback.track_request(req)
        # Translated after the (ignored) tracking call: a migration of its
        # page must not retarget it.
        old, new = address(block=0), address(block=3)
        req.address = old
        callback.on_migration(7, old, new)
        assert req.address == old
        assert callback.stats.requests_retargeted == 0


class TestDisabledCallback:
    def test_penalty_applied_instead_of_clean_retarget(self):
        callback = ReaddressingCallback(enabled=False)
        old, new = address(block=0), address(block=4)
        req = request_at(old)
        callback.track_request(req)
        callback.on_migration(3, old, new)
        # The request still has to find the data (it is retargeted), but it
        # pays the stale re-translation penalty.
        assert req.address == new
        assert req.penalty_ns == STALE_PENALTY_NS == 25_000
        assert callback.stats.requests_penalized == 1
        assert callback.stats.requests_retargeted == 0

    def test_multiple_migrations_accumulate_penalty(self):
        callback = ReaddressingCallback(enabled=False)
        a, b, c = address(block=0), address(block=1), address(block=2)
        req = request_at(a)
        callback.track_request(req)
        callback.on_migration(3, a, b)
        callback.on_migration(3, b, c)
        assert req.penalty_ns == 2 * STALE_PENALTY_NS


def plane_address(rng, plane_key):
    return PhysicalPageAddress(*plane_key, rng.randrange(8), rng.randrange(16))


def generated_batch(seed, path):
    """A seeded migration batch that respects the ``on_migrations`` precondition.

    Returns ``(lpns, moves, tracked)``: destinations are distinct and never
    a source.  ``tracked`` lists the addresses of tracked requests: some at
    moved pages (several per page), some elsewhere, destinations included.  For
    ``path="probe"`` at most a quarter as many addresses are tracked as there
    are moves (the callback probes the move table from the pending side);
    ``"walk"`` tracks more (it walks the moves); ``"cross"`` sends some moves
    to another plane.
    """
    rng = random.Random(seed)
    planes = list(itertools.product(range(2), repeat=4))
    count = rng.randrange(8, 40)
    used = set()
    sources = []
    while len(sources) < count:
        address = plane_address(rng, rng.choice(planes))
        if address not in used:
            used.add(address)
            sources.append(address)
    moves = []
    for index, old in enumerate(sources):
        cross = path == "cross" and (index == 0 or rng.random() < 0.3)
        plane_key = rng.choice(planes) if cross else old.plane_key
        new = plane_address(rng, plane_key)
        while new in used or (cross and new.plane_key == old.plane_key):
            new = plane_address(rng, rng.choice(planes) if cross else plane_key)
        used.add(new)
        moves.append((old, new))
    if path == "probe":
        distinct = rng.randint(1, count // 4)
    else:
        distinct = rng.randint(count // 4 + 1, count + 4)
    others = [new for _, new in moves] + [plane_address(rng, rng.choice(planes)) for _ in range(8)]
    addresses = set()
    while len(addresses) < distinct:
        pool = sources if rng.random() < 0.6 else others
        addresses.add(rng.choice(pool))
    tracked = []
    for address in sorted(addresses):
        tracked += [address] * rng.randint(1, 3)
    lpns = [rng.randrange(1000) for _ in moves]
    return lpns, moves, tracked


class TestBatchedMigrations:
    """on_migrations equals a loop of on_migration under its precondition."""

    @staticmethod
    def tracking_callback(enabled, tracked):
        callback = ReaddressingCallback(enabled=enabled)
        requests = [request_at(address, io_id=io_id) for io_id, address in enumerate(tracked)]
        for request in requests:
            callback.track_request(request)
        return callback, requests

    @staticmethod
    def outcome(callback, requests):
        return (
            callback.stats,
            [(req.address, req.penalty_ns) for req in requests],
            {
                address: [req.io_id for req in bucket]
                for address, bucket in callback._pending_index.items()
            },
        )

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("path", ["probe", "walk", "cross"])
    @pytest.mark.parametrize("seed", range(8))
    def test_batch_equals_per_move_loop(self, seed, path, enabled):
        lpns, moves, tracked = generated_batch(seed, path)
        per_move, per_move_requests = self.tracking_callback(enabled, tracked)
        batch, batch_requests = self.tracking_callback(enabled, tracked)
        for lpn, (old, new) in zip(lpns, moves):
            per_move.on_migration(lpn, old, new)
        assert (path != "cross") == all(old.plane_key == new.plane_key for old, new in moves)
        probes = len(batch._pending_index) * 4 <= len(moves)
        assert probes == (path == "probe")
        batch.on_migrations(lpns, moves)
        assert self.outcome(batch, batch_requests) == self.outcome(
            per_move, per_move_requests
        )
        retargets = per_move.stats.requests_retargeted + per_move.stats.requests_penalized
        assert retargets > 0

    def test_untracked_batch_is_a_no_op(self):
        callback = ReaddressingCallback(enabled=True)
        moves = [(address(block=0), address(block=1)), (address(block=2), address(block=3))]
        callback.on_migrations([1, 2], moves)
        assert callback.stats == CallbackStats()
        assert callback._pending_index == {}


def gc_run(workload, scheduler, *, eager, config=None):
    """Run a GC-bound device; returns callback stats, result digest, queue probe.

    The device is ``config``, by default an 85%-full small one.
    ``eager=True`` indexes every committed request from the start, as the
    simulator once did; by default the index is built at the first
    migration.  The probe is the number of committed requests waiting in
    the controllers' queues when that first migration came.
    """
    if config is None:
        config = SimulationConfig.small(prefill_fraction=0.85)
    simulator = SSDSimulator(config, scheduler)
    callback = simulator.callback
    if eager:
        callback = simulator.callback = ReaddressingCallback(enabled=callback.enabled)
        callback.tracking = True
    waiting = []

    def probe(lpns, moves):
        if not callback.tracking:
            waiting.append(
                sum(
                    len(queue)
                    for controller in simulator.controllers.values()
                    for queue in controller.pending.values()
                )
            )
        callback.on_migrations(lpns, moves)

    simulator.ftl.migration_hook = probe
    result = simulator.run([dataclasses.replace(io) for io in workload])
    assert result.gc_stats.pages_migrated > 0
    return callback.stats, stable_fingerprint(result), waiting


class TestLazyIndex:
    """Indexing at the first migration equals indexing every commit."""

    @pytest.mark.parametrize("seed", range(4))
    def test_lazy_and_eager_indexing_agree(self, seed):
        config = SimulationConfig.small(prefill_fraction=0.85)
        workload = generate_random_workload(
            num_requests=150,
            size_bytes=16 * 1024,
            address_space_bytes=config.logical_pages * config.geometry.page_size_bytes // 2,
            read_fraction=0.3,
            interarrival_ns=500,
            seed=seed,
        )
        seeded = touched = 0
        for scheduler in ("SPK3", "PAS"):
            lazy_stats, lazy_digest, waiting = gc_run(workload, scheduler, eager=False)
            eager_stats, eager_digest, never = gc_run(workload, scheduler, eager=True)
            assert lazy_stats == eager_stats
            assert lazy_digest == eager_digest
            assert len(waiting) == 1 and never == []
            seeded += waiting[0]
            touched += lazy_stats.requests_retargeted + lazy_stats.requests_penalized
        # The first migration came mid-run, with committed requests to
        # index, and migrations hit tracked requests.
        assert seeded > 0
        assert touched > 0

    def test_aging_leaves_the_callback_untracked(self):
        # Steady aging collects (and moves pages) before the run; the
        # callback joins the FTL only afterwards, so it starts untracked
        # and the run indexes commits from its own first migration on -
        # with the result of indexing every commit from t=0.
        state = DeviceState(fill_fraction=0.85, invalid_fraction=0.3, seed=7, steady_state=True)
        config = SimulationConfig.small(device_state=state)
        simulator = SSDSimulator(config, "SPK3")
        assert simulator.steady_state.gc_invocations > 0
        assert simulator.callback.tracking is False
        assert simulator.callback.stats == CallbackStats()
        workload = generate_random_workload(
            num_requests=150,
            size_bytes=16 * 1024,
            address_space_bytes=config.logical_pages * config.geometry.page_size_bytes // 2,
            read_fraction=0.3,
            interarrival_ns=500,
            seed=5,
        )
        lazy_stats, lazy_digest, waiting = gc_run(workload, "SPK3", eager=False, config=config)
        eager_stats, eager_digest, _ = gc_run(workload, "SPK3", eager=True, config=config)
        assert len(waiting) == 1
        assert lazy_stats == eager_stats
        assert lazy_digest == eager_digest
