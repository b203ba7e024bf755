"""Tests for the readdressing callback."""

import itertools
import random

import pytest

from repro.flash.commands import FlashOp
from repro.flash.geometry import PhysicalPageAddress
from repro.flash.request import MemoryRequest
from repro.ftl.callbacks import CallbackStats, ReaddressingCallback


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

    def test_cross_resource_counter(self):
        callback = ReaddressingCallback(enabled=True)
        callback.on_migration(1, address(plane=0), address(plane=1))
        callback.on_migration(2, address(block=0, page=1), address(block=2, page=1))
        assert callback.stats.migrations_observed == 2
        assert callback.stats.cross_resource_migrations == 1

    def test_track_ignores_untranslated(self):
        callback = ReaddressingCallback(enabled=True)
        req = MemoryRequest(io_id=1, op=FlashOp.READ, lpn=0, size_bytes=2048)
        callback.track_request(req)
        assert callback.tracked_requests() == 0

    def test_tracked_count_and_clear(self):
        callback = ReaddressingCallback(enabled=True)
        callback.track_request(request_at(address()))
        assert callback.tracked_requests() == 1
        callback.clear()
        assert callback.tracked_requests() == 0


class TestDisabledCallback:
    def test_penalty_applied_instead_of_clean_retarget(self):
        callback = ReaddressingCallback(enabled=False, stale_penalty_ns=30_000)
        old, new = address(block=0), address(block=4)
        req = request_at(old)
        callback.track_request(req)
        callback.on_migration(3, old, new)
        # The request still has to find the data (it is retargeted), but it
        # pays the stale re-translation penalty.
        assert req.address == new
        assert req.penalty_ns == 30_000
        assert callback.stats.requests_penalized == 1
        assert callback.stats.requests_retargeted == 0

    def test_multiple_migrations_accumulate_penalty(self):
        callback = ReaddressingCallback(enabled=False, stale_penalty_ns=10_000)
        a, b, c = address(block=0), address(block=1), address(block=2)
        req = request_at(a)
        callback.track_request(req)
        callback.on_migration(3, a, b)
        callback.on_migration(3, b, c)
        assert req.penalty_ns == 20_000


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
        callback = ReaddressingCallback(enabled=enabled, stale_penalty_ns=7_000)
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
        all_same_plane = path != "cross"
        assert all_same_plane == all(old.same_plane_as(new) for old, new in moves)
        probes = len(batch._pending_index) * 4 <= len(moves)
        assert probes == (path == "probe")
        batch.on_migrations(lpns, moves, all_same_plane=all_same_plane)
        assert self.outcome(batch, batch_requests) == self.outcome(
            per_move, per_move_requests
        )
        retargets = per_move.stats.requests_retargeted + per_move.stats.requests_penalized
        assert retargets > 0

    def test_untracked_batch_counts_moves_only(self):
        callback = ReaddressingCallback(enabled=True)
        moves = [(address(block=0), address(block=1)), (address(block=2), address(block=3))]
        callback.on_migrations([1, 2], moves, all_same_plane=True)
        assert callback.stats == CallbackStats(migrations_observed=2)
