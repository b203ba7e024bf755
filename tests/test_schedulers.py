"""Tests for the device-level schedulers (VAS, PAS, Sprinkler variants)."""

import pytest

from repro.core.pas import PhysicalAddressScheduler
from repro.core.policies import SCHEDULER_NAMES, make_scheduler
from repro.core.scheduler import SchedulerContext
from repro.core.sprinkler import Sprinkler
from repro.core.vas import VirtualAddressScheduler
from repro.flash.channel import Channel
from repro.flash.chip import FlashChip
from repro.flash.commands import FlashOp
from repro.flash.controller import FlashController
from repro.flash.geometry import PhysicalPageAddress
from repro.flash.request import MemoryRequest
from repro.flash.transaction import TransactionBuilder
from repro.nvmhc.tag import Tag
from repro.workloads.request import IOKind, IORequest


@pytest.fixture
def context(small_geometry, fast_timing):
    builder = TransactionBuilder(small_geometry, fast_timing)
    controllers = {}
    for channel_id in range(small_geometry.num_channels):
        chips = {
            key: FlashChip(key, small_geometry)
            for key in small_geometry.iter_chip_keys()
            if key[0] == channel_id
        }
        controllers[channel_id] = FlashController(Channel(channel_id), chips, builder)
    return SchedulerContext(geometry=small_geometry, controllers=controllers)


def build_tag(geometry, chip_pages, kind=IOKind.READ, arrival=0, fua=False):
    """Build a tag whose memory requests target the given (chip, die, plane) tuples.

    Records the chip mask the way the simulator's preprocessor does.
    """
    io = IORequest(
        kind=kind,
        offset_bytes=0,
        size_bytes=2048 * max(1, len(chip_pages)),
        arrival_ns=arrival,
        force_unit_access=fua,
    )
    tag = Tag(io=io, enqueued_at_ns=arrival)
    op = FlashOp.PROGRAM if kind is IOKind.WRITE else FlashOp.READ
    for index, (chip, die, plane) in enumerate(chip_pages):
        channel, chip_idx = chip
        request = MemoryRequest(
            io_id=io.io_id,
            op=op,
            lpn=index,
            size_bytes=2048,
            address=PhysicalPageAddress(channel, chip_idx, die, plane, 0, index),
        )
        tag.memory_requests.append(request)
        tag.by_chip.setdefault(chip, []).append(request)
    tag.chip_mask = geometry.chip_mask(tag.by_chip)
    return tag


def drain(scheduler, limit=64, now=0):
    """Pull compositions until the scheduler stalls, marking them composed."""
    picked = []
    for _ in range(limit):
        request = scheduler.next_composition(now)
        if request is None:
            break
        request.composed_at_ns = now
        tag = scheduler.tags.get(request.io_id)
        if tag is not None:
            tag.composed_count += 1
        picked.append(request)
    return picked


class TestSchedulerContext:
    def test_controller_for_and_outstanding(self, context):
        controller = context.controller_for((1, 0))
        assert controller is context.controllers[1]
        assert context.outstanding((1, 0)) == 0
        assert not context.chip_has_outstanding((1, 0))


class TestVAS:
    def test_strict_fifo_order(self, context):
        scheduler = VirtualAddressScheduler(context)
        first = build_tag(context.geometry, [((0, 0), 0, 0), ((1, 0), 0, 0)])
        second = build_tag(context.geometry, [((0, 1), 0, 0)])
        scheduler.register_tag(first, 0)
        scheduler.register_tag(second, 0)
        picked = drain(scheduler)
        assert [req.io_id for req in picked[:2]] == [first.io_id, first.io_id]
        assert picked[2].io_id == second.io_id

    def test_blocks_on_chip_conflict(self, context):
        scheduler = VirtualAddressScheduler(context)
        blocker = build_tag(context.geometry, [((0, 0), 0, 0)])
        scheduler.register_tag(blocker, 0)
        request = scheduler.next_composition(0)
        request.composed_at_ns = 0
        blocker.composed_count += 1
        # Commit the blocker to the controller: chip (0,0) now has outstanding work.
        context.controllers[0].commit(request, 0)
        conflicting = build_tag(context.geometry, [((0, 0), 1, 1), ((1, 1), 0, 0)])
        scheduler.register_tag(conflicting, 0)
        # VAS refuses to start the next I/O while any of its chips is busy.
        assert scheduler.next_composition(0) is None

    def test_unblocks_after_completion(self, context):
        scheduler = VirtualAddressScheduler(context)
        blocker = build_tag(context.geometry, [((0, 0), 0, 0)])
        scheduler.register_tag(blocker, 0)
        request = scheduler.next_composition(0)
        request.composed_at_ns = 0
        blocker.composed_count += 1
        controller = context.controllers[0]
        controller.commit(request, 0)
        conflicting = build_tag(context.geometry, [((0, 0), 1, 1)])
        scheduler.register_tag(conflicting, 0)
        assert scheduler.next_composition(0) is None
        controller.start_transaction((0, 0), 0)
        controller.finish_transaction((0, 0), 100)
        assert scheduler.next_composition(100) is not None

    def test_empty_queue(self, context):
        scheduler = VirtualAddressScheduler(context)
        assert scheduler.next_composition(0) is None

    def test_retire_removes_tag(self, context):
        scheduler = VirtualAddressScheduler(context)
        tag = build_tag(context.geometry, [((0, 0), 0, 0)])
        scheduler.register_tag(tag, 0)
        scheduler.on_tag_retired(tag)
        assert scheduler.tags == {}


class TestPAS:
    def test_skips_conflicting_io(self, context):
        scheduler = PhysicalAddressScheduler(context)
        blocker = build_tag(context.geometry, [((0, 0), 0, 0)])
        scheduler.register_tag(blocker, 0)
        request = scheduler.next_composition(0)
        request.composed_at_ns = 0
        blocker.composed_count += 1
        context.controllers[0].commit(request, 0)
        conflicting = build_tag(context.geometry, [((0, 0), 1, 1)])
        independent = build_tag(context.geometry, [((1, 1), 0, 0)])
        scheduler.register_tag(conflicting, 0)
        scheduler.register_tag(independent, 0)
        picked = scheduler.next_composition(0)
        assert picked.io_id == independent.io_id

    def test_finishes_started_io_first(self, context):
        scheduler = PhysicalAddressScheduler(context)
        big = build_tag(context.geometry, [((0, 0), 0, 0), ((0, 0), 0, 1)])
        other = build_tag(context.geometry, [((1, 1), 0, 0)])
        scheduler.register_tag(big, 0)
        scheduler.register_tag(other, 0)
        first = scheduler.next_composition(0)
        first.composed_at_ns = 0
        big.composed_count += 1
        second = scheduler.next_composition(0)
        assert second.io_id == big.io_id

    def test_stalls_when_everything_conflicts(self, context):
        scheduler = PhysicalAddressScheduler(context)
        blocker = build_tag(context.geometry, [((0, 0), 0, 0)])
        scheduler.register_tag(blocker, 0)
        request = scheduler.next_composition(0)
        request.composed_at_ns = 0
        blocker.composed_count += 1
        context.controllers[0].commit(request, 0)
        conflicting = build_tag(context.geometry, [((0, 0), 1, 1)])
        scheduler.register_tag(conflicting, 0)
        assert scheduler.next_composition(0) is None

    def test_does_not_bypass_fua(self, context):
        scheduler = PhysicalAddressScheduler(context)
        blocker = build_tag(context.geometry, [((0, 0), 0, 0)])
        scheduler.register_tag(blocker, 0)
        request = scheduler.next_composition(0)
        request.composed_at_ns = 0
        blocker.composed_count += 1
        context.controllers[0].commit(request, 0)
        fua_tag = build_tag(context.geometry, [((0, 0), 1, 0)], fua=True)
        later = build_tag(context.geometry, [((1, 1), 0, 0)])
        scheduler.register_tag(fua_tag, 0)
        scheduler.register_tag(later, 0)
        # The conflicting FUA request blocks reordering past it.
        assert scheduler.next_composition(0) is None


class TestSprinklerVariants:
    def test_names_and_flags(self, context):
        assert Sprinkler(context, use_rios=False, use_faro=True).name == "SPK1"
        assert Sprinkler(context, use_rios=True, use_faro=False).name == "SPK2"
        assert Sprinkler(context, use_rios=True, use_faro=True).name == "SPK3"
        assert Sprinkler(context, use_rios=True, use_faro=True).allows_overcommit

    def test_spk2_spreads_across_chips(self, context):
        scheduler = Sprinkler(context, use_rios=True, use_faro=False)
        # One I/O with two requests per chip on two different chips.
        tag = build_tag(context.geometry, 
            [((0, 0), 0, 0), ((0, 0), 0, 1), ((1, 0), 0, 0), ((1, 0), 0, 1)]
        )
        scheduler.register_tag(tag, 0)
        picked = drain(scheduler, limit=2)
        assert picked[0].chip_key != picked[1].chip_key

    def test_spk3_bursts_per_chip(self, context):
        scheduler = Sprinkler(context, use_rios=True, use_faro=True)
        tag = build_tag(context.geometry, 
            [((0, 0), 0, 0), ((0, 0), 1, 1), ((1, 0), 0, 0), ((1, 0), 1, 1)]
        )
        scheduler.register_tag(tag, 0)
        picked = drain(scheduler, limit=2)
        # FARO over-commits the whole chip burst before moving on.
        assert picked[0].chip_key == picked[1].chip_key

    def test_spk3_burst_extends_die_plane_coverage_first(self, context):
        scheduler = Sprinkler(context, use_rios=True, use_faro=True)
        tag = build_tag(context.geometry, 
            [((0, 0), 0, 0), ((0, 0), 0, 0), ((0, 0), 1, 1)]
        )
        scheduler.register_tag(tag, 0)
        picked = drain(scheduler, limit=2)
        targets = {(req.address.die, req.address.plane) for req in picked}
        assert targets == {(0, 0), (1, 1)}

    def test_spk1_prefers_deepest_chip(self, context):
        scheduler = Sprinkler(context, use_rios=False, use_faro=True)
        shallow = build_tag(context.geometry, [((0, 0), 0, 0)])
        deep = build_tag(context.geometry, [((1, 1), 0, 0), ((1, 1), 1, 1), ((1, 1), 0, 1)])
        scheduler.register_tag(shallow, 0)
        scheduler.register_tag(deep, 0)
        picked = scheduler.next_composition(0)
        assert picked.chip_key == (1, 1)

    def test_spk_ignores_chip_conflicts(self, context):
        scheduler = Sprinkler(context, use_rios=True, use_faro=True)
        tag = build_tag(context.geometry, [((0, 0), 0, 0)])
        scheduler.register_tag(tag, 0)
        request = scheduler.next_composition(0)
        request.composed_at_ns = 0
        tag.composed_count += 1
        context.controllers[0].commit(request, 0)
        # Over-commitment: a second request to the same chip is still composed.
        second = build_tag(context.geometry, [((0, 0), 1, 1)])
        scheduler.register_tag(second, 0)
        assert scheduler.next_composition(0) is not None

    def test_fua_forces_fifo(self, context):
        scheduler = Sprinkler(context, use_rios=True, use_faro=True)
        first = build_tag(context.geometry, [((1, 1), 0, 0)], fua=True)
        second = build_tag(context.geometry, [((0, 0), 0, 0)])
        scheduler.register_tag(first, 0)
        scheduler.register_tag(second, 0)
        picked = scheduler.next_composition(0)
        assert picked.io_id == first.io_id

    def test_every_request_composed_exactly_once(self, context):
        scheduler = Sprinkler(context, use_rios=True, use_faro=True)
        tags = [
            build_tag(context.geometry, [((0, 0), 0, 0), ((1, 0), 0, 0)]),
            build_tag(context.geometry, [((0, 1), 0, 0), ((1, 1), 1, 1)]),
        ]
        for tag in tags:
            scheduler.register_tag(tag, 0)
        picked = drain(scheduler, limit=32)
        expected = sum(len(tag.memory_requests) for tag in tags)
        assert len(picked) == expected
        assert len({req.request_id for req in picked}) == expected


class TestFactory:
    @pytest.mark.parametrize("name", SCHEDULER_NAMES)
    def test_make_all_schedulers(self, context, name):
        scheduler = make_scheduler(name, context)
        assert scheduler.name == name

    def test_lowercase_accepted(self, context):
        assert make_scheduler("spk3", context).name == "SPK3"

    def test_unknown_rejected(self, context):
        with pytest.raises(ValueError):
            make_scheduler("FIFO", context)

    def test_vas_rejects_options(self, context):
        with pytest.raises(TypeError):
            make_scheduler("VAS", context, overcommit_limit=4)

    def test_sprinkler_accepts_options(self, context):
        scheduler = make_scheduler("SPK3", context, overcommit_limit=4)
        assert scheduler.overcommit_limit == 4
