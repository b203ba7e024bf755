"""Tests for the FlashChip and Channel resource models.

The flash controller does the chips' and channels' occupancy accounting
when it issues a transaction, so the accounting is driven through
:class:`~repro.flash.controller.FlashController` here.
"""

import pytest

from repro.flash.chip import FlashChip
from repro.flash.commands import FlashOp
from repro.flash.geometry import PhysicalPageAddress
from repro.flash.request import MemoryRequest
from repro.flash.timing import FlashTiming
from repro.flash.transaction import TransactionBuilder
from repro.ftl.garbage_collector import GCJob


def start(controller, now_ns, op=FlashOp.READ, chip=(0, 0), size_bytes=2048):
    """Commit one request to ``chip`` and start it; returns the completion time."""
    request = MemoryRequest(
        io_id=1,
        op=op,
        lpn=0,
        size_bytes=size_bytes,
        address=PhysicalPageAddress(channel=chip[0], chip=chip[1], die=0, plane=0, block=0, page=0),
    )
    controller.commit(request, now_ns)
    return controller.start_transaction(chip, now_ns)


def gc_job(duration_ns, chip=(0, 0)):
    return GCJob(
        chip_key=chip,
        die=0,
        plane=0,
        victim_block=1,
        migrated_lpns=[],
        moves=[],
        duration_ns=duration_ns,
    )


class TestFlashChip:
    def test_initial_state(self, small_geometry):
        chip = FlashChip((0, 0), small_geometry)
        assert chip.busy_until == 0
        free = sum(plane.free_pages for plane in chip.iter_planes())
        assert free == small_geometry.pages_per_chip

    def test_plane_lookup(self, small_geometry):
        chip = FlashChip((1, 0), small_geometry)
        plane = chip.plane(1, 1)
        assert plane.plane_key == (1, 0, 1, 1)
        assert len(list(chip.iter_planes())) == small_geometry.planes_per_chip

    def test_occupy_sets_busy_until(self, controller):
        complete = start(controller, 100)
        chip = controller.chips[(0, 0)]
        assert chip.busy_until == complete > 100
        assert chip.stats.busy_time_ns == complete - 100
        assert chip.stats.last_busy_start_ns == 100

    def test_occupy_accumulates(self, controller):
        first = start(controller, 0)
        controller.finish_transaction((0, 0), first)
        second = start(controller, first + 50)
        chip = controller.chips[(0, 0)]
        assert chip.stats.busy_time_ns == first + (second - first - 50)
        assert chip.busy_until == second

    def test_occupy_rejects_negative_interval(self, controller):
        with pytest.raises(ValueError):
            controller.execute_prebuilt(gc_job(duration_ns=-50), 100)

    def test_utilization(self, controller):
        complete = controller.execute_prebuilt(gc_job(duration_ns=500), 0)
        chip = controller.chips[(0, 0)]
        assert complete == 500
        assert chip.utilization(1000) == pytest.approx(0.5)
        assert chip.utilization(0) == 0.0

    def test_utilization_clamped_to_one(self, controller):
        controller.execute_prebuilt(gc_job(duration_ns=2000), 0)
        assert controller.chips[(0, 0)].utilization(1000) == 1.0

    def test_record_transaction_and_intra_idleness(self, controller):
        complete = start(controller, 0)
        transaction = controller.active[(0, 0)]
        stats = controller.chips[(0, 0)].stats
        assert stats.transactions == 1
        assert stats.requests_served == 1
        assert stats.cell_time_ns == transaction.cell_time_ns
        assert stats.bus_time_ns == transaction.bus_time_ns
        assert stats.die_active_time_ns == transaction.die_active_time_ns
        # One die active for its read out of 2 dies x the busy time.
        expected = 1.0 - transaction.die_active_time_ns / (2 * complete)
        assert controller.chips[(0, 0)].intra_chip_idleness() == pytest.approx(expected)

    def test_intra_idleness_sentinel_when_never_busy(self, small_geometry):
        # -1.0 distinguishes "did no work" from a busy chip whose dies were
        # fully covered (a genuine 0.0); averaging layers exclude it.
        chip = FlashChip((0, 0), small_geometry)
        assert chip.intra_chip_idleness() == -1.0

    def test_gc_transaction_counter(self, controller):
        controller.execute_prebuilt(gc_job(duration_ns=10), 0)
        stats = controller.chips[(0, 0)].stats
        assert stats.gc_transactions == 1
        assert stats.bus_time_ns == 0
        assert controller.channel.stats.transfers == 0


class TestChannel:
    """Bus reservations of program transactions on the chips of channel 0."""

    def test_reserve_when_free(self, controller):
        start(controller, 100, op=FlashOp.PROGRAM)
        transaction = controller.active[(0, 0)]
        assert transaction.bus_started_at_ns == 100
        assert transaction.bus_wait_ns == 0
        assert controller.channel.free_at_ns == 100 + transaction.bus_time_ns

    def test_reserve_waits_when_busy(self, controller):
        start(controller, 0, op=FlashOp.PROGRAM, chip=(0, 0))
        bus_ns = controller.active[(0, 0)].bus_time_ns
        start(controller, 20, op=FlashOp.PROGRAM, chip=(0, 1))
        second = controller.active[(0, 1)]
        assert second.bus_started_at_ns == bus_ns
        assert second.bus_wait_ns == bus_ns - 20
        assert controller.channel.free_at_ns == bus_ns + second.bus_time_ns

    def test_contention_accumulates(self, controller):
        start(controller, 0, op=FlashOp.PROGRAM, chip=(0, 0))
        start(controller, 0, op=FlashOp.PROGRAM, chip=(0, 1))
        bus_ns = controller.active[(0, 0)].bus_time_ns
        stats = controller.channel.stats
        assert stats.contention_time_ns == bus_ns
        assert stats.busy_time_ns == 2 * bus_ns
        assert stats.transfers == 2

    def test_bytes_tracked(self, controller):
        start(controller, 0, size_bytes=4096)
        assert controller.channel.stats.bytes_moved == 4096

    def test_is_busy(self, controller):
        start(controller, 0, op=FlashOp.PROGRAM, chip=(0, 0))
        free_at = controller.channel.free_at_ns
        # Free again exactly when the transfer ends: no wait at that time.
        start(controller, free_at, op=FlashOp.PROGRAM, chip=(0, 1))
        second = controller.active[(0, 1)]
        assert (second.bus_started_at_ns, second.bus_wait_ns) == (free_at, 0)

    def test_negative_duration_rejected(self, controller, small_geometry):
        # A (mis)configured negative transaction overhead prices a negative
        # bus phase, which the reservation refuses.
        timing = FlashTiming(transaction_overhead_ns=-10**9)
        controller.builder = TransactionBuilder(small_geometry, timing)
        with pytest.raises(ValueError):
            start(controller, 0)
