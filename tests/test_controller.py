"""Tests for the flash controller (commit queues, transaction phases)."""

import pytest

from repro.flash.channel import Channel
from repro.flash.chip import FlashChip
from repro.flash.commands import FlashOp, ParallelismClass, TransactionKind
from repro.flash.controller import FlashController
from repro.flash.geometry import PhysicalPageAddress
from repro.flash.request import MemoryRequest
from repro.flash.transaction import FlashTransaction, TransactionBuilder


@pytest.fixture
def controller(small_geometry, fast_timing):
    channel = Channel(0)
    chips = {
        key: FlashChip(key, small_geometry)
        for key in small_geometry.iter_chip_keys()
        if key[0] == 0
    }
    builder = TransactionBuilder(small_geometry, fast_timing)
    return FlashController(channel, chips, builder)


def make_request(io_id=1, op=FlashOp.READ, die=0, plane=0, page=0, chip=(0, 0)):
    channel, chip_idx = chip
    return MemoryRequest(
        io_id=io_id,
        op=op,
        lpn=page,
        size_bytes=2048,
        address=PhysicalPageAddress(
            channel=channel, chip=chip_idx, die=die, plane=plane, block=0, page=page
        ),
    )


class TestCommitQueues:
    def test_commit_tracks_pending(self, controller):
        request = make_request()
        controller.commit(request, 100)
        assert controller.pending_count((0, 0)) == 1
        assert controller.outstanding_count((0, 0)) == 1
        assert controller.has_outstanding((0, 0))
        assert request.committed_at_ns == 100

    def test_commit_to_unknown_chip_raises(self, controller):
        request = make_request(chip=(1, 0))  # channel 1 is not on this controller
        with pytest.raises(KeyError):
            controller.commit(request, 0)

    def test_busy_bits_follow_commit_and_finish(self, controller, small_geometry):
        bit = {key: small_geometry.chip_mask((key,)) for key in controller.chips}
        assert controller.chip_bits == bit
        controller.commit(make_request(chip=(0, 0)), 0)
        controller.commit(make_request(chip=(0, 1)), 0)
        assert controller.busy_bits == bit[(0, 0)] | bit[(0, 1)]
        # A started transaction keeps its chip busy until it finishes.
        first = controller.start_transaction((0, 1), 0)
        assert controller.busy_bits == bit[(0, 0)] | bit[(0, 1)]
        controller.finish_transaction((0, 1), first.complete_ns)
        assert controller.busy_bits == bit[(0, 0)]
        assert not controller.has_outstanding((0, 1))
        second = controller.start_transaction((0, 0), first.complete_ns)
        assert controller.busy_bits == bit[(0, 0)]
        controller.finish_transaction((0, 0), second.complete_ns)
        assert controller.busy_bits == 0
        assert controller.busy_transitions == controller.idle_transitions == 2


class TestTransactionExecution:
    def test_start_transaction_selects_and_removes(self, controller):
        for plane in range(2):
            controller.commit(make_request(die=0, plane=plane, page=plane), 0)
        schedule = controller.start_transaction((0, 0), 0)
        assert schedule is not None
        assert schedule.transaction.num_requests == 2
        assert controller.pending_count((0, 0)) == 0
        assert controller.active[(0, 0)] is schedule.transaction

    def test_start_transaction_none_when_empty(self, controller):
        assert controller.start_transaction((0, 0), 0) is None

    def test_start_transaction_none_when_busy(self, controller):
        controller.commit(make_request(), 0)
        first = controller.start_transaction((0, 0), 0)
        assert first is not None
        controller.commit(make_request(page=5), 0)
        assert controller.start_transaction((0, 0), 0) is None

    def test_read_phases_cell_before_bus(self, controller):
        controller.commit(make_request(op=FlashOp.READ), 0)
        schedule = controller.start_transaction((0, 0), 0)
        assert schedule.cell_start_ns == 0
        assert schedule.bus_start_ns >= schedule.cell_end_ns
        assert schedule.complete_ns == schedule.bus_end_ns

    def test_write_phases_bus_before_cell(self, controller):
        controller.commit(make_request(op=FlashOp.PROGRAM), 0)
        schedule = controller.start_transaction((0, 0), 0)
        assert schedule.bus_start_ns == 0
        assert schedule.cell_start_ns == schedule.bus_end_ns
        assert schedule.complete_ns == schedule.cell_end_ns

    def test_chip_is_busy_for_whole_transaction(self, controller):
        controller.commit(make_request(), 0)
        schedule = controller.start_transaction((0, 0), 0)
        chip = controller.chips[(0, 0)]
        assert chip.is_busy(schedule.complete_ns - 1)
        assert not chip.is_busy(schedule.complete_ns)

    def test_bus_contention_between_chips_on_channel(self, controller):
        controller.commit(make_request(op=FlashOp.PROGRAM, chip=(0, 0)), 0)
        controller.commit(make_request(op=FlashOp.PROGRAM, chip=(0, 1)), 0)
        first = controller.start_transaction((0, 0), 0)
        second = controller.start_transaction((0, 1), 0)
        assert second.bus_start_ns >= first.bus_end_ns
        assert second.bus_wait_ns > 0

    def test_finish_transaction_completes_requests(self, controller):
        request = make_request()
        controller.commit(request, 0)
        schedule = controller.start_transaction((0, 0), 0)
        transaction = controller.finish_transaction((0, 0), schedule.complete_ns)
        assert transaction is schedule.transaction
        assert request.completed_at_ns == schedule.complete_ns
        assert controller.active[(0, 0)] is None

    def test_finish_without_active_raises(self, controller):
        with pytest.raises(RuntimeError):
            controller.finish_transaction((0, 0), 0)

    def test_transaction_counter(self, controller):
        controller.commit(make_request(), 0)
        controller.start_transaction((0, 0), 0)
        assert controller.total_transactions == 1
        assert controller.total_committed == 1


class TestPrebuiltExecution:
    def test_execute_prebuilt_gc_occupies_cell_only(self, controller):
        placeholder = make_request(op=FlashOp.ERASE)
        placeholder.is_gc = True
        transaction = FlashTransaction(
            chip_key=(0, 0),
            requests=[placeholder],
            kind=TransactionKind.ERASE,
            parallelism=ParallelismClass.NON_PAL,
        )
        transaction.is_gc = True
        transaction.cell_time_ns = 5_000_000
        transaction.bus_time_ns = 0
        schedule = controller.execute_prebuilt((0, 0), transaction, 10)
        assert schedule.complete_ns == 10 + 5_000_000
        assert schedule.bus_wait_ns == 0
        assert controller.chips[(0, 0)].stats.gc_transactions == 1

    def test_execute_prebuilt_refused_when_busy(self, controller):
        controller.commit(make_request(), 0)
        controller.start_transaction((0, 0), 0)
        other = FlashTransaction(
            chip_key=(0, 0),
            requests=[make_request(page=9)],
            kind=TransactionKind.LEGACY,
            parallelism=ParallelismClass.NON_PAL,
        )
        assert controller.execute_prebuilt((0, 0), other, 0) is None
