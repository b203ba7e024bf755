"""Tests for the flash controller (commit queues, transaction phases)."""

import pytest

from repro.flash.commands import FlashOp
from repro.flash.geometry import PhysicalPageAddress
from repro.flash.request import MemoryRequest
from repro.ftl.garbage_collector import GCJob


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


def make_gc_job(chip=(0, 0), duration_ns=5_000_000):
    return GCJob(
        chip_key=chip,
        die=0,
        plane=0,
        victim_block=3,
        migrated_lpns=[],
        moves=[],
        duration_ns=duration_ns,
    )


class TestCommitQueues:
    def test_commit_tracks_pending(self, controller):
        request = make_request()
        controller.commit(request, 100)
        assert len(controller.pending[(0, 0)]) == 1
        assert controller.pending[(0, 0)] == [request]
        assert controller.busy_bits & controller.chip_bits[(0, 0)]
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
        controller.finish_transaction((0, 1), first)
        assert controller.busy_bits == bit[(0, 0)]
        assert not controller.busy_bits & controller.chip_bits[(0, 1)]
        assert controller.pending[(0, 1)] == []
        second = controller.start_transaction((0, 0), first)
        assert controller.busy_bits == bit[(0, 0)]
        controller.finish_transaction((0, 0), second)
        assert controller.busy_bits == 0
        assert controller.busy_transitions == controller.idle_transitions == 2


class TestTransactionExecution:
    def test_start_transaction_selects_and_removes(self, controller):
        for plane in range(2):
            controller.commit(make_request(die=0, plane=plane, page=plane), 0)
        complete = controller.start_transaction((0, 0), 0)
        assert complete is not None
        transaction = controller.active[(0, 0)]
        assert transaction.num_requests == 2
        assert controller.pending[(0, 0)] == []

    def test_start_transaction_keeps_the_remainder_in_order(self, controller):
        first = make_request(die=0, plane=0, page=0)
        clash = make_request(die=0, plane=0, page=1)
        write = make_request(op=FlashOp.PROGRAM, die=1, plane=0, page=2)
        second = make_request(die=1, plane=1, page=3)
        for request in (first, clash, write, second):
            controller.commit(request, 0)
        controller.start_transaction((0, 0), 0)
        assert controller.active[(0, 0)].requests == [first, second]
        assert controller.pending[(0, 0)] == [clash, write]

    def test_start_transaction_none_when_empty(self, controller):
        assert controller.start_transaction((0, 0), 0) is None

    def test_start_transaction_none_when_busy(self, controller):
        controller.commit(make_request(), 0)
        first = controller.start_transaction((0, 0), 0)
        assert first is not None
        controller.commit(make_request(page=5), 0)
        assert controller.start_transaction((0, 0), 0) is None

    def test_start_transaction_returns_none_exactly_when_nothing_started(self, controller):
        chip = controller.chips[(0, 0)]

        def attempt(now_ns):
            before = (controller.total_transactions, chip.stats.transactions, chip.busy_until)
            result = controller.start_transaction((0, 0), now_ns)
            after = (controller.total_transactions, chip.stats.transactions, chip.busy_until)
            return result, before, after

        # Nothing pending: no transaction, no state change.
        result, before, after = attempt(0)
        assert result is None and before == after and controller.active[(0, 0)] is None
        # Work pending: a transaction starts and the completion time is returned.
        controller.commit(make_request(), 0)
        result, before, after = attempt(0)
        assert result is not None
        assert after == (before[0] + 1, before[1] + 1, result)
        assert controller.active[(0, 0)] is not None
        # Chip busy with more work pending: nothing starts.
        controller.commit(make_request(page=5), 0)
        busy, before, after = attempt(result - 1)
        assert busy is None and before == after
        # Finished: the queued request starts.
        controller.finish_transaction((0, 0), result)
        again, before, after = attempt(result)
        assert again is not None and after[0] == before[0] + 1

    def test_read_phases_cell_before_bus(self, controller):
        controller.commit(make_request(op=FlashOp.READ), 0)
        complete = controller.start_transaction((0, 0), 0)
        transaction = controller.active[(0, 0)]
        cell_end = transaction.issued_at_ns + transaction.cell_time_ns
        assert transaction.issued_at_ns == 0
        assert transaction.bus_started_at_ns >= cell_end
        assert complete == transaction.bus_started_at_ns + transaction.bus_time_ns
        assert controller.chips[(0, 0)].busy_until == complete

    def test_write_phases_bus_before_cell(self, controller):
        controller.commit(make_request(op=FlashOp.PROGRAM), 0)
        complete = controller.start_transaction((0, 0), 0)
        transaction = controller.active[(0, 0)]
        bus_end = transaction.bus_started_at_ns + transaction.bus_time_ns
        assert transaction.bus_started_at_ns == 0
        assert complete == bus_end + transaction.cell_time_ns
        assert controller.chips[(0, 0)].busy_until == complete

    def test_chip_is_busy_for_whole_transaction(self, controller):
        controller.commit(make_request(), 0)
        complete = controller.start_transaction((0, 0), 0)
        assert not controller.chip_available((0, 0), complete - 1)
        controller.finish_transaction((0, 0), complete)
        assert not controller.chip_available((0, 0), complete - 1)
        assert controller.chip_available((0, 0), complete)

    def test_bus_contention_between_chips_on_channel(self, controller):
        controller.commit(make_request(op=FlashOp.PROGRAM, chip=(0, 0)), 0)
        controller.commit(make_request(op=FlashOp.PROGRAM, chip=(0, 1)), 0)
        controller.start_transaction((0, 0), 0)
        controller.start_transaction((0, 1), 0)
        first = controller.active[(0, 0)]
        second = controller.active[(0, 1)]
        assert second.bus_started_at_ns >= first.bus_started_at_ns + first.bus_time_ns
        assert second.bus_wait_ns > 0

    def test_finish_transaction_completes_requests(self, controller):
        request = make_request()
        controller.commit(request, 0)
        complete = controller.start_transaction((0, 0), 0)
        active = controller.active[(0, 0)]
        transaction = controller.finish_transaction((0, 0), complete)
        assert transaction is active
        assert transaction.requests == [request]
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
        complete = controller.execute_prebuilt(make_gc_job(duration_ns=5_000_000), 10)
        assert complete == 10 + 5_000_000
        transaction = controller.active[(0, 0)]
        assert transaction.bus_wait_ns == 0
        assert controller.channel.stats.transfers == 0
        assert controller.chips[(0, 0)].stats.gc_transactions == 1

    def test_execute_prebuilt_records_erase_as_die_activity(self, controller, fast_timing):
        controller.execute_prebuilt(make_gc_job(duration_ns=5_000_000), 0)
        stats = controller.chips[(0, 0)].stats
        assert stats.busy_time_ns == 5_000_000
        assert stats.cell_time_ns == 5_000_000
        assert stats.die_active_time_ns == fast_timing.erase_ns
        assert stats.requests_served == 1
        assert stats.bus_time_ns == 0

    def test_execute_prebuilt_refused_when_busy(self, controller):
        controller.commit(make_request(), 0)
        controller.start_transaction((0, 0), 0)
        assert controller.execute_prebuilt(make_gc_job(), 0) is None
