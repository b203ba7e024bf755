"""Tests for the NVMHC substrate: device queue, tags, DMA engine."""

import pytest

from repro.core.faro import connectivity
from repro.flash.commands import FlashOp
from repro.flash.geometry import PhysicalPageAddress
from repro.flash.request import MemoryRequest
from repro.nvmhc.dma import COMPOSE_NS, DmaEngine
from repro.nvmhc.queue import DeviceQueue
from repro.nvmhc.tag import Tag
from repro.workloads.request import IOKind, IORequest


def make_io(arrival=0, size=4096, kind=IOKind.READ, offset=0):
    return IORequest(kind=kind, offset_bytes=offset, size_bytes=size, arrival_ns=arrival)


def make_request(io_id, chip=(0, 0), die=0, plane=0, page=0):
    channel, chip_idx = chip
    return MemoryRequest(
        io_id=io_id,
        op=FlashOp.READ,
        lpn=page,
        size_bytes=2048,
        address=PhysicalPageAddress(channel, chip_idx, die, plane, 0, page),
    )


class TestDeviceQueue:
    def test_submit_within_depth(self):
        queue = DeviceQueue(depth=2)
        tag = queue.submit(make_io(), 10)
        assert tag is not None
        assert queue.occupancy == 1
        assert tag.io.enqueued_at_ns == 10

    def test_submit_overflow_goes_to_backlog(self):
        queue = DeviceQueue(depth=1)
        queue.submit(make_io(), 0)
        overflow = queue.submit(make_io(), 0)
        assert overflow is None
        assert queue.backlog_size == 1
        assert queue.is_full
        assert queue.stats.stalled_requests == 1

    def test_admit_from_backlog_after_retire(self):
        queue = DeviceQueue(depth=1)
        first = queue.submit(make_io(arrival=0), 0)
        queue.submit(make_io(arrival=5), 5)
        queue.retire(first.io_id)
        admitted = queue.admit_from_backlog(100)
        assert len(admitted) == 1
        assert queue.backlog_size == 0
        assert queue.stats.total_backlog_wait_ns == 95

    def test_tags_in_arrival_order(self):
        # A full queue backlogs requests; freed slots admit them first come,
        # first served, whatever order the slots free up in.
        queue = DeviceQueue(depth=2)
        held = [queue.submit(make_io(arrival=0), 0) for _ in range(2)]
        waiting = [make_io(arrival=i) for i in (1, 2)]
        for io in waiting:
            assert queue.submit(io, io.arrival_ns) is None
        for tag in reversed(held):
            queue.retire(tag.io_id)
        admitted = queue.admit_from_backlog(10)
        assert [tag.io_id for tag in admitted] == [io.io_id for io in waiting]

    def test_retire_frees_slot(self):
        queue = DeviceQueue(depth=1)
        tag = queue.submit(make_io(), 0)
        queue.retire(tag.io_id)
        assert queue.occupancy == 0
        assert queue.backlog_size == 0
        assert queue.stats.completed == 1

    def test_has_work_with_backlog_only(self):
        queue = DeviceQueue(depth=1)
        tag = queue.submit(make_io(), 0)
        queue.submit(make_io(), 0)
        queue.retire(tag.io_id)
        assert queue.occupancy == 0
        assert queue.backlog_size == 1

    def test_get_and_len(self):
        queue = DeviceQueue(depth=2)
        tag = queue.submit(make_io(), 0)
        assert queue.occupancy == 1
        assert queue.retire(tag.io_id) is tag

    def test_invalid_depth(self):
        with pytest.raises(ValueError):
            DeviceQueue(depth=0)


class TestTag:
    def make_tag(self, num_requests=3):
        io = make_io(size=num_requests * 2048)
        tag = Tag(io=io, enqueued_at_ns=0)
        for page in range(num_requests):
            request = make_request(io.io_id, page=page, plane=page % 2)
            tag.memory_requests.append(request)
            tag.by_chip.setdefault(request.address.chip_key, []).append(request)
        return tag

    def test_counts(self):
        tag = self.make_tag(3)
        assert len(tag.memory_requests) == 3
        assert tag.composed_count == 0
        assert tag.completed_count == 0

    def test_next_uncomposed_advances(self):
        tag = self.make_tag(2)
        first = tag.next_uncomposed()
        first.composed_at_ns = 10
        second = tag.next_uncomposed()
        assert second is not first
        second.composed_at_ns = 20
        assert tag.next_uncomposed() is None

    def test_connectivity_and_footprint(self):
        tag = self.make_tag(3)
        assert sorted(tag.by_chip) == [(0, 0)]
        assert connectivity(tag.by_chip[(0, 0)]) == 3
        assert connectivity(tag.by_chip.get((1, 1), [])) == 0


class TestDmaEngine:
    def test_composition_cost(self):
        # A fixed cost per memory request, whatever its size.
        assert COMPOSE_NS == 500
        dma = DmaEngine()
        assert dma.begin(0, 2048) == COMPOSE_NS
        assert dma.begin(COMPOSE_NS, 8192) == 2 * COMPOSE_NS

    def test_begin_sets_busy(self):
        dma = DmaEngine()
        done = dma.begin(50, 2048)
        assert done == 50 + COMPOSE_NS
        assert dma.busy_until_ns == done
        # Free again exactly at completion: the next composition may begin.
        assert dma.begin(done, 2048) == done + COMPOSE_NS

    def test_begin_while_busy_raises(self):
        dma = DmaEngine()
        dma.begin(0, 2048)
        with pytest.raises(RuntimeError):
            dma.begin(COMPOSE_NS - 1, 2048)

    def test_stats(self):
        dma = DmaEngine()
        dma.begin(0, 2048)
        assert dma.stats.requests_composed == 1
        assert dma.stats.bytes_moved == 2048
        assert dma.stats.busy_time_ns == COMPOSE_NS
