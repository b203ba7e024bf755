"""Tests for host I/O requests and flash memory requests."""

import pytest

from repro.flash.commands import FlashOp
from repro.flash.geometry import PhysicalPageAddress
from repro.flash.request import MemoryRequest
from repro.workloads.request import IOKind, IORequest


def make_address(**overrides):
    values = dict(channel=0, chip=1, die=0, plane=1, block=2, page=3)
    values.update(overrides)
    return PhysicalPageAddress(**values)


class TestIORequest:
    def test_basic_properties(self):
        io = IORequest(kind=IOKind.WRITE, offset_bytes=4096, size_bytes=8192, arrival_ns=10)
        assert io.is_write
        assert io.end_offset_bytes == 12288

    def test_read_is_not_write(self):
        io = IORequest(kind=IOKind.READ, offset_bytes=0, size_bytes=1, arrival_ns=0)
        assert not io.is_write

    def test_num_pages_aligned(self):
        io = IORequest(kind=IOKind.READ, offset_bytes=0, size_bytes=8192, arrival_ns=0)
        assert len(io.logical_pages(2048)) == 4

    def test_num_pages_unaligned_offset(self):
        io = IORequest(kind=IOKind.READ, offset_bytes=1024, size_bytes=2048, arrival_ns=0)
        # Crosses a page boundary: touches pages 0 and 1.
        assert list(io.logical_pages(2048)) == [0, 1]

    def test_logical_pages_range(self):
        io = IORequest(kind=IOKind.READ, offset_bytes=4096, size_bytes=4096, arrival_ns=0)
        assert list(io.logical_pages(2048)) == [2, 3]

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(offset_bytes=-1, size_bytes=1, arrival_ns=0),
            dict(offset_bytes=0, size_bytes=0, arrival_ns=0),
            dict(offset_bytes=0, size_bytes=1, arrival_ns=-5),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            IORequest(kind=IOKind.READ, **kwargs)

    def test_ids_increase(self):
        first = IORequest(kind=IOKind.READ, offset_bytes=0, size_bytes=1, arrival_ns=0)
        second = IORequest(kind=IOKind.READ, offset_bytes=0, size_bytes=1, arrival_ns=0)
        assert second.io_id == first.io_id + 1


class TestMemoryRequest:
    # A request's target chip is its address's (channel, chip): the flash
    # controller files a committed request under it.
    def test_chip_key_requires_translation(self, controller):
        request = MemoryRequest(io_id=1, op=FlashOp.READ, lpn=0, size_bytes=2048)
        assert request.address is None
        with pytest.raises(ValueError):
            controller.commit(request, 0)

    def test_chip_key_after_translation(self, controller):
        request = MemoryRequest(
            io_id=1, op=FlashOp.READ, lpn=0, size_bytes=2048, address=make_address()
        )
        controller.commit(request, 0)
        assert controller.pending[(0, 1)] == [request]

    def test_retarget_changes_address(self):
        request = MemoryRequest(
            io_id=1, op=FlashOp.PROGRAM, lpn=5, size_bytes=2048, address=make_address()
        )
        new_address = make_address(chip=0, die=1)
        request.retarget(new_address)
        assert request.address == new_address

    def test_default_penalty_zero(self):
        request = MemoryRequest(io_id=1, op=FlashOp.READ, lpn=0, size_bytes=2048)
        assert request.penalty_ns == 0

    @pytest.mark.parametrize("kwargs", [dict(lpn=-1, size_bytes=2048), dict(lpn=0, size_bytes=0)])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            MemoryRequest(io_id=1, op=FlashOp.READ, **kwargs)

    def test_ids_increase(self):
        first = MemoryRequest(io_id=1, op=FlashOp.READ, lpn=0, size_bytes=2048)
        second = MemoryRequest(io_id=1, op=FlashOp.READ, lpn=1, size_bytes=2048)
        assert second.request_id == first.request_id + 1
