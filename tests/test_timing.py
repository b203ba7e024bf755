"""Tests for the NAND timing model."""

import pytest

from repro.flash.timing import FlashTiming


class TestCellLatencies:
    def test_read_latency_default(self):
        assert FlashTiming().read_ns == 20_000

    def test_even_pages_are_fast(self):
        timing = FlashTiming()
        for page in (0, 2, 4, 100):
            assert timing.program_latency_ns(page) == timing.program_fast_ns

    def test_odd_pages_are_slower(self):
        timing = FlashTiming()
        for page in (1, 3, 77, 127):
            latency = timing.program_latency_ns(page)
            assert timing.program_fast_ns < latency <= timing.program_slow_ns

    def test_program_latency_deterministic(self):
        timing = FlashTiming()
        assert timing.program_latency_ns(11) == timing.program_latency_ns(11)

    def test_program_latency_negative_page(self):
        with pytest.raises(ValueError):
            FlashTiming().program_latency_ns(-1)

    def test_erase_latency(self):
        assert FlashTiming(erase_ns=2_000_000).erase_latency_ns() == 2_000_000


class TestBusLatencies:
    def test_transfer_scales_with_size(self):
        timing = FlashTiming()
        assert timing.transfer_latency_ns(4096) > timing.transfer_latency_ns(2048)

    def test_transfer_zero_bytes(self):
        assert FlashTiming().transfer_latency_ns(0) == 0

    def test_transfer_negative_bytes(self):
        with pytest.raises(ValueError):
            FlashTiming().transfer_latency_ns(-1)

    def test_transfer_minimum_one_ns(self):
        assert FlashTiming().transfer_latency_ns(1) >= 1

    def test_transfer_matches_bus_rate(self):
        timing = FlashTiming(bus_bytes_per_sec=200_000_000)
        # 2000 bytes at 200 MB/s = 10 microseconds.
        assert timing.transfer_latency_ns(2000) == 10_000

    def test_request_bus_time_adds_command_overhead(self):
        timing = FlashTiming(command_overhead_ns=500)
        assert timing.request_bus_time_ns(2048) == 500 + timing.transfer_latency_ns(2048)


class TestValidation:
    def test_rejects_non_positive_latency(self):
        with pytest.raises(ValueError):
            FlashTiming(read_ns=0)

    def test_rejects_slow_faster_than_fast(self):
        with pytest.raises(ValueError):
            FlashTiming(program_fast_ns=1000, program_slow_ns=500)

    def test_rejects_non_positive_bus_rate(self):
        with pytest.raises(ValueError):
            FlashTiming(bus_bytes_per_sec=0)

    def test_rejects_bad_fast_page_fraction(self):
        with pytest.raises(ValueError):
            FlashTiming(mlc_fast_page_fraction=1.5)

