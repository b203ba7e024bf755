"""Tests for FlashChip and Channel resource models."""

import pytest

from repro.flash.channel import Channel
from repro.flash.chip import FlashChip


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

    def test_occupy_sets_busy_until(self, small_geometry):
        chip = FlashChip((0, 0), small_geometry)
        chip.occupy(100, 500)
        assert chip.busy_until == 500
        assert chip.stats.busy_time_ns == 400

    def test_occupy_accumulates(self, small_geometry):
        chip = FlashChip((0, 0), small_geometry)
        chip.occupy(0, 100)
        chip.occupy(200, 350)
        assert chip.stats.busy_time_ns == 250
        assert chip.busy_until == 350

    def test_occupy_rejects_negative_interval(self, small_geometry):
        chip = FlashChip((0, 0), small_geometry)
        with pytest.raises(ValueError):
            chip.occupy(100, 50)

    def test_utilization(self, small_geometry):
        chip = FlashChip((0, 0), small_geometry)
        chip.occupy(0, 500)
        assert chip.utilization(1000) == pytest.approx(0.5)
        assert chip.utilization(0) == 0.0

    def test_utilization_clamped_to_one(self, small_geometry):
        chip = FlashChip((0, 0), small_geometry)
        chip.occupy(0, 2000)
        assert chip.utilization(1000) == 1.0

    def test_record_transaction_and_intra_idleness(self, small_geometry):
        chip = FlashChip((0, 0), small_geometry)
        chip.occupy(0, 1000)
        # One die active for 500 out of 2 dies x 1000 busy time -> 75% intra idle.
        chip.record_transaction(
            num_requests=1,
            num_dies=1,
            cell_time_ns=500,
            bus_time_ns=100,
            bus_wait_ns=0,
            die_active_time_ns=500,
        )
        assert chip.stats.transactions == 1
        assert chip.stats.requests_served == 1
        assert chip.intra_chip_idleness() == pytest.approx(0.75)

    def test_intra_idleness_sentinel_when_never_busy(self, small_geometry):
        # -1.0 distinguishes "did no work" from a busy chip whose dies were
        # fully covered (a genuine 0.0); averaging layers exclude it.
        chip = FlashChip((0, 0), small_geometry)
        assert chip.intra_chip_idleness() == -1.0

    def test_gc_transaction_counter(self, small_geometry):
        chip = FlashChip((0, 0), small_geometry)
        chip.record_transaction(
            num_requests=1,
            num_dies=1,
            cell_time_ns=10,
            bus_time_ns=0,
            bus_wait_ns=0,
            die_active_time_ns=10,
            is_gc=True,
        )
        assert chip.stats.gc_transactions == 1


class TestChannel:
    def test_reserve_when_free(self):
        channel = Channel(0)
        start, end, wait = channel.reserve(100, 50)
        assert (start, end, wait) == (100, 150, 0)
        assert channel.free_at_ns == 150

    def test_reserve_waits_when_busy(self):
        channel = Channel(0)
        channel.reserve(0, 100)
        start, end, wait = channel.reserve(20, 50)
        assert start == 100
        assert wait == 80
        assert end == 150

    def test_contention_accumulates(self):
        channel = Channel(0)
        channel.reserve(0, 100)
        channel.reserve(0, 100)
        assert channel.stats.contention_time_ns == 100
        assert channel.stats.busy_time_ns == 200
        assert channel.stats.transfers == 2

    def test_bytes_tracked(self):
        channel = Channel(0)
        channel.reserve(0, 10, num_bytes=4096)
        assert channel.stats.bytes_moved == 4096

    def test_is_busy(self):
        channel = Channel(0)
        channel.reserve(0, 100)
        assert channel.free_at_ns == 100
        # Free again exactly when the transfer ends: no wait at t=100.
        assert channel.reserve(100, 10) == (100, 110, 0)

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            Channel(0).reserve(0, -1)
