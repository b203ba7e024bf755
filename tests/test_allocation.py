"""Tests for the page allocator and its striping order."""

import pytest

from repro.ftl.allocation import PageAllocator


@pytest.fixture
def allocator(small_geometry, small_chips):
    return PageAllocator(small_geometry, small_chips)


class TestStaticLayout:
    def test_consecutive_lpns_stripe_across_channels(self, allocator):
        first = allocator.static_address(0)
        second = allocator.static_address(1)
        assert first.channel != second.channel

    def test_static_address_deterministic(self, allocator):
        assert allocator.static_address(123) == allocator.static_address(123)

    def test_static_address_covers_all_planes(self, allocator, small_geometry):
        planes = {
            allocator.static_address(lpn).plane_key
            for lpn in range(small_geometry.num_planes)
        }
        assert len(planes) == small_geometry.num_planes

    def test_static_address_negative_lpn(self, allocator):
        with pytest.raises(ValueError):
            allocator.static_address(-1)

    def test_static_address_wraps_beyond_capacity(self, allocator, small_geometry):
        address = allocator.static_address(small_geometry.total_pages + 5)
        small_geometry._validate_address(address)  # must be a legal address

    def test_plane_for_stripe_matches_sequence(self, allocator):
        sequence = allocator.plane_sequence
        assert allocator.static_address(0).plane_key == sequence[0]
        assert allocator.static_address(1).plane_key == sequence[1]
        assert allocator.static_address(len(sequence)).plane_key == sequence[0]


class TestDynamicAllocation:
    def test_allocations_are_unique(self, allocator, small_geometry):
        seen = set()
        for _ in range(small_geometry.num_planes * 4):
            address = allocator.allocate()
            assert address not in seen
            seen.add(address)

    def test_round_robin_spreads_over_channels(self, allocator, small_geometry):
        channels = {allocator.allocate().channel for _ in range(small_geometry.num_channels)}
        assert channels == set(range(small_geometry.num_channels))

    def test_preferred_plane_respected(self, allocator):
        preferred = (1, 1, 1, 1)
        address = allocator.allocate(preferred_plane=preferred)
        assert address.plane_key == preferred

    def test_preferred_plane_falls_back_when_full(self, allocator, small_geometry, small_chips):
        preferred = (0, 0, 0, 0)
        plane = small_chips[(0, 0)].plane(0, 0)
        while plane.free_pages:
            plane.allocate_page()
        address = allocator.allocate(preferred_plane=preferred)
        assert address.plane_key != preferred

    def test_exhaustion_raises(self, small_geometry, small_chips):
        allocator = PageAllocator(small_geometry, small_chips)
        for _ in range(small_geometry.total_pages):
            allocator.allocate()
        with pytest.raises(RuntimeError):
            allocator.allocate()

    def test_free_pages_decreases(self, allocator, small_chips):
        def free_pages():
            return sum(
                plane.free_pages for chip in small_chips.values() for plane in chip.iter_planes()
            )

        before = free_pages()
        allocator.allocate()
        assert free_pages() == before - 1


class TestAllocationOrders:
    def test_channel_first_order_varies_channel_fastest(self, small_geometry, small_chips):
        allocator = PageAllocator(small_geometry, small_chips)
        sequence = allocator.plane_sequence
        assert sequence[0][0] != sequence[1][0]
        # Channel fastest, then way, die and plane; every plane exactly once.
        assert list(sequence) == sorted(
            sequence, key=lambda key: (key[3], key[2], key[1], key[0])
        )
        assert len(set(sequence)) == small_geometry.num_planes
