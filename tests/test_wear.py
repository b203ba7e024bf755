"""Tests for wear accounting."""

from repro.ftl.wear_leveling import wear_stats


class TestWearStats:
    def test_fresh_drive_has_zero_wear(self, small_chips):
        stats = wear_stats(small_chips)
        assert stats.total_erases == 0
        assert stats.spread == 0

    def test_wear_stats_track_erases(self, small_geometry, small_chips):
        block = small_chips[(0, 0)].plane(0, 0).blocks[0]
        block.erase()
        block.erase()
        stats = wear_stats(small_chips)
        assert stats.max_erase_count == 2
        assert stats.min_erase_count == 0
        assert stats.total_erases == 2
        assert stats.spread == 2
        blocks = small_geometry.num_planes * small_geometry.blocks_per_plane
        assert stats.mean_erase_count == 2 / blocks
