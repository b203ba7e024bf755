"""Tests for the garbage collector."""

import pytest

from repro.ftl.garbage_collector import FREE_BLOCK_WATERMARK, GarbageCollector
from repro.ftl.mapping import PageMapFTL


@pytest.fixture
def gc_setup(small_geometry, small_chips, fast_timing):
    ftl = PageMapFTL(small_geometry, small_chips)
    gc = GarbageCollector(small_geometry, fast_timing, ftl, small_chips)
    return ftl, gc


def collect(ftl, gc):
    """One pass on plane (0, 0, 0, 0), on the victim the trigger would pick."""
    victim = ftl.chips[(0, 0)].plane(0, 0).greedy_victim()
    return gc.collect((0, 0), 0, 0, victim, 0)


def fill_plane(ftl, small_geometry, chip_key, die, plane, blocks_to_fill):
    """Write LPNs until the given plane has ``blocks_to_fill`` full blocks."""
    written = []
    lpn = 10_000
    target_plane_key = (*chip_key, die, plane)
    while True:
        plane_obj = ftl.chips[chip_key].plane(die, plane)
        full = plane_obj.write_pointer.count(plane_obj.pages_per_block)
        if full >= blocks_to_fill:
            break
        address = ftl.translate_write(lpn)
        if address.plane_key == target_plane_key:
            written.append(lpn)
        lpn += 1
    return written


class TestTriggerPolicy:
    def test_fresh_plane_does_not_need_gc(self, gc_setup):
        _, gc = gc_setup
        assert gc.collect_plane_if_needed((0, 0), 0, 0) is None

    def test_disabled_gc_never_triggers(self, gc_setup, small_geometry):
        ftl, gc = gc_setup
        gc.enabled = False
        fill_plane(ftl, small_geometry, (0, 0), 0, 0, small_geometry.blocks_per_plane - 1)
        assert gc.collect_plane_if_needed((0, 0), 0, 0) is None

    def test_triggers_below_watermark_with_victim(self, gc_setup, small_geometry):
        ftl, gc = gc_setup
        fill_plane(ftl, small_geometry, (0, 0), 0, 0, small_geometry.blocks_per_plane - 1)
        job = gc.collect_plane_if_needed((0, 0), 0, 0)
        assert job is not None
        assert job.chip_key == (0, 0)


class TestCollection:
    def test_collect_erases_victim_and_migrates_valid(self, gc_setup, small_geometry):
        ftl, gc = gc_setup
        written = fill_plane(
            ftl, small_geometry, (0, 0), 0, 0, small_geometry.blocks_per_plane - 1
        )
        # Invalidate some pages so the victim is cheap but not empty.
        for lpn in written[: len(written) // 2]:
            ftl.translate_write(lpn)
        job = collect(ftl, gc)
        assert job is not None
        assert job.duration_ns > 0
        assert gc.stats.blocks_erased == 1
        # Every migrated LPN still resolves to live data.
        for lpn in job.migrated_lpns:
            assert ftl.lookup(lpn) is not None

    def test_collect_without_victim_returns_none(self, gc_setup, small_chips):
        _, gc = gc_setup
        # Below the watermark, but no block is full: nothing to collect.
        plane_obj = small_chips[(0, 0)].plane(0, 0)
        for block in range(1, plane_obj.blocks_per_plane):
            plane_obj.program_bulk(block, 1)
        assert plane_obj.free_blocks < FREE_BLOCK_WATERMARK
        assert plane_obj.greedy_victim() is None
        assert gc.collect_plane_if_needed((0, 0), 0, 0) is None

    def test_collect_duration_includes_erase(self, gc_setup, small_geometry, fast_timing):
        ftl, gc = gc_setup
        fill_plane(ftl, small_geometry, (0, 0), 0, 0, small_geometry.blocks_per_plane - 1)
        job = collect(ftl, gc)
        assert job.duration_ns >= fast_timing.erase_latency_ns()
        expected_migration_floor = len(job.migrated_lpns) * fast_timing.read_ns
        assert job.duration_ns >= expected_migration_floor

    def test_collect_plane_if_needed_respects_watermark(self, gc_setup):
        _, gc = gc_setup
        assert gc.collect_plane_if_needed((0, 0), 0, 0) is None

    def test_collect_if_needed_returns_jobs(self, gc_setup, small_geometry):
        ftl, gc = gc_setup
        fill_plane(ftl, small_geometry, (0, 0), 0, 0, small_geometry.blocks_per_plane - 1)
        # Filling stripes over every plane, so several planes of the chip
        # may be low; each collected job stays on the chip.
        jobs = [
            gc.collect_plane_if_needed((0, 0), die, plane)
            for die in range(small_geometry.dies_per_chip)
            for plane in range(small_geometry.planes_per_die)
        ]
        jobs = [job for job in jobs if job is not None]
        assert jobs
        assert all(job.chip_key == (0, 0) for job in jobs)

    def test_migrations_stay_in_plane_when_possible(self, gc_setup, small_geometry):
        ftl, gc = gc_setup
        written = fill_plane(
            ftl, small_geometry, (0, 0), 0, 0, small_geometry.blocks_per_plane - 1
        )
        for lpn in written[: len(written) // 2]:
            ftl.translate_write(lpn)
        job = collect(ftl, gc)
        for old, new in job.moves:
            assert old.chip_key == (0, 0)
            # Preferred placement keeps the copy in the same plane unless full.
            assert new.chip_key == (0, 0) or new.plane_key != old.plane_key

    def test_stats_accumulate(self, gc_setup, small_geometry):
        ftl, gc = gc_setup
        fill_plane(ftl, small_geometry, (0, 0), 0, 0, small_geometry.blocks_per_plane - 1)
        before = gc.stats.invocations
        collect(ftl, gc)
        assert gc.stats.invocations == before + 1
        assert gc.stats.total_gc_time_ns > 0

    def test_clean_collection_reports_zero_orphans(self, gc_setup, small_geometry):
        ftl, gc = gc_setup
        written = fill_plane(
            ftl, small_geometry, (0, 0), 0, 0, small_geometry.blocks_per_plane - 1
        )
        for lpn in written[: len(written) // 2]:
            ftl.translate_write(lpn)
        collect(ftl, gc)
        assert gc.stats.orphaned_pages == 0

    def test_orphaned_valid_pages_are_counted(self, gc_setup, small_geometry):
        """A valid bit without a reverse mapping is a bookkeeping bug; GC
        must surface it in the stats instead of dropping it silently."""
        ftl, gc = gc_setup
        fill_plane(ftl, small_geometry, (0, 0), 0, 0, small_geometry.blocks_per_plane - 1)
        # Corrupt the bookkeeping: program pages behind the FTL's back so
        # they are valid-marked but unmapped, and make the block the
        # cheapest (fewest-valid) victim so greedy selection picks it.
        plane_obj = ftl.chips[(0, 0)].plane(0, 0)
        free_block = plane_obj.write_pointer.index(0)
        orphans = 2
        plane_obj.program_bulk(free_block, orphans)
        while plane_obj.write_pointer[free_block] < plane_obj.pages_per_block:
            plane_obj.invalidate(free_block, plane_obj.program_next(free_block))
        job = collect(ftl, gc)
        assert job is not None
        assert job.victim_block == free_block
        assert job.migrated_lpns == []
        assert gc.stats.orphaned_pages == orphans

    def test_history_records_job_sequence(self, gc_setup, small_geometry):
        ftl, gc = gc_setup
        written = fill_plane(
            ftl, small_geometry, (0, 0), 0, 0, small_geometry.blocks_per_plane - 1
        )
        for lpn in written[: len(written) // 2]:
            ftl.translate_write(lpn)
        job = collect(ftl, gc)
        assert list(gc.history) == [((0, 0), 0, 0, job.victim_block, len(job.migrated_lpns))]
