"""Tests for the page-mapped FTL."""

import itertools
import random

import pytest

from repro.flash.chip import FlashChip
from repro.flash.geometry import SSDGeometry
from repro.ftl.mapping import PageMapFTL, prefill_plan
from repro.lifetime.state import occupancy_snapshot
from repro.sim.config import SimulationConfig


def fresh_ftl(geometry):
    return PageMapFTL(
        geometry, {key: FlashChip(key, geometry) for key in geometry.iter_chip_keys()}
    )


def ftl_state(ftl):
    """Everything write_many must reproduce, map insertion order included."""
    return (
        occupancy_snapshot(ftl),
        ftl.stats,
        list(ftl._map.items()),
        list(ftl._reverse.items()),
        bytes(ftl._base_moved),
        ftl._base_moved_count,
    )


def migrate_page(ftl, lpn, preferred_plane=None):
    """Per-page reference for ``PageMapFTL.migrate_pages``.

    Moves one live logical page to a freshly allocated page (in
    ``preferred_plane`` while it has room) and returns ``(old, new)``.
    ``migrate_pages`` must equal a loop of these over a victim block's valid
    pages with ``preferred_plane`` set to the victim's plane.
    """
    old = ftl.lookup(lpn)
    if old is None:
        raise KeyError(f"lpn {lpn} has no live mapping to migrate")
    new = ftl.allocator.allocate(preferred_plane=preferred_plane)
    ftl._invalidate_physical(old)
    if lpn < ftl._base_live:
        ftl._mark_base_moved(lpn)
    ftl._map[lpn] = new
    ftl._reverse[new] = lpn
    ftl.stats.migrations += 1
    ftl.stats.gc_writes += 1
    return old, new


def record_hook(ftl):
    """Install a migration hook on ``ftl`` that records its calls."""
    calls = []

    def hook(lpns, moves, *, all_same_plane):
        calls.append((list(lpns), list(moves), all_same_plane))

    ftl.migration_hook = hook
    return calls


@pytest.fixture
def ftl(small_geometry, small_chips):
    return PageMapFTL(small_geometry, small_chips)


class TestTranslation:
    def test_read_of_unwritten_page_uses_static_layout(self, ftl):
        address = ftl.translate_read(42)
        assert address == ftl.allocator.static_address(42)

    def test_write_then_read_hits_mapping(self, ftl):
        written = ftl.translate_write(7)
        assert ftl.translate_read(7) == written
        assert ftl.lookup(7) == written

    def test_lookup_none_for_unwritten(self, ftl):
        assert ftl.lookup(99) is None

    def test_rewrite_invalidates_old_page(self, ftl, small_chips):
        first = ftl.translate_write(3)
        second = ftl.translate_write(3)
        assert first != second
        plane = small_chips[first.chip_key].plane(first.die, first.plane)
        assert not plane.blocks[first.block].is_valid(first.page)
        assert ftl.reverse_lookup(first) is None
        assert ftl.reverse_lookup(second) == 3

    def test_mapped_pages_counts_live_mappings(self, ftl):
        ftl.translate_write(1)
        ftl.translate_write(2)
        ftl.translate_write(1)
        assert ftl.mapped_pages == 2

    def test_stats_counters(self, ftl):
        ftl.translate_write(1)
        ftl.translate_read(1)
        ftl.translate_write(1)
        assert ftl.stats.host_writes == 2
        assert ftl.stats.host_reads == 1
        assert ftl.stats.invalidations == 1


class TestMigration:
    def test_migrate_updates_both_maps(self, ftl):
        original = ftl.translate_write(5)
        old, new = migrate_page(ftl, 5)
        assert old == original
        assert new != original
        assert ftl.lookup(5) == new
        assert ftl.reverse_lookup(new) == 5
        assert ftl.reverse_lookup(old) is None

    def test_migrate_unmapped_raises(self, ftl):
        with pytest.raises(KeyError):
            migrate_page(ftl, 77)

    def test_migrate_prefers_plane(self, ftl):
        ftl.translate_write(5)
        preferred = (1, 1, 0, 1)
        _, new = migrate_page(ftl, 5, preferred_plane=preferred)
        assert new.plane_key == preferred

    def test_migration_listener_invoked(self, ftl, small_geometry):
        # The one migration hook hears each migrate_pages batch once.
        calls = record_hook(ftl)
        ftl.install_base_fill(small_geometry.num_planes * small_geometry.pages_per_block * 2)
        plane_key = ftl.allocator.plane_sequence[0]
        victim = ftl.chips[plane_key[:2]].plane(*plane_key[2:]).blocks[0]
        pages, lpns = ftl.valid_lpns_in_block(plane_key, 0, victim.valid_mask)
        moves = ftl.migrate_pages(plane_key, 0, pages, lpns)
        assert len(moves) == small_geometry.pages_per_block
        assert calls == [(lpns, moves, True)]

    def test_migration_counters(self, ftl):
        ftl.translate_write(4)
        migrate_page(ftl, 4)
        assert ftl.stats.migrations == 1
        assert ftl.stats.gc_writes == 1


class TestEraseBlock:
    def test_erase_clears_mappings_and_block(self, ftl, small_chips):
        address = ftl.translate_write(11)
        ftl.erase_block(address.chip_key, address.die, address.plane, address.block)
        assert ftl.lookup(11) is None
        assert ftl.reverse_lookup(address) is None
        plane = small_chips[address.chip_key].plane(address.die, address.plane)
        assert plane.blocks[address.block].is_free
        assert plane.blocks[address.block].erase_count == 1


class TestFill:
    def test_fill_writes_requested_fraction(self, ftl, small_geometry):
        report = ftl.fill(0.5)
        assert report.page_writes == int(small_geometry.total_pages * 0.5)
        assert report.overwrites == 0
        assert ftl.utilization() == pytest.approx(0.5, abs=0.01)

    def test_fill_with_overwrites_creates_invalid_pages(self, small_geometry, small_chips):
        ftl = PageMapFTL(small_geometry, small_chips)
        ftl.fill(0.8, overwrite_fraction=0.4)
        invalid = 0
        for chip in small_chips.values():
            for plane in chip.iter_planes():
                for block in plane.blocks:
                    invalid += block.invalid_count
        assert invalid > 0
        # Live data is less than the total pages written.
        assert ftl.utilization() < 0.8

    def test_fill_rejects_bad_fraction(self, ftl):
        with pytest.raises(ValueError):
            ftl.fill(1.5)
        with pytest.raises(ValueError):
            ftl.fill(0.5, overwrite_fraction=1.0)

    def test_fill_zero_is_noop(self, ftl):
        assert ftl.fill(0.0).page_writes == 0
        assert ftl.utilization() == 0.0

    def test_fill_reports_plan(self, ftl, small_geometry):
        report = ftl.fill(0.8, overwrite_fraction=0.4)
        assert (report.live_pages, report.overwrites) == prefill_plan(
            small_geometry.total_pages, 0.8, 0.4
        )
        assert ftl.stats.host_writes == report.page_writes
        assert ftl.mapped_pages == report.live_pages

    def test_fill_requires_fresh_ftl(self, ftl):
        ftl.translate_write(0)
        with pytest.raises(ValueError, match="factory-fresh"):
            ftl.fill(0.5)

    def test_fill_rejects_programmed_blocks(self, ftl, small_chips):
        plane = next(iter(small_chips.values())).plane(0, 0)
        plane.blocks[3].program_bulk(1)
        with pytest.raises(ValueError, match="every block must be erased"):
            ftl.fill(0.5)

    def test_utilization_empty(self, ftl):
        assert ftl.utilization() == 0.0


class TestBaseLayout:
    """The implicit (lazy) base layout behind fast-forward aging."""

    def install(self, ftl, small_geometry, live=64):
        ftl.install_base_fill(live)
        return live

    def test_base_pages_resolve_like_written_pages(self, ftl, small_geometry):
        live = self.install(ftl, small_geometry)
        assert ftl.mapped_pages == live
        for lpn in range(live):
            address = ftl.lookup(lpn)
            assert address == ftl.allocator.static_address(lpn)
            assert ftl.reverse_lookup(address) == lpn
        assert ftl.lookup(live) is None

    def test_mapping_items_merge_base_and_overlay(self, ftl, small_geometry):
        live = self.install(ftl, small_geometry)
        rewritten = ftl.translate_write(3)
        items = dict(ftl.mapping_items())
        assert len(items) == live
        assert items[3] == rewritten
        assert items[4] == ftl.allocator.static_address(4)

    def test_overwrite_invalidates_base_page(self, ftl, small_geometry):
        self.install(ftl, small_geometry)
        old = ftl.lookup(5)
        new = ftl.translate_write(5)
        assert new != old
        assert ftl.reverse_lookup(old) is None
        assert ftl.reverse_lookup(new) == 5
        assert ftl.lookup(5) == new
        block = ftl.chips[old.chip_key].plane(old.die, old.plane).blocks[old.block]
        assert not block.is_valid(old.page)

    def test_migrate_base_page(self, ftl, small_geometry):
        self.install(ftl, small_geometry)
        old, new = migrate_page(ftl, 2)
        assert old == ftl.allocator.static_address(2)
        assert ftl.lookup(2) == new
        assert ftl.reverse_lookup(old) is None

    def test_erase_block_removes_base_stragglers(self, ftl, small_geometry):
        live = self.install(ftl, small_geometry)
        victim = ftl.allocator.static_address(0)
        before = ftl.mapped_pages
        ftl.erase_block(victim.chip_key, victim.die, victim.plane, victim.block)
        assert ftl.lookup(0) is None
        assert ftl.reverse_lookup(victim) is None
        assert ftl.mapped_pages < before

    def test_install_requires_fresh_ftl(self, ftl, small_geometry):
        ftl.translate_write(0)
        with pytest.raises(ValueError):
            ftl.install_base_layout(16)

    def test_install_rejects_out_of_range(self, ftl, small_geometry):
        with pytest.raises(ValueError):
            ftl.install_base_layout(small_geometry.total_pages + 1)


#: Geometries for the generated write_many cases: the shared small one and a
#: narrow one whose 4-page blocks put a block boundary inside most runs.
WRITE_MANY_GEOMETRIES = (
    SSDGeometry(
        num_channels=2,
        chips_per_channel=2,
        dies_per_chip=2,
        planes_per_die=2,
        blocks_per_plane=8,
        pages_per_block=16,
        page_size_bytes=2048,
    ),
    SSDGeometry(
        num_channels=1,
        chips_per_channel=3,
        dies_per_chip=1,
        planes_per_die=1,
        blocks_per_plane=24,
        pages_per_block=4,
        page_size_bytes=2048,
    ),
)


def generated_case(seed):
    """A seeded ``(geometry, live, prelude, batches)`` write_many case.

    ``live`` pages of base fill, a per-page ``prelude`` that builds an
    overlay and moves the allocator cursor, then batches drawn from a narrow
    LPN range so they repeat LPNs.  Every batch also rewrites a base-layout
    LPN, an overlay LPN and its own first LPN, so each case has olds from
    the base layout, the overlay and earlier in the batch.
    """
    rng = random.Random(seed)
    geometry = WRITE_MANY_GEOMETRIES[seed % len(WRITE_MANY_GEOMETRIES)]
    total = geometry.total_pages
    live = rng.randrange(1, total // 2)
    span = live + rng.randrange(1, 64)
    prelude = [rng.randrange(span) for _ in range(rng.randrange(1, 48))]
    batches = []
    written = set(prelude)
    budget = total - live - len(prelude)
    for _ in range(rng.randrange(1, 4)):
        size = rng.randrange(1, min(160, budget // 4))
        batch = [rng.randrange(span) for _ in range(size)]
        base_lpn = rng.choice(sorted(set(range(live)) - written))
        batch += [base_lpn, rng.choice(prelude), batch[0]]
        written.update(batch)
        budget -= len(batch)
        batches.append(batch)
    return geometry, live, prelude, batches


class TestWriteMany:
    """write_many against the per-page translate_write loop it batches."""

    @pytest.mark.parametrize("seed", range(16))
    def test_generated_batches_match_per_page_loop(self, seed):
        geometry, live, prelude, batches = generated_case(seed)
        bulk, reference = fresh_ftl(geometry), fresh_ftl(geometry)
        for ftl in (bulk, reference):
            ftl.install_base_fill(live)
            for lpn in prelude:
                ftl.translate_write(lpn)
        assert bulk.allocator.cursor == (live + len(prelude)) % geometry.num_planes
        for batch in batches:
            bulk.write_many(batch)
            for lpn in batch:
                reference.translate_write(lpn)
            assert ftl_state(bulk) == ftl_state(reference)

    def test_batch_without_base_layout(self, small_geometry):
        bulk, reference = fresh_ftl(small_geometry), fresh_ftl(small_geometry)
        batch = [5, 9, 5, 700, 9, 9, 1]
        bulk.write_many(batch)
        for lpn in batch:
            reference.translate_write(lpn)
        assert ftl_state(bulk) == ftl_state(reference)
        assert bulk.stats.invalidations == 3

    def test_empty_batch_is_noop(self, ftl):
        before = ftl_state(ftl)
        ftl.write_many([])
        assert ftl_state(ftl) == before

    def test_full_plane_falls_back_to_per_page_loop(self, small_geometry):
        bulk, reference = fresh_ftl(small_geometry), fresh_ftl(small_geometry)
        num_planes = small_geometry.num_planes
        first_plane = bulk.allocator.plane_sequence[0]
        per_plane = small_geometry.pages_per_plane
        for ftl in (bulk, reference):
            for lpn in range(num_planes):
                ftl.translate_write(lpn)
            # Pile migrations into the first plane until one page is left.
            lpn = num_planes
            while ftl.chips[first_plane[:2]].plane(*first_plane[2:]).free_pages > 1:
                ftl.translate_write(lpn)
                migrate_page(ftl, lpn, preferred_plane=first_plane)
                lpn += 1
        plane = bulk.chips[first_plane[:2]].plane(*first_plane[2:])
        batch = [lpn % 50 for lpn in range(2 * num_planes)]
        # The first plane's share (2) exceeds its free pages (1): the
        # allocator skips it mid-batch, so the bulk plan does not hold.
        assert plane.free_pages == 1 < per_plane
        bulk.write_many(batch)
        for lpn in batch:
            reference.translate_write(lpn)
        assert plane.free_pages == 0
        assert ftl_state(bulk) == ftl_state(reference)


#: Geometries for the generated migrate_pages cases: the write_many ones and
#: a 2-plane device whose small planes fill up (and fall back) quickly.
MIGRATE_GEOMETRIES = WRITE_MANY_GEOMETRIES + (
    SSDGeometry(
        num_channels=2,
        chips_per_channel=1,
        dies_per_chip=1,
        planes_per_die=1,
        blocks_per_plane=10,
        pages_per_block=8,
        page_size_bytes=2048,
    ),
)


def fill_plane(ftls, plane_key, victim_block, free_pages, rng):
    """Migrate live pages into ``plane_key`` on every FTL of ``ftls``.

    Each migration takes one of the plane's free pages; pages of
    ``victim_block`` are left alone (nothing lands in that full block, so a
    donor can move again).  Stops once the plane has ``free_pages`` free
    pages.  The donors and their order come from the first FTL's state,
    which every FTL in ``ftls`` shares.
    """
    first = ftls[0]
    plane = first._planes[plane_key]
    victim = plane_key + (victim_block,)
    donors = sorted(
        lpn for lpn, address in first.mapping_items() if address[:5] != victim
    )
    rng.shuffle(donors)
    for lpn in itertools.cycle(donors):
        if plane.free_pages <= free_pages:
            break
        for ftl in ftls:
            migrate_page(ftl, lpn, preferred_plane=plane_key)


class TestMigratePages:
    """migrate_pages against the per-page migrate_page loop it batches.

    Each seeded case starts from a base-layout fill plus overwrites, then
    runs garbage-collection-shaped passes (migrate a full victim's valid
    pages, erase it); every other pass first fills the victim's plane so
    the tail of the batch takes the allocator's cross-plane fallback.
    """

    @pytest.mark.parametrize("seed", range(30))
    def test_generated_passes_match_per_page_reference(self, seed):
        rng = random.Random(seed)
        geometry = MIGRATE_GEOMETRIES[seed % len(MIGRATE_GEOMETRIES)]
        bulk, reference = fresh_ftl(geometry), fresh_ftl(geometry)
        calls = record_hook(bulk)
        total = geometry.total_pages
        live = rng.randrange(total // 4, total // 2)
        span = live + rng.randrange(1, 64)
        prelude = [rng.randrange(span) for _ in range(rng.randrange(total // 8))]
        for ftl in (bulk, reference):
            ftl.install_base_fill(live)
            for lpn in prelude:
                ftl.translate_write(lpn)
        fallbacks = 0
        passes = 0
        for pass_index in range(8):
            plane_key = rng.choice(reference.allocator.plane_sequence)
            plane = reference._planes[plane_key]
            victims = [
                block.block_id
                for block in plane.blocks
                if block.is_full and block.block_id != plane.active_block_id
            ]
            if not victims:
                continue
            block_id = rng.choice(victims)
            valid = plane.blocks[block_id].valid_count
            elsewhere = reference.allocator.free_pages() - plane.free_pages
            if pass_index % 2 and 0 < valid <= elsewhere:
                # Leave fewer free pages than the victim has valid ones, so
                # the tail of the batch falls back to other planes.
                fill_plane((reference, bulk), plane_key, block_id, rng.randrange(valid), rng)
            same_plane = plane.free_pages >= valid
            fallbacks += not same_plane
            passes += 1
            mask = plane.blocks[block_id].valid_mask
            pages, lpns = bulk.valid_lpns_in_block(plane_key, block_id, mask)
            assert (pages, lpns) == reference.valid_lpns_in_block(plane_key, block_id, mask)
            assert None not in lpns
            expected = [migrate_page(reference, lpn, preferred_plane=plane_key) for lpn in lpns]
            runs = []
            moves = bulk.migrate_pages(plane_key, block_id, pages, lpns, runs_out=runs)
            assert moves == expected
            assert calls[-1] == (lpns, expected, same_plane)
            # The runs cover every move in order, each a page span of one
            # destination block.
            index = 0
            for start, count in runs:
                span_moves = moves[index : index + count]
                assert [new.page for _, new in span_moves] == list(range(start, start + count))
                assert len({new[:5] for _, new in span_moves}) == 1
                index += count
            assert index == len(moves)
            assert ftl_state(bulk) == ftl_state(reference)
            for ftl in (bulk, reference):
                ftl.erase_block(plane_key[:2], plane_key[2], plane_key[3], block_id, swept=True)
            assert ftl_state(bulk) == ftl_state(reference)
        # One hook call per pass, and at least one pass fell back.
        assert len(calls) == passes
        assert fallbacks


def reference_fill(ftl, fraction, overwrite_fraction, seed=12345):
    """Page-by-page prefill: the semantics ``PageMapFTL.fill`` bulk-applies."""
    live, overwrites = prefill_plan(ftl.geometry.total_pages, fraction, overwrite_fraction)
    for lpn in range(live):
        ftl.translate_write(lpn)
    filled = max(1, live)
    rng = random.Random(seed)
    remaining = overwrites
    while remaining > 0:
        batch = min(remaining, filled)
        for lpn in rng.sample(range(filled), batch):
            ftl.translate_write(lpn)
        remaining -= batch


class TestBulkFill:
    """fill (base fill + write_many) against a per-page reference fill."""

    GCHEAVY_GEOMETRY = SimulationConfig.paper_scale(64).geometry.scaled(
        blocks_per_plane=16, pages_per_block=32
    )

    @pytest.mark.parametrize(
        "fraction, overwrite_fraction",
        [(0.5, 0.0), (0.8, 0.4), (0.95, 0.3), (0.9, 0.6)],
    )
    def test_small_geometry_matches_reference(
        self, small_geometry, fraction, overwrite_fraction
    ):
        bulk, reference = fresh_ftl(small_geometry), fresh_ftl(small_geometry)
        report = bulk.fill(fraction, overwrite_fraction=overwrite_fraction)
        reference_fill(reference, fraction, overwrite_fraction)
        assert occupancy_snapshot(bulk) == occupancy_snapshot(reference)
        assert bulk.stats == reference.stats
        assert report.page_writes == reference.stats.host_writes

    def test_gcheavy_geometry_matches_reference(self):
        geometry = self.GCHEAVY_GEOMETRY
        bulk, reference = fresh_ftl(geometry), fresh_ftl(geometry)
        report = bulk.fill(0.95, overwrite_fraction=0.3)
        reference_fill(reference, 0.95, 0.3)
        assert occupancy_snapshot(bulk) == occupancy_snapshot(reference)
        assert bulk.stats == reference.stats
        assert (report.live_pages, report.overwrites) == (87163, 37355)
