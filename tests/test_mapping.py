"""Tests for the page-mapped FTL."""

import itertools
import random

import pytest

from repro.flash.chip import FlashChip
from repro.flash.geometry import PhysicalPageAddress, SSDGeometry
from repro.flash.timing import FlashTiming
from repro.ftl.garbage_collector import GarbageCollector
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


def invalidate_current(ftl, lpn):
    """Per-page reference: the current version of ``lpn`` goes stale.

    Clears its page bit, drops its reverse entry and flags a base-layout LPN
    moved - what a rewrite or a migration does to the superseded version.
    Returns the old address, or ``None`` when ``lpn`` has no live mapping.
    """
    old = ftl.lookup(lpn)
    if old is not None:
        ftl._planes[old.plane_key].invalidate(old.block, old.page)
        ftl._reverse.pop(old, None)
        ftl.stats.invalidations += 1
        if lpn < ftl._base_live and not ftl._base_moved[lpn]:
            ftl._base_moved[lpn] = 1
            ftl._base_moved_count += 1
    return old


def reference_allocate(ftl):
    """Per-page reference for round-robin ``PageAllocator.allocate()``.

    Asks each plane in striping order, from the cursor on, for its next
    page and moves the cursor past the plane that had one.
    """
    allocator = ftl.allocator
    sequence = allocator.plane_sequence
    for step in range(len(sequence)):
        index = (allocator.cursor + step) % len(sequence)
        try:
            block, page = ftl._planes[sequence[index]].allocate_page()
        except RuntimeError:
            continue
        allocator.cursor = (index + 1) % len(sequence)
        return PhysicalPageAddress(*sequence[index], block, page)
    raise RuntimeError("SSD is out of free pages")


def reference_translate_write(ftl, lpn):
    """Per-page reference for ``PageMapFTL.translate_write``.

    Look the page up, invalidate its current version, allocate, remap -
    each step through its own call.
    """
    invalidate_current(ftl, lpn)
    address = reference_allocate(ftl)
    ftl._map[lpn] = address
    ftl._reverse[address] = lpn
    ftl.stats.host_writes += 1
    return address


def migrate_page(ftl, lpn, preferred_plane=None):
    """Per-page reference for ``PageMapFTL.migrate_pages``.

    Moves one live logical page to a freshly allocated page (in
    ``preferred_plane`` while it has room) and returns ``(old, new)``.
    ``migrate_pages`` must equal a loop of these over a victim block's valid
    pages with ``preferred_plane`` set to the victim's plane.
    """
    if ftl.lookup(lpn) is None:
        raise KeyError(f"lpn {lpn} has no live mapping to migrate")
    new = ftl.allocator.allocate(preferred_plane=preferred_plane)
    old = invalidate_current(ftl, lpn)
    ftl._map[lpn] = new
    ftl._reverse[new] = lpn
    ftl.stats.migrations += 1
    ftl.stats.gc_writes += 1
    return old, new


def record_hook(ftl):
    """Install a migration hook on ``ftl`` that records its calls."""
    calls = []

    def hook(lpns, moves):
        calls.append((list(lpns), list(moves)))

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
        assert not plane.valid_bits[first.block] >> first.page & 1
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
        plane = ftl.chips[plane_key[:2]].plane(*plane_key[2:])
        pages, lpns = ftl.valid_lpns_in_block(plane_key, 0, plane.valid_bits[0])
        moves = ftl.migrate_pages(plane_key, 0, pages, lpns)
        assert len(moves) == small_geometry.pages_per_block
        assert calls == [(lpns, moves)]
        assert all(old[:4] == new[:4] == plane_key for old, new in moves)

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
        assert plane.write_pointer[address.block] == 0
        assert plane.valid_bits[address.block] == 0
        assert plane.erase_count[address.block] == 1


class TestFill:
    def test_fill_writes_requested_fraction(self, ftl, small_geometry):
        report = ftl.fill(0.5)
        assert report.page_writes == int(small_geometry.total_pages * 0.5)
        assert report.overwrites == 0
        assert ftl.mapped_pages / ftl.geometry.total_pages == pytest.approx(0.5, abs=0.01)

    def test_fill_with_overwrites_creates_invalid_pages(self, small_geometry, small_chips):
        ftl = PageMapFTL(small_geometry, small_chips)
        ftl.fill(0.8, overwrite_fraction=0.4)
        invalid = 0
        for chip in small_chips.values():
            for plane in chip.iter_planes():
                for used, bits in zip(plane.write_pointer, plane.valid_bits):
                    invalid += used - bits.bit_count()
        assert invalid > 0
        # Live data is less than the total pages written.
        assert ftl.mapped_pages / ftl.geometry.total_pages < 0.8

    def test_fill_rejects_bad_fraction(self, ftl):
        with pytest.raises(ValueError):
            ftl.fill(1.5)
        with pytest.raises(ValueError):
            ftl.fill(0.5, overwrite_fraction=1.0)

    def test_fill_zero_is_noop(self, ftl):
        assert ftl.fill(0.0).page_writes == 0
        assert ftl.mapped_pages / ftl.geometry.total_pages == 0.0

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
        plane.program_bulk(3, 1)
        with pytest.raises(ValueError, match="every block must be erased"):
            ftl.fill(0.5)

    def test_utilization_empty(self, ftl):
        assert ftl.mapped_pages / ftl.geometry.total_pages == 0.0


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
        plane = ftl.chips[old.chip_key].plane(old.die, old.plane)
        assert not plane.valid_bits[old.block] >> old.page & 1

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


class TestTranslateWrite:
    """translate_write against the per-page ``reference_translate_write``."""

    @pytest.mark.parametrize("seed", range(12))
    def test_generated_writes_with_collection_match_reference(self, seed):
        # A base fill, then writes over a span a little wider than it, each
        # followed by the GC trigger on the plane it wrote: overlay and
        # base-layout rewrites, first writes, block rotation, erased base
        # pages and migrations all occur.
        rng = random.Random(seed)
        geometry = WRITE_MANY_GEOMETRIES[seed % len(WRITE_MANY_GEOMETRIES)]
        total = geometry.total_pages
        live = rng.randrange(total // 4, total // 2)
        span = live + rng.randrange(1, 16)
        fast, reference = fresh_ftl(geometry), fresh_ftl(geometry)
        collectors = [
            GarbageCollector(geometry, FlashTiming(), ftl, ftl.chips)
            for ftl in (fast, reference)
        ]
        for ftl in (fast, reference):
            ftl.install_base_fill(live)
        for _ in range(2 * total):
            lpn = rng.randrange(span)
            address = fast.translate_write(lpn)
            assert address == reference_translate_write(reference, lpn)
            for gc in collectors:
                gc.collect_plane_if_needed(address[:2], address.die, address.plane)
        assert ftl_state(fast) == ftl_state(reference)
        assert collectors[0].stats == collectors[1].stats
        assert collectors[0].stats.invocations
        assert list(collectors[0].history) == list(collectors[1].history)

    def test_full_cursor_plane_falls_back_to_next_plane(self, small_geometry):
        fast, reference = fresh_ftl(small_geometry), fresh_ftl(small_geometry)
        sequence = fast.allocator.plane_sequence
        first_plane = sequence[0]
        for ftl in (fast, reference):
            for lpn in range(small_geometry.num_planes):
                ftl.translate_write(lpn)
            # Pile migrations into the first plane until it is full, then
            # write until the cursor points at it again.
            lpn = small_geometry.num_planes
            while ftl._planes[first_plane].free_pages:
                ftl.translate_write(lpn)
                migrate_page(ftl, lpn, preferred_plane=first_plane)
                lpn += 1
            while ftl.allocator.cursor:
                ftl.translate_write(lpn)
                lpn += 1
        assert ftl_state(fast) == ftl_state(reference)
        address = fast.translate_write(3)
        assert address == reference_translate_write(reference, 3)
        assert address.plane_key == sequence[1]
        assert fast.allocator.cursor == 2
        assert ftl_state(fast) == ftl_state(reference)


def reference_flag_erased_base_pages(ftl, flags, plane_key, block):
    """Per-page reference for the base-layout flags ``erase_block`` sets.

    Flags, in ``flags``, every base-layout LPN of ``block`` as moved and
    returns how many were not flagged yet.
    """
    pages_per_block = ftl.geometry.pages_per_block
    num_planes = len(ftl._plane_index)
    plane_index = ftl._plane_index[plane_key]
    newly_moved = 0
    for page in range(pages_per_block):
        base_lpn = (block * pages_per_block + page) * num_planes + plane_index
        if base_lpn < ftl._base_live and not flags[base_lpn]:
            flags[base_lpn] = 1
            newly_moved += 1
    return newly_moved


class TestEraseBlockBaseFlags:
    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("geometry", WRITE_MANY_GEOMETRIES, ids=("small", "narrow"))
    def test_strided_flags_match_per_page_loop(self, geometry, seed):
        # Base fills of every size, including ones that end inside a block,
        # with overwrites flagging scattered LPNs moved beforehand.
        rng = random.Random(seed)
        ftl = fresh_ftl(geometry)
        live = rng.randrange(1, geometry.total_pages * 3 // 4)
        ftl.install_base_layout(live)
        for lpn in rng.sample(range(live), rng.randrange(min(live, 12) + 1)):
            ftl.translate_write(lpn)
        plane_keys = sorted(ftl._plane_index)
        for _ in range(8):
            plane_key = rng.choice(plane_keys)
            block = rng.randrange(geometry.blocks_per_plane)
            flags = bytearray(ftl._base_moved)
            expected = ftl._base_moved_count + reference_flag_erased_base_pages(
                ftl, flags, plane_key, block
            )
            ftl.erase_block(
                plane_key[:2], plane_key[2], plane_key[3], block, swept=rng.random() < 0.5
            )
            assert bytes(ftl._base_moved) == bytes(flags)
            assert ftl._base_moved_count == expected


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
                block_id
                for block_id, used in enumerate(plane.write_pointer)
                if used == plane.pages_per_block and block_id != plane.active_block_id
            ]
            if not victims:
                continue
            block_id = rng.choice(victims)
            valid = plane.valid_bits[block_id].bit_count()
            elsewhere = sum(p.free_pages for p in reference._planes.values()) - plane.free_pages
            if pass_index % 2 and 0 < valid <= elsewhere:
                # Leave fewer free pages than the victim has valid ones, so
                # the tail of the batch falls back to other planes.
                fill_plane((reference, bulk), plane_key, block_id, rng.randrange(valid), rng)
            same_plane = plane.free_pages >= valid
            fallbacks += not same_plane
            passes += 1
            mask = plane.valid_bits[block_id]
            pages, lpns = bulk.valid_lpns_in_block(plane_key, block_id, mask)
            assert (pages, lpns) == reference.valid_lpns_in_block(plane_key, block_id, mask)
            assert None not in lpns
            expected = [migrate_page(reference, lpn, preferred_plane=plane_key) for lpn in lpns]
            runs = []
            moves = bulk.migrate_pages(plane_key, block_id, pages, lpns, runs_out=runs)
            assert moves == expected
            assert calls[-1] == (lpns, expected)
            assert all(old[:4] == new[:4] for old, new in expected) == same_plane
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
