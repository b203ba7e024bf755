"""Page-level address mapping FTL.

The paper's evaluation uses "a pure page-level address mapping FTL" (Section
5.1).  :class:`PageMapFTL` keeps a logical-to-physical map plus the reverse
map needed by garbage collection, performs dynamic page allocation for
writes, and relocates live pages for garbage collection, reporting each
batch of moves through one migration hook (the readdressing callback).  All
timing is handled elsewhere; the FTL is pure bookkeeping.

Both ways of starting from a used device - the Figure 17 prefill
(:meth:`PageMapFTL.fill`) and fast-forward aging
(:func:`repro.lifetime.state.apply_device_state`) - run through the same two
bulk primitives:

* :meth:`PageMapFTL.install_base_fill` - a sequential fill of a fresh device
  lands in a purely *arithmetic* layout (the allocator stripes write ``i``
  onto plane ``i % P`` and fills blocks in order), so the blocks are
  bulk-programmed and the FTL serves those mappings implicitly instead of
  materialising millions of dictionary entries.  :meth:`install_base_layout`
  declares "logical pages ``0..live-1`` sit in the striped base layout"; the
  explicit ``_map``/``_reverse`` dictionaries then act as an overlay for
  every page that is subsequently rewritten, migrated or erased (tracked in
  ``_base_moved``).
* :meth:`PageMapFTL.write_many` - the scattered overwrites that follow, as
  one batched, GC-free equivalent of a ``translate_write`` loop.

Behaviour is bit-identical to writing every page through
``translate_write`` - the lifetime and mapping tests compare full occupancy
snapshots and map insertion order - which is what makes aging a 512-chip
device a bookkeeping errand instead of a simulation campaign.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.flash.chip import FlashChip, planes_by_key
from repro.flash.geometry import PhysicalPageAddress, SSDGeometry
from repro.ftl.allocation import PageAllocator

#: Seed of the overwrite draw in :meth:`PageMapFTL.fill`.
FILL_SEED = 12345


@dataclass
class FTLStats:
    """Counters describing FTL activity."""

    host_writes: int = 0
    host_reads: int = 0
    gc_writes: int = 0
    invalidations: int = 0
    migrations: int = 0


@dataclass
class PreconditionReport:
    """What a preconditioning pass did to the device."""

    live_pages: int
    overwrites: int

    @property
    def page_writes(self) -> int:
        """Host-equivalent page writes (= physical pages programmed)."""
        return self.live_pages + self.overwrites


def prefill_plan(
    total_pages: int, fraction: float, overwrite_fraction: float
) -> Tuple[int, int]:
    """``(live, overwrites)`` of a prefill writing ``fraction`` of the device.

    ``fraction`` of the ``total_pages`` physical pages are written, an
    ``overwrite_fraction`` share of them as rewrites of already written
    logical pages; the rest is the sequential base fill of logical pages
    ``0..live-1``, which is also how many distinct logical pages stay mapped.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must be in [0, 1]")
    if not 0.0 <= overwrite_fraction < 1.0:
        raise ValueError("overwrite_fraction must be in [0, 1)")
    overwrites = int(total_pages * fraction * overwrite_fraction)
    return int(total_pages * fraction) - overwrites, overwrites


class PageMapFTL:
    """Pure page-mapped FTL with dynamic allocation and migration support."""

    def __init__(self, geometry: SSDGeometry, chips: Dict[tuple, FlashChip]) -> None:
        self.geometry = geometry
        self.chips = chips
        self.allocator = PageAllocator(geometry, chips)
        self._map: Dict[int, PhysicalPageAddress] = {}
        self._reverse: Dict[PhysicalPageAddress, int] = {}
        #: Logical pages 0.._base_live-1 are implicitly mapped to the striped
        #: base layout (see install_base_layout) unless flagged in
        #: _base_moved.  The moved flags are a flat byte-map indexed by LPN
        #: (sized at install time) rather than a set of ints: the aged-device
        #: overlay probe runs on every lookup/reverse-lookup, and a single C
        #: index beats hashing arbitrary-size ints - at an eighth of the
        #: memory.  _base_moved_count tracks the number of set flags.
        self._base_live = 0
        self._base_moved = bytearray()
        self._base_moved_count = 0
        self._plane_index: Dict[tuple, int] = {
            key: index for index, key in enumerate(self.allocator.plane_sequence)
        }
        #: Direct plane lookup: the invalidation path runs once per
        #: overwrite/migration (see :func:`repro.flash.chip.planes_by_key`).
        self._planes = planes_by_key(chips)
        #: The same planes in striping order: base-layout LPN ``lpn`` lives
        #: on ``_plane_list[lpn % P]``.
        self._plane_list = [self._planes[key] for key in self.allocator.plane_sequence]
        self.stats = FTLStats()
        #: Called as ``hook(lpns, moves)`` after every :meth:`migrate_pages`
        #: batch; the simulator sets it, once preconditioning is done, to
        #: :meth:`repro.ftl.callbacks.ReaddressingCallback.on_migrations`.
        self.migration_hook: Optional[Callable[..., None]] = None

    # ------------------------------------------------------------------
    # Translation
    # ------------------------------------------------------------------
    def translate_read(self, lpn: int) -> PhysicalPageAddress:
        """Physical location of a logical page for a read.

        Never-written pages resolve to their static (striped) home so reads
        of a pristine drive still exercise the full resource layout.
        """
        self.stats.host_reads += 1
        address = self.lookup(lpn)
        if address is not None:
            return address
        return self.allocator.static_address(lpn)

    def translate_write(self, lpn: int) -> PhysicalPageAddress:
        """Allocate a fresh physical page for a write and update the map.

        The one host-write entry point: the simulator's admission and
        steady-state aging (:func:`repro.lifetime.steady.age_to_steady_state`)
        both write page by page through here, so :meth:`lookup` and the
        base-layout address arithmetic are inlined.  The current version
        goes stale first: an overlay version loses its page bit and its
        reverse entry; an unmoved base-layout version (which has no reverse
        entry) loses its page bit and its LPN is flagged moved.
        """
        old = self._map.get(lpn)
        if old is not None:
            self._planes[old[:4]].invalidate(old[4], old[5])
            self._reverse.pop(old, None)
            self.stats.invalidations += 1
        elif lpn < self._base_live and not self._base_moved[lpn]:
            num_planes = len(self._plane_list)
            position = lpn // num_planes
            block, page = divmod(position, self.geometry.pages_per_block)
            self._plane_list[lpn % num_planes].invalidate(block, page)
            self._base_moved[lpn] = 1
            self._base_moved_count += 1
            self.stats.invalidations += 1
        address = self.allocator.allocate()
        self._map[lpn] = address
        self._reverse[address] = lpn
        self.stats.host_writes += 1
        return address

    def lookup(self, lpn: int) -> Optional[PhysicalPageAddress]:
        """Current mapping of a logical page, or ``None`` if never written."""
        address = self._map.get(lpn)
        if address is not None:
            return address
        if lpn < self._base_live and not self._base_moved[lpn]:
            return self.allocator.static_address(lpn)
        return None

    def reverse_lookup(self, address: PhysicalPageAddress) -> Optional[int]:
        """Logical page stored at a physical address, or ``None`` if stale/free."""
        lpn = self._reverse.get(address)
        if lpn is not None:
            return lpn
        lpn = self._base_lpn(address)
        if lpn is not None and not self._base_moved[lpn]:
            return lpn
        return None

    def _base_lpn(self, address: PhysicalPageAddress) -> Optional[int]:
        """The base-layout LPN stored at ``address``, if any.

        Inverse of the striped base layout: only meaningful for addresses
        inside the installed base fill (``lpn < _base_live``); everything
        else returns ``None``.
        """
        if not self._base_live:
            return None
        plane_index = self._plane_index[address.plane_key]
        position = address.block * self.geometry.pages_per_block + address.page
        lpn = position * len(self._plane_index) + plane_index
        if lpn < self._base_live:
            return lpn
        return None

    @property
    def mapped_pages(self) -> int:
        """Number of logical pages with a live physical mapping."""
        return len(self._map) + self._base_live - self._base_moved_count

    def mapping_items(self):
        """Live ``(lpn, address)`` pairs (iteration order unspecified).

        Merges the explicit overlay map with the implicit base layout.
        Read-only view used by occupancy snapshots and device-state
        verification; mutate the map only through the translate/migrate API.
        """
        if not self._base_live:
            return self._map.items()
        return self._iter_mapping_items()

    def _iter_mapping_items(self):
        yield from self._map.items()
        static = self.allocator.static_address
        moved = self._base_moved
        for lpn in range(self._base_live):
            if not moved[lpn]:
                yield lpn, static(lpn)

    def install_base_layout(self, live: int) -> None:
        """Declare logical pages ``0..live-1`` written in the striped layout.

        The O(1) core of fast-forward aging: instead of materialising one
        map entry per page, the FTL serves the sequential base fill
        arithmetically (``lookup``/``reverse_lookup`` fall through to the
        stripe formula) and tracks later rewrites in the overlay.  The
        caller (:meth:`install_base_fill`) bulk-programs the matching block
        bookkeeping and positions the allocator cursor.  Counts as host
        writes, exactly like the replayed equivalent.  Legal only once, on a
        factory-fresh FTL.
        """
        if self._base_live or self._map or self.allocator.cursor != 0:
            raise ValueError("base layout must be installed on a fresh FTL")
        if not 0 <= live <= self.geometry.total_pages:
            raise ValueError("live page count out of range")
        self._base_live = live
        self._base_moved = bytearray(live)
        self._base_moved_count = 0
        self.stats.host_writes += live

    def install_base_fill(self, live: int) -> None:
        """Write logical pages ``0..live-1`` sequentially, in bulk.

        The state ``live`` ``translate_write`` calls leave on a fresh
        device, reached in O(planes) Python steps: the round-robin
        allocator stripes write ``i`` onto plane ``i % P`` and fills that
        plane's blocks in order, so every address is arithmetic.  Each
        plane's full blocks are programmed by one slice assignment per
        state list and its partial last block by
        :meth:`repro.flash.plane.Plane.program_bulk`; each plane's active
        block and the allocator cursor are placed where the per-page writes
        would leave them, and the logical map is declared as the implicit
        base layout (:meth:`install_base_layout`).

        Raises ``ValueError`` unless the device is factory-fresh: no mapped
        page, the allocator at its first plane, and every block erased
        (programmed blocks break the arithmetic layout).
        """
        if self.mapped_pages or self.allocator.cursor != 0:
            raise ValueError(
                "base fill requires a factory-fresh FTL: pages are already "
                "mapped or the allocator has moved"
            )
        for plane in self._planes.values():
            if plane.free_blocks != plane.blocks_per_plane:
                raise ValueError(
                    "base fill requires a factory-fresh FTL: every block must "
                    "be erased (replay page by page instead)"
                )
        self.install_base_layout(live)
        sequence = self.allocator.plane_sequence
        num_planes = len(sequence)
        pages_per_block = self.geometry.pages_per_block
        full_mask = (1 << pages_per_block) - 1
        base, extra = divmod(live, num_planes)
        for index, plane_key in enumerate(sequence):
            count = base + (1 if index < extra else 0)
            if count == 0:
                continue
            plane = self._planes[plane_key]
            full_blocks, remainder = divmod(count, pages_per_block)
            if full_blocks:
                plane.write_pointer[:full_blocks] = [pages_per_block] * full_blocks
                plane.valid_bits[:full_blocks] = [full_mask] * full_blocks
                plane.valid_count[:full_blocks] = [pages_per_block] * full_blocks
                plane.free_blocks -= full_blocks
                plane.free_pages -= full_blocks * pages_per_block
            if remainder:
                plane.program_bulk(full_blocks, remainder)
            plane.active_block_id = (count - 1) // pages_per_block
        self.allocator.cursor = live % num_planes

    def write_many(self, lpns: Sequence[int]) -> None:
        """Batched, GC-free ``for lpn in lpns: self.translate_write(lpn)``.

        Leaves the same mapping, block bits, active blocks, allocator cursor
        and counters as the per-page loop, and fills ``_map``/``_reverse``
        in the same insertion order.  With
        no garbage collection and no full plane, write ``k`` lands on plane
        ``(cursor + k) % P``, so each plane's share is allocated in whole
        active-block runs (:meth:`repro.flash.plane.Plane.allocate_run`),
        the superseded versions - base layout, overlay or earlier in the
        batch - clear in one ``invalidate_mask`` per block, and base-layout
        old addresses are inline arithmetic (they have no reverse entries).
        When some plane lacks free pages for its share, the allocator would
        skip it, so the batch falls back to the per-page loop.
        """
        count = len(lpns)
        if not count:
            return
        allocator = self.allocator
        sequence = allocator.plane_sequence
        num_planes = len(sequence)
        cursor = allocator.cursor
        planes = self._plane_list
        base, extra = divmod(count, num_planes)
        shares = [
            base + (1 if (index - cursor) % num_planes < extra else 0)
            for index in range(num_planes)
        ]
        if any(plane.free_pages < share for plane, share in zip(planes, shares)):
            for lpn in lpns:
                self.translate_write(lpn)
            return
        # 1. Destinations: each plane's share in active-block runs, then
        #    interleaved back into write order (the plane of write k is
        #    fixed by k, so allocation never depends on the mapping pass).
        new_address = tuple.__new__
        address_cls = PhysicalPageAddress
        news: List[PhysicalPageAddress] = [None] * count  # type: ignore[list-item]
        for offset in range(min(count, num_planes)):
            index = (cursor + offset) % num_planes
            channel, chip, die, plane_id = sequence[index]
            allocate_run = planes[index].allocate_run
            addresses: List[PhysicalPageAddress] = []
            remaining = shares[index]
            while remaining:
                block, start, run = allocate_run(remaining)
                addresses += [
                    new_address(address_cls, (channel, chip, die, plane_id, block, page))
                    for page in range(start, start + run)
                ]
                remaining -= run
            news[offset::num_planes] = addresses
        # 2. Mapping pass in write order: each write supersedes the LPN's
        #    current version, whose page bit joins its block's stale mask
        #    (keyed by plane index * blocks per plane + block).
        explicit_map = self._map
        map_get = explicit_map.get
        plane_index = self._plane_index
        blocks_per_plane = self.geometry.blocks_per_plane
        pages_per_block = self.geometry.pages_per_block
        base_live = self._base_live
        moved = self._base_moved
        newly_moved = 0
        masks: Dict[int, int] = {}
        masks_get = masks.get
        stale: List[PhysicalPageAddress] = []
        for lpn, new in zip(lpns, news):
            old = map_get(lpn)
            if old is not None:
                stale.append(old)
                key = plane_index[old[:4]] * blocks_per_plane + old[4]
                masks[key] = masks_get(key, 0) | (1 << old[5])
            elif lpn < base_live and not moved[lpn]:
                moved[lpn] = 1
                newly_moved += 1
                position = lpn // num_planes
                key = (lpn % num_planes) * blocks_per_plane + position // pages_per_block
                masks[key] = masks_get(key, 0) | (1 << (position % pages_per_block))
            explicit_map[lpn] = new
        for key, mask in masks.items():
            index, block = divmod(key, blocks_per_plane)
            planes[index].invalidate_mask(block, mask)
        # 3. Reverse map: every new version in write order, then the
        #    superseded overlay versions (including ones written earlier in
        #    this batch) dropped - the contents and order the interleaved
        #    per-page inserts and pops produce.
        reverse = self._reverse
        reverse.update(zip(news, lpns))
        reverse_pop = reverse.pop
        for old in stale:
            reverse_pop(old, None)
        self._base_moved_count += newly_moved
        stats = self.stats
        stats.invalidations += len(stale) + newly_moved
        stats.host_writes += count
        allocator.cursor = (cursor + count) % num_planes

    # ------------------------------------------------------------------
    # Invalidation and migration
    # ------------------------------------------------------------------
    def valid_lpns_in_block(
        self, plane_key: tuple, block_id: int, valid_mask: int
    ) -> Tuple[List[int], List[Optional[int]]]:
        """LPNs stored at the set bits of ``valid_mask``, ascending page order.

        Returns parallel ``(pages, lpns)`` lists; a page whose valid bit is
        set but that has no live mapping yields ``None`` (an orphan - the
        garbage collector counts those loudly).  One bulk reverse-map pass:
        the explicit reverse map is probed with plain tuples (which hash and
        compare equal to :class:`PhysicalPageAddress`) and the base-layout
        fallback is inlined arithmetic, so no per-page address objects or
        method calls are paid.
        """
        channel, chip, die, plane = plane_key
        reverse_get = self._reverse.get
        base_live = self._base_live
        if base_live:
            plane_index = self._plane_index[plane_key]
            num_planes = len(self._plane_index)
            base_position = block_id * self.geometry.pages_per_block
            moved = self._base_moved
        pages: List[int] = []
        lpns: List[Optional[int]] = []
        mask = valid_mask
        while mask:
            low_bit = mask & -mask
            mask ^= low_bit
            page = low_bit.bit_length() - 1
            lpn = reverse_get((channel, chip, die, plane, block_id, page))
            if lpn is None and base_live:
                candidate = (base_position + page) * num_planes + plane_index
                if candidate < base_live and not moved[candidate]:
                    lpn = candidate
            pages.append(page)
            lpns.append(lpn)
        return pages, lpns

    def migrate_pages(
        self,
        plane_key: tuple,
        block_id: int,
        pages: List[int],
        lpns: List[int],
        runs_out: Optional[List[Tuple[int, int]]] = None,
    ) -> List[Tuple[PhysicalPageAddress, PhysicalPageAddress]]:
        """Bulk-migrate live pages out of one victim block.

        ``lpns[i]`` currently lives at ``pages[i]`` of ``block_id`` on
        ``plane_key``; the victim block must be full.  Equivalent to
        migrating each LPN in order on its own - ``allocate(preferred_plane=
        plane_key)``, invalidate the old page, remap - with identical
        destination addresses and counters (``tests/test_mapping.py`` keeps
        that per-page reference), but with the per-page round trips batched:
        destinations come from whole active-block runs
        (:meth:`repro.flash.plane.Plane.allocate_run`), the victim's valid
        bits clear in one mask update, and the overlay/reverse-map
        bookkeeping is a single pass.  Returns the ``(old, new)`` move list
        and hands it to :attr:`migration_hook`, if set.

        The batching is legal because nothing a migration mutates feeds back
        into the pass itself: destinations never land in the (full) victim
        block, each LPN appears at most once, and the hook only touches
        scheduler-side request state, never the FTL maps.  For the same
        reason the destinations are distinct and none is also a source, the
        precondition of the hook's batched form.

        ``runs_out``, when given, receives one ``(start_page, count)`` entry
        per destination page span (covering every move, in order) so the
        caller can price program latencies per span instead of per page.
        """
        channel, chip, die, plane = plane_key
        count = len(lpns)
        plane_obj = self._planes[plane_key]
        allocator = self.allocator
        allocate_run = plane_obj.allocate_run
        # Addresses are built with tuple.__new__ instead of the NamedTuple
        # constructor: identical objects, half the construction cost, and
        # this is the hottest allocation site in GC-bound runs.
        new_address = tuple.__new__
        address_cls = PhysicalPageAddress
        # 1. Invalidate the victim pages in one mask update.  Safe to do
        #    before allocating destinations: the victim block is full, so no
        #    destination can land in it, and allocation never reads valid
        #    bits.
        victim_mask = 0
        for page in pages:
            victim_mask |= 1 << page
        plane_obj.invalidate_mask(block_id, victim_mask)
        # 2. One fused pass per destination run: allocate, then do the
        #    overlay/reverse-map bookkeeping for each page of the run
        #    immediately.  The destination sequence is exactly what the
        #    per-page path's allocate(preferred_plane=...) calls would
        #    produce, including the global round-robin fallback once the
        #    plane fills up (bookkeeping never feeds back into allocation).
        explicit_map = self._map
        reverse = self._reverse
        reverse_pop = reverse.pop
        base_live = self._base_live
        moved = self._base_moved
        newly_moved = 0
        moves: List[Tuple[PhysicalPageAddress, PhysicalPageAddress]] = []
        append_move = moves.append
        index = 0
        remaining = count
        while remaining:
            run = allocate_run(remaining)
            if run is None:
                # Fallback: plane full - the allocator picks the next plane
                # in its global round-robin order (a cross-plane move).
                new = allocator.allocate(preferred_plane=plane_key)
                lpn = lpns[index]
                old = new_address(
                    address_cls, (channel, chip, die, plane, block_id, pages[index])
                )
                reverse_pop(old, None)
                if lpn < base_live and not moved[lpn]:
                    moved[lpn] = 1
                    newly_moved += 1
                explicit_map[lpn] = new
                reverse[new] = lpn
                append_move((old, new))
                if runs_out is not None:
                    runs_out.append((new[5], 1))
                index += 1
                remaining -= 1
                continue
            run_block, start, run_count = run
            if runs_out is not None:
                runs_out.append((start, run_count))
            end = index + run_count
            run_lpns = lpns[index:end]
            # Bulk the whole run through C-level machinery: comprehensions
            # for the address objects, dict.update/extend for the maps and
            # move list.  This replaces the interpreted per-page loop body
            # (the hottest code in GC-bound runs) with a handful of C calls
            # per destination run.
            news = [
                new_address(address_cls, (channel, chip, die, plane, run_block, page))
                for page in range(start, start + run_count)
            ]
            olds = [
                new_address(address_cls, (channel, chip, die, plane, block_id, page))
                for page in pages[index:end]
            ]
            for old in olds:
                reverse_pop(old, None)
            if base_live:
                for lpn in run_lpns:
                    if lpn < base_live and not moved[lpn]:
                        moved[lpn] = 1
                        newly_moved += 1
            explicit_map.update(zip(run_lpns, news))
            reverse.update(zip(news, run_lpns))
            moves.extend(zip(olds, news))
            index = end
            remaining -= run_count
        self._base_moved_count += newly_moved
        stats = self.stats
        stats.invalidations += count
        stats.migrations += count
        stats.gc_writes += count
        hook = self.migration_hook
        if hook is not None:
            hook(lpns, moves)
        return moves

    def erase_block(
        self, chip_key: tuple, die: int, plane: int, block: int, *, swept: bool = False
    ) -> None:
        """Erase a block after its valid pages have been migrated away.

        ``swept=True`` is the caller's guarantee that no page of the block
        still has a reverse-map entry - true right after
        :meth:`migrate_pages` relocated every valid page (invalid pages
        dropped their entries when they were invalidated).  It skips the
        defensive straggler sweep; divergence from that guarantee is the
        same bookkeeping bug the garbage collector's orphan counter already
        surfaces loudly.
        """
        chip = self.chips[chip_key]
        plane_obj = chip.plane(die, plane)
        channel, chip_idx = chip_key
        base_live = self._base_live
        if base_live:
            # Base-layout pages living in this block lose their implicit
            # mapping too (idempotent for pages already moved elsewhere).
            # Their LPNs are strided by the plane count, so one extended
            # slice of the moved flags covers the block's live ones.
            num_planes = len(self._plane_index)
            start = (
                block * self.geometry.pages_per_block * num_planes
                + self._plane_index[(channel, chip_idx, die, plane)]
            )
            stop = min(start + plane_obj.pages_per_block * num_planes, base_live)
            moved = self._base_moved
            flags = moved[start:stop:num_planes]
            self._base_moved_count += flags.count(0)
            moved[start:stop:num_planes] = b"\x01" * len(flags)
        if not swept:
            # Drop reverse mappings of any straggler pages (there should be
            # none after migration, but stale entries must never survive an
            # erase).  Plain tuples hash and compare equal to
            # PhysicalPageAddress (a NamedTuple), so the sweep probes the
            # reverse map without constructing one address object per page.
            reverse_pop = self._reverse.pop
            explicit_map = self._map
            for page in range(plane_obj.pages_per_block):
                address = (channel, chip_idx, die, plane, block, page)
                lpn = reverse_pop(address, None)
                if lpn is not None and explicit_map.get(lpn) == address:
                    del explicit_map[lpn]
        plane_obj.erase(block)

    def fill(
        self,
        fraction: float,
        *,
        overwrite_fraction: float = 0.0,
    ) -> PreconditionReport:
        """Pre-condition the SSD by writing ``fraction`` of its physical space.

        Used to create the "fragmented SSD filled by 95%" starting point of
        the GC experiment (Figure 17).  ``overwrite_fraction`` is the share
        of the pre-conditioning writes that are *overwrites* of already
        written logical pages, chosen pseudo-randomly (seeded, so runs are
        reproducible).  The overwrites scatter invalid pages across every
        block - exactly what a drive that was filled by random writes looks
        like, and what makes greedy garbage collection productive rather
        than pure thrash.

        The sequential part is :meth:`install_base_fill` of logical pages
        ``0..live-1`` (see :func:`prefill_plan`); the overwrites are
        :meth:`write_many` batches of distinct pages drawn with
        ``rng.sample``.  Legal only on a factory-fresh device (``ValueError``
        otherwise).  Returns the :class:`PreconditionReport`; its
        ``page_writes`` is the number of page writes performed.
        Bookkeeping only - no time is simulated.
        """
        live, overwrites = prefill_plan(
            self.geometry.total_pages, fraction, overwrite_fraction
        )
        self.install_base_fill(live)
        filled = max(1, live)
        # Overwrite a pseudo-random subset of the filled logical pages so the
        # surviving valid pages are spread uniformly across blocks (no
        # correlation with the plane/block striping of the first pass).
        rng = random.Random(FILL_SEED)
        remaining = overwrites
        while remaining > 0:
            batch = min(remaining, filled)
            self.write_many(rng.sample(range(filled), batch))
            remaining -= batch
        return PreconditionReport(live_pages=live, overwrites=overwrites)
