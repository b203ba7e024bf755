"""Garbage collection.

The paper implements "a garbage collection strategy similar to the one
employed in [1]" (Agrawal et al.): greedy victim selection per plane, valid
page migration, then a block erase.  Section 5.9 stresses the schedulers
with a 95%-full fragmented SSD so that GC fires constantly, and shows that
Sprinkler's *readdressing callback* (Section 4.3) lets the scheduler follow
the migrations and re-coalesce the remaining memory requests.

:class:`GarbageCollector` decides *when* to collect (a plane below
:data:`FREE_BLOCK_WATERMARK` erased blocks), picks victims, performs the FTL
bookkeeping and prices the work; the simulator turns the returned
:class:`GCJob` into chip occupancy.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

from repro.flash.chip import FlashChip, planes_by_key
from repro.flash.geometry import PhysicalPageAddress, SSDGeometry
from repro.flash.timing import FlashTiming
from repro.ftl.mapping import PageMapFTL
from repro.obs.trace import NULL_SINK

#: A plane is collected when it holds fewer erased blocks than this.
FREE_BLOCK_WATERMARK = 2


@dataclass
class GCJob:
    """One garbage-collection pass on a single plane."""

    chip_key: tuple
    die: int
    plane: int
    victim_block: int
    migrated_lpns: List[int]
    moves: List[Tuple[PhysicalPageAddress, PhysicalPageAddress]]
    duration_ns: int


@dataclass
class GCStats:
    """Counters describing garbage collection activity."""

    invocations: int = 0
    blocks_erased: int = 0
    pages_migrated: int = 0
    total_gc_time_ns: int = 0
    #: Valid-marked pages with no reverse mapping encountered during
    #: collection.  A non-zero count means FTL bookkeeping diverged from the
    #: block valid bits - tests assert this stays at zero.
    orphaned_pages: int = 0

    def delta(self, baseline: "GCStats") -> "GCStats":
        """Counters accumulated since ``baseline`` (a copy of an earlier self)."""
        return GCStats(
            invocations=self.invocations - baseline.invocations,
            blocks_erased=self.blocks_erased - baseline.blocks_erased,
            pages_migrated=self.pages_migrated - baseline.pages_migrated,
            total_gc_time_ns=self.total_gc_time_ns - baseline.total_gc_time_ns,
            orphaned_pages=self.orphaned_pages - baseline.orphaned_pages,
        )


class GarbageCollector:
    """Greedy per-plane garbage collector."""

    #: Size of the :attr:`history` ring (most recent passes kept).
    HISTORY_LIMIT = 4096

    def __init__(
        self,
        geometry: SSDGeometry,
        timing: FlashTiming,
        ftl: PageMapFTL,
        chips: Dict[tuple, FlashChip],
        *,
        enabled: bool = True,
    ) -> None:
        self.geometry = geometry
        self.timing = timing
        self.ftl = ftl
        self.chips = chips
        self.enabled = enabled
        #: Direct plane lookup - the GC trigger runs once per host page
        #: write (see :func:`repro.flash.chip.planes_by_key`).
        self._planes = planes_by_key(chips)
        #: Per-page program latency, precomputed as a flat array: GC prices
        #: one program per migrated page, and the table turns the per-page
        #: timing-model call into a C list index.
        self._program_ns_by_page = [
            timing.program_latency_ns(page) for page in range(geometry.pages_per_block)
        ]
        #: Prefix sums of the table above: pricing a whole destination run
        #: (contiguous pages ``start..start+count-1``) is two lookups and a
        #: subtraction instead of a per-page loop.
        prefix = [0]
        for latency in self._program_ns_by_page:
            prefix.append(prefix[-1] + latency)
        self._program_ns_prefix = prefix
        self.stats = GCStats()
        #: Trace sink, attached by the simulator after preconditioning, so
        #: untimed aging collections never reach it.
        self.sink = NULL_SINK
        #: Ordered log of recent collection passes as
        #: ``(chip_key, die, plane, victim_block, migrated page count)`` - the
        #: GC job sequence.  Victim selection ties break on ``(valid_pages,
        #: block_id)`` and each trigger collects only the plane a write just
        #: consumed a page on, so identically-seeded runs must produce
        #: identical histories (the determinism regression tests compare
        #: these logs directly).  The
        #: log is a ring of the most recent :data:`HISTORY_LIMIT` passes so
        #: a GC-heavy trace replay does not accumulate O(invocations)
        #: memory; aggregate counts live in :attr:`stats`.
        self.history: Deque[Tuple[tuple, int, int, int, int]] = deque(
            maxlen=self.HISTORY_LIMIT
        )

    # ------------------------------------------------------------------
    # Collection
    # ------------------------------------------------------------------
    def collect(
        self, chip_key: tuple, die: int, plane: int, victim: int, now_ns: Optional[int]
    ) -> GCJob:
        """Run one GC pass on a plane: migrate block ``victim``'s valid pages, erase it.

        ``victim`` is the id of the plane's greedy choice (fewest valid pages, ties
        broken on the lowest block id - see
        :meth:`repro.flash.plane.Plane.greedy_victim`), selected by the
        caller.  All FTL and block bookkeeping is applied immediately; the
        caller is responsible for charging ``duration_ns`` of chip busy
        time.  Every pass is appended to :attr:`history`.  ``now_ns`` (the
        simulated clock; ``None`` for untimed aging) timestamps the
        ``gc.trigger`` trace instant.
        """
        channel, chip_idx = chip_key
        plane_key = (channel, chip_idx, die, plane)
        plane_obj = self._planes[plane_key]
        # Resolve the victim's valid pages to LPNs in one bulk reverse-map
        # pass (set bits of the mask, ascending page order - identical to
        # scanning every page; greedy victims are mostly invalid).
        pages, lpns = self.ftl.valid_lpns_in_block(
            plane_key, victim, plane_obj.valid_bits[victim]
        )
        if None in lpns:
            # Orphaned valid bits: the block says those pages are live but
            # the FTL has no owner for them.  Count them loudly (tests assert
            # the counter stays at zero) instead of dropping them silently.
            live_pages: List[int] = []
            migrated: List[int] = []
            for page, lpn in zip(pages, lpns):
                if lpn is None:
                    self.stats.orphaned_pages += 1
                    plane_obj.invalidate(victim, page)
                else:
                    live_pages.append(page)
                    migrated.append(lpn)
            pages = live_pages
        else:
            migrated = lpns
        # Relocate every live page as one bulk operation: one allocation run
        # per destination block, one victim mask update, one overlay pass.
        runs: List[Tuple[int, int]] = []
        moves = self.ftl.migrate_pages(plane_key, victim, pages, migrated, runs_out=runs)
        # Price each destination run from the program-latency prefix sums:
        # the run list covers every move (contiguous page spans within one
        # destination block), so the sum equals pricing every move's
        # destination page individually.
        prefix = self._program_ns_prefix
        duration = len(moves) * self.timing.read_ns
        for start, run_count in runs:
            duration += prefix[start + run_count] - prefix[start]
        # migrate_pages just relocated every valid page (and invalidation
        # popped the rest), so the victim has no reverse entries left.
        self.ftl.erase_block(chip_key, die, plane, victim, swept=True)
        duration += self.timing.erase_latency_ns()
        job = GCJob(
            chip_key=chip_key,
            die=die,
            plane=plane,
            victim_block=victim,
            migrated_lpns=migrated,
            moves=moves,
            duration_ns=duration,
        )
        self.stats.invocations += 1
        self.stats.blocks_erased += 1
        self.stats.pages_migrated += len(migrated)
        self.stats.total_gc_time_ns += duration
        self.history.append((chip_key, die, plane, victim, len(migrated)))
        if self.sink.enabled:
            self.sink.instant(
                "gc.trigger",
                category="ftl",
                track=f"chip {chip_key[0]}.{chip_key[1]}",
                ts_ns=now_ns,
                die=die,
                plane=plane,
                victim_block=victim,
                pages_migrated=len(migrated),
                duration_ns=duration,
            )
        return job

    def collect_plane_if_needed(
        self, chip_key: tuple, die: int, plane: int, now_ns: Optional[int] = None
    ) -> Optional[GCJob]:
        """Collect one victim on a specific plane when it is below the watermark.

        This is the trigger the simulator uses: garbage collection fires in
        proportion to the pages *consumed on that plane* (one victim per
        trigger), which keeps the write-amplification behaviour realistic
        instead of re-collecting every plane of a chip on every host write.
        Steady-state aging (:mod:`repro.lifetime.steady`) applies the same
        trigger inline.
        """
        if not self.enabled:
            return None
        plane_obj = self._planes[(chip_key[0], chip_key[1], die, plane)]
        if plane_obj.free_blocks >= FREE_BLOCK_WATERMARK:
            return None
        victim = plane_obj.greedy_victim()
        if victim is None:
            return None
        return self.collect(chip_key, die, plane, victim, now_ns)
