"""Steady-state aging: write passes until write amplification converges.

Fast-forward filling (:mod:`repro.lifetime.state`) leaves a device full and
fragmented, but not yet in the *converged GC regime*: the first few
collection rounds still harvest the easy, invalid-heavy victims the fill
pass scattered.  Real devices are measured after sustained writing has
pushed write amplification onto its plateau - the state SNIA-style
preconditioning ("write the device several times over until throughput
stabilises") aims for.

:func:`age_to_steady_state` reproduces that plateau at bookkeeping speed:
it issues hot/cold-skewed overwrite passes straight through the FTL,
triggering garbage collection exactly the way the simulator does (per plane,
on the plane each write consumed a page on), and measures per-pass write
amplification until two consecutive passes agree within a relative
tolerance.  No events, no scheduler - a pass over millions of pages runs in
seconds, and the resulting device state is deterministic for the seed.

The pass is a page-by-page loop on purpose.  Batching writes with
``PageMapFTL.write_many`` would need a chunk boundary at every collection,
and on an aged device GC fires about once every 11 writes device-wide: the
chunks would average about 11 pages, each paying ``write_many``'s per-call
set-up over every plane.  Instead each pass draws its targets in one batch
(:func:`~repro.lifetime.state.draw_skewed_lpns`), writes each through the
lean ``PageMapFTL.translate_write`` and tests the collection trigger inline.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.flash.chip import planes_by_key
from repro.ftl.garbage_collector import FREE_BLOCK_WATERMARK, GarbageCollector
from repro.ftl.mapping import PageMapFTL
from repro.lifetime.state import DeviceState, draw_skewed_lpns, hot_cold_split

#: Relative write-amplification change between two consecutive passes at
#: which aging counts as converged.
STEADY_TOLERANCE = 0.05
#: Passes after which aging gives up converging.
STEADY_MAX_PASSES = 8
#: Overwrites per pass, as a share of the live pages.
STEADY_PASS_FRACTION = 0.05


@dataclass
class SteadyStateReport:
    """Outcome of one :func:`age_to_steady_state` run."""

    passes: int
    converged: bool
    #: Write amplification of each pass, in order (host + migrated) / host.
    wa_history: Tuple[float, ...] = ()
    host_writes: int = 0
    pages_migrated: int = 0
    gc_invocations: int = 0
    blocks_erased: int = 0

    @property
    def write_amplification(self) -> float:
        """WA of the final (converged) pass; 1.0 when no pass ran."""
        return self.wa_history[-1] if self.wa_history else 1.0


def age_to_steady_state(
    ftl: PageMapFTL,
    gc: GarbageCollector,
    state: DeviceState,
    *,
    live_pages: int,
    rng: Optional[random.Random] = None,
) -> SteadyStateReport:
    """Run skewed write passes until per-pass write amplification converges.

    Each pass draws ``live_pages * STEADY_PASS_FRACTION`` overwrite targets
    among the live LPNs (hot/cold skew as in the fill recipe, one
    :func:`~repro.lifetime.state.draw_skewed_lpns` batch per pass) and writes
    them through ``ftl.translate_write`` one page at a time.  After every
    write the plane it consumed a page on is collected once when it holds
    fewer than :data:`~repro.ftl.garbage_collector.FREE_BLOCK_WATERMARK`
    erased blocks: the trigger of ``gc.collect_plane_if_needed``, tested
    inline.  That is the trigger discipline
    :class:`~repro.sim.ssd.SSDSimulator` uses, so the wear and
    fragmentation produced here match what sustained simulated writing would
    produce, minus the event machinery.  Convergence: the WA of two
    consecutive passes differs by at most :data:`STEADY_TOLERANCE` relative;
    gives up (``converged=False``) after :data:`STEADY_MAX_PASSES`.

    Requires an enabled garbage collector: without reclamation a full
    device would simply run out of pages mid-pass.
    """
    if not gc.enabled:
        raise ValueError("steady-state aging requires an enabled garbage collector")
    if rng is None:
        rng = random.Random(state.seed)
    if live_pages <= 0:
        return SteadyStateReport(passes=0, converged=True)
    pass_size = max(1, int(live_pages * STEADY_PASS_FRACTION))
    hot, cold = hot_cold_split(live_pages, state.hot_fraction)
    planes = planes_by_key(ftl.chips)
    translate_write = ftl.translate_write
    collect = gc.collect

    wa_history = []
    converged = False
    invocations_before = gc.stats.invocations
    erased_before = gc.stats.blocks_erased
    migrated_total_before = gc.stats.pages_migrated
    host_total = 0
    previous: Optional[float] = None
    for _ in range(STEADY_MAX_PASSES):
        migrated_before = gc.stats.pages_migrated
        for lpn in draw_skewed_lpns(rng, hot, cold, state.hot_write_share, pass_size):
            address = translate_write(lpn)
            plane = planes[address[:4]]
            if plane.free_blocks < FREE_BLOCK_WATERMARK:
                victim = plane.greedy_victim()
                if victim is not None:
                    collect(address[:2], address[2], address[3], victim, None)
        migrated = gc.stats.pages_migrated - migrated_before
        wa = (pass_size + migrated) / pass_size
        wa_history.append(wa)
        host_total += pass_size
        if previous is not None and abs(wa - previous) <= STEADY_TOLERANCE * previous:
            converged = True
            break
        previous = wa
    return SteadyStateReport(
        passes=len(wa_history),
        converged=converged,
        wa_history=tuple(wa_history),
        host_writes=host_total,
        pages_migrated=gc.stats.pages_migrated - migrated_total_before,
        gc_invocations=gc.stats.invocations - invocations_before,
        blocks_erased=gc.stats.blocks_erased - erased_before,
    )
