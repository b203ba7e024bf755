"""Readdressing callback (paper Section 4.3).

Live data migration changes physical addresses *while I/O requests are in
flight*.  The paper names three sources - garbage collection, wear levelling
and bad-block replacement; this simulator models the first.  A
physical-address-aware scheduler whose committed memory requests point at
the old locations would execute stale accesses.

Sprinkler solves this with a *readdressing callback*: whenever the FTL moves
a live page, the callback re-aims the committed memory requests that still
point at the old location.  Schedulers without the callback (VAS and PAS in
the paper's Section 5.9 experiment) pay a penalty instead: their stale
requests must be re-translated and re-issued when they reach the chip.

:class:`ReaddressingCallback` is the FTL's migration hook: it receives each
garbage-collection pass's move list, retargets the committed requests it
tracks, and counts how many of them would have gone stale (so the penalty
model of the simulator can charge them).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional

from repro.flash.geometry import PhysicalPageAddress
from repro.flash.request import MemoryRequest

#: Extra service time a stale in-flight request pays when the callback is off
#: (re-translation and re-issue once the controller finds the stale address).
STALE_PENALTY_NS = 25_000


@dataclass
class CallbackStats:
    """Counters describing readdressing-callback activity."""

    requests_retargeted: int = 0
    requests_penalized: int = 0


class ReaddressingCallback:
    """Keeps committed requests aimed at their data across migrations.

    When ``enabled`` is False (VAS and PAS in the paper's GC experiment) the
    object still tracks committed requests, but a migration that hits one of
    them charges :data:`STALE_PENALTY_NS` of extra service time instead of a
    clean retarget - the request has to be re-translated and re-issued when
    the controller discovers the stale address.
    """

    def __init__(
        self,
        *,
        enabled: bool = True,
        committed: Optional[Callable[[], Iterable[MemoryRequest]]] = None,
    ) -> None:
        self.enabled = enabled
        self.stats = CallbackStats()
        self._pending_index: Dict[PhysicalPageAddress, List[MemoryRequest]] = {}
        #: Source of the committed, not yet executing requests, read once:
        #: the first migration seeds the index from it and sets
        #: :attr:`tracking`, and from then on the owner tracks every commit
        #: and untracks every start.  Until a page moves no request can go
        #: stale, so nothing needs indexing before.
        self._committed = committed
        self.tracking = False

    # ------------------------------------------------------------------
    # Request tracking
    # ------------------------------------------------------------------
    def track_request(self, request: MemoryRequest) -> None:
        """Start tracking a committed memory request for possible retargeting."""
        if request.address is None:
            return
        self._pending_index.setdefault(request.address, []).append(request)

    def untrack_request(self, request: MemoryRequest) -> None:
        """Stop tracking a request (it started executing or completed)."""
        if request.address is None:
            return
        bucket = self._pending_index.get(request.address)
        if not bucket:
            return
        # Delete in place instead of rebuilding the bucket: untrack runs once
        # per retired memory request, and the rebuild churned a fresh list
        # (plus a second dict lookup) every time.
        request_id = request.request_id
        for index, req in enumerate(bucket):
            if req.request_id == request_id:
                del bucket[index]
                break
        if not bucket:
            del self._pending_index[request.address]

    # ------------------------------------------------------------------
    # FTL migration hook
    # ------------------------------------------------------------------
    def on_migration(
        self, lpn: int, old: PhysicalPageAddress, new: PhysicalPageAddress
    ) -> None:
        """A live page moved from ``old`` to ``new`` (the per-move form)."""
        if self._committed is not None:
            self._start_tracking()
        stale = self._pending_index.pop(old, None)
        if stale is not None:
            self._retarget(stale, new)

    def on_migrations(self, lpns: List[int], moves: List[tuple]) -> None:
        """Batched :meth:`on_migration`: one call per garbage-collection pass.

        Precondition: the destinations of ``moves`` are distinct and none of
        them is also a source in the batch.  Under it, the counters and
        every request's final address and penalty equal calling
        :meth:`on_migration` once per ``(lpns[i], *moves[i])`` in order;
        without it, chained moves (``a -> b``, ``b -> c``) could retarget a
        request once where the per-move loop retargets it twice.  A
        garbage-collection pass satisfies it: destinations are fresh pages
        outside the full victim block.

        Only in-flight requests aimed at a moved page need attention, so
        when nothing is tracked the whole pass is a no-op.
        """
        if self._committed is not None:
            self._start_tracking()
        pending = self._pending_index
        if not pending:
            return
        pending_pop = pending.pop
        if len(pending) * 4 <= len(moves):
            # Far fewer tracked addresses than moves: probe the move table
            # from the pending side instead of walking every move.
            # dict(moves) builds at C speed; iteration order of the stale
            # buckets does not matter because each old address retargets
            # independently.
            move_get = dict(moves).get
            for old in list(pending):
                new = move_get(old)
                if new is not None:
                    self._retarget(pending_pop(old), new)
            return
        for old, new in moves:
            stale = pending_pop(old, None)
            if stale is not None:
                self._retarget(stale, new)

    def _start_tracking(self) -> None:
        """Seed the index from the committed requests, once, and track on."""
        committed, self._committed = self._committed, None
        for request in committed():
            self.track_request(request)
        self.tracking = True

    def _retarget(self, stale: List[MemoryRequest], new: PhysicalPageAddress) -> None:
        """Re-aim the requests tracked at a moved page at its new address."""
        stats = self.stats
        for request in stale:
            request.retarget(new)
            if self.enabled:
                stats.requests_retargeted += 1
            else:
                # Without the callback the scheduler keeps scheduling against
                # stale layout information; the request pays a re-translation
                # and re-issue penalty when it finally executes.
                request.penalty_ns += STALE_PENALTY_NS
                stats.requests_penalized += 1
        self._pending_index.setdefault(new, []).extend(stale)
