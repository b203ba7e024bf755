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
from typing import Dict, List

from repro.flash.geometry import PhysicalPageAddress
from repro.flash.request import MemoryRequest


@dataclass
class CallbackStats:
    """Counters describing readdressing-callback activity."""

    migrations_observed: int = 0
    requests_retargeted: int = 0
    requests_penalized: int = 0
    cross_resource_migrations: int = 0


class ReaddressingCallback:
    """Keeps committed requests aimed at their data across migrations.

    When ``enabled`` is False (VAS and PAS in the paper's GC experiment) the
    object still tracks committed requests, but a migration that hits one of
    them charges ``stale_penalty_ns`` of extra service time instead of a
    clean retarget - the request has to be re-translated and re-issued when
    the controller discovers the stale address.
    """

    def __init__(self, *, enabled: bool = True, stale_penalty_ns: int = 0) -> None:
        self.enabled = enabled
        self.stale_penalty_ns = stale_penalty_ns
        self.stats = CallbackStats()
        self._pending_index: Dict[PhysicalPageAddress, List[MemoryRequest]] = {}

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
        self.stats.migrations_observed += 1
        if not old.same_plane_as(new):
            self.stats.cross_resource_migrations += 1
        stale = self._pending_index.pop(old, None)
        if stale is not None:
            self._retarget(stale, new)

    def on_migrations(
        self,
        lpns: List[int],
        moves: List[tuple],
        *,
        all_same_plane: bool = False,
    ) -> None:
        """Batched :meth:`on_migration`: one call per garbage-collection pass.

        Precondition: the destinations of ``moves`` are distinct and none of
        them is also a source in the batch.  Under it, the counters and
        every request's final address and penalty equal calling
        :meth:`on_migration` once per ``(lpns[i], *moves[i])`` in order;
        without it, chained moves (``a -> b``, ``b -> c``) could retarget a
        request once where the per-move loop retargets it twice.  A
        garbage-collection pass satisfies it: destinations are fresh pages
        outside the full victim block.

        ``all_same_plane=True`` is the caller's guarantee that every move
        stays within its source plane (the FTL knows this from its
        allocation runs); the batch then skips the per-move plane
        comparison and reduces to pure pending-index maintenance.
        """
        stats = self.stats
        stats.migrations_observed += len(moves)
        pending = self._pending_index
        pending_pop = pending.pop
        if all_same_plane:
            # Fast path: no cross-resource counting - only in-flight
            # requests aimed at a moved page need attention, and when
            # nothing is tracked at all the whole pass is a no-op.
            if not pending:
                return
            if len(pending) * 4 <= len(moves):
                # Far fewer tracked addresses than moves: probe the move
                # table from the pending side instead of walking every move.
                # dict(moves) builds at C speed; iteration order of the
                # stale buckets does not matter because each old address
                # retargets independently.
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
            return
        for old, new in moves:
            if not (
                old[0] == new[0]
                and old[1] == new[1]
                and old[2] == new[2]
                and old[3] == new[3]
            ):
                stats.cross_resource_migrations += 1
            stale = pending_pop(old, None)
            if stale is not None:
                self._retarget(stale, new)

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
                request.penalty_ns += self.stale_penalty_ns
                stats.requests_penalized += 1
        self._pending_index.setdefault(new, []).extend(stale)

    # ------------------------------------------------------------------
    # Queries used by the simulator's penalty model
    # ------------------------------------------------------------------
    def tracked_requests(self) -> int:
        """Number of memory requests currently tracked."""
        return sum(len(bucket) for bucket in self._pending_index.values())

    def clear(self) -> None:
        """Drop all tracked state (between simulation runs)."""
        self._pending_index.clear()
