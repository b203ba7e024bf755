"""Sprinkler: the paper's proposed device-level scheduler.

Sprinkler combines two techniques (paper Section 4):

* **RIOS** - compose and commit memory requests per *flash chip*, visiting
  chips in the channel-striped traversal order, instead of per I/O request.
  This relaxes parallelism dependency and activates as many chips as
  possible regardless of the incoming access pattern.
* **FARO** - over-commit memory requests to each chip, prioritised by
  overlap depth then connectivity, so the flash controller can coalesce them
  into a single high-FLP transaction.

The two flags ``use_rios`` / ``use_faro`` produce the three variants the
evaluation studies:

======  ==========  ==========
name    use_rios    use_faro
======  ==========  ==========
SPK1    False       True
SPK2    True        False
SPK3    True        True
======  ==========  ==========

*SPK1* still composes within the arrival-order window of the queue (it has
no resource-driven traversal), so it inherits the parallelism-dependency
problem; *SPK2* spreads single requests breadth-first across chips but does
not group them for FLP; *SPK3* does both.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Sequence

from repro.core.faro import FaroPolicy
from repro.core.rios import RiosTraversal
from repro.core.scheduler import SchedulerBase, SchedulerContext
from repro.flash.request import MemoryRequest
from repro.flash.transaction import FlashTransaction
from repro.nvmhc.tag import Tag


class Sprinkler(SchedulerBase):
    """RIOS + FARO device-level scheduler (SPK1/SPK2/SPK3)."""

    uses_readdressing_callback = True

    def __init__(
        self,
        context: SchedulerContext,
        *,
        use_rios: bool = True,
        use_faro: bool = True,
        faro_lookahead_tags: int = 8,
        rios_batch_per_visit: int = 1,
        overcommit_limit: int = 64,
        channel_first_traversal: bool = False,
    ) -> None:
        super().__init__(context)
        self.use_rios = use_rios
        self.use_faro = use_faro
        self.faro_lookahead_tags = max(1, faro_lookahead_tags)
        self.rios_batch_per_visit = max(1, rios_batch_per_visit)
        self.overcommit_limit = max(1, overcommit_limit)
        self.faro = FaroPolicy()
        self.traversal = RiosTraversal(context.geometry, channel_first=channel_first_traversal)
        self._burst: Deque[MemoryRequest] = deque()
        #: Incremental per-chip index of not-yet-handed-out memory requests,
        #: so RIOS traversal does not rescan the whole queue per composition.
        #: Invariant: every present key maps to a non-empty list.
        self._chip_queues: Dict[tuple, List[MemoryRequest]] = {}
        #: Traversal indices of the chips present in ``_chip_queues`` - the
        #: precomputed candidate set ``next_chip_indexed`` selects from, so a
        #: traversal step inspects only chips that hold work instead of
        #: rescanning the whole SSD per composition.
        self._work_indices: set = set()
        self.allows_overcommit = use_faro
        self.name = self._variant_name()
        #: Observability counters: over-commit bursts handed to the DMA
        #: pipeline and the requests they carried (maintained once per burst,
        #: not per request).
        self._bursts = 0
        self._burst_requests = 0

    def _variant_name(self) -> str:
        if self.use_rios and self.use_faro:
            return "SPK3"
        if self.use_rios:
            return "SPK2"
        if self.use_faro:
            return "SPK1"
        return "SPK0"

    # ------------------------------------------------------------------
    # Queue events
    # ------------------------------------------------------------------
    def register_tag(self, tag: Tag, now_ns: int) -> None:
        """Index the tag's memory requests per target chip (RIOS step i)."""
        super().register_tag(tag, now_ns)
        if self.use_rios:
            queues = self._chip_queues
            for chip_key, requests in tag.by_chip.items():
                queue = queues.get(chip_key)
                if queue is None:
                    queues[chip_key] = list(requests)
                    self._work_indices.add(self.traversal.index_of(chip_key))
                else:
                    queue.extend(requests)

    # ------------------------------------------------------------------
    # Composition policy
    # ------------------------------------------------------------------
    def next_composition(self, now_ns: int) -> Optional[MemoryRequest]:
        """Return the next memory request according to the active variant."""
        while self._burst:
            head = self._burst.popleft()
            if head.composed_at_ns is None:
                return head
        if self.use_rios and not self._fua_live:
            # Fast path (the overwhelmingly common one): RIOS schedules from
            # the per-chip candidate index alone, so with no force-unit-access
            # tag alive there is no reason to materialise the pending-tag
            # list on every composition.
            return self._next_rios(())
        pending = self._pending_tags()
        if not pending:
            return None
        if any(tag.io.force_unit_access for tag in pending):
            # Hazard control: a force-unit-access request disables reordering;
            # fall back to strict arrival order until it drains.
            self._fua_barriers += 1
            if self.sink.enabled:
                self.sink.instant(
                    "fua.barrier",
                    category="nvmhc",
                    track="nvmhc",
                    ts_ns=now_ns,
                    pending_tags=len(pending),
                )
            return self._next_fifo(pending)
        if self.use_rios:
            return self._next_rios(pending)
        return self._next_faro_only(pending)

    # -- strict order fallback -----------------------------------------
    def _next_fifo(self, pending: List[Tag]) -> Optional[MemoryRequest]:
        for tag in pending:
            uncomposed = tag.uncomposed_requests()
            if uncomposed:
                return uncomposed[0]
        return None

    # -- SPK2 / SPK3: resource-driven traversal --------------------------
    def _next_rios(self, pending: Sequence[Tag]) -> Optional[MemoryRequest]:
        # Visit chips in traversal order; each visit drains either one request
        # (SPK2) or a FARO-ordered over-commit burst (SPK3) for that chip.
        for _ in range(len(self.traversal)):
            chip_key = self.traversal.next_chip_indexed(self._work_indices)
            if chip_key is None:
                return None
            chip_requests = self._drain_chip_queue(chip_key)
            if not chip_requests:
                continue
            if self.use_faro:
                ordered = self.faro.order_requests(chip_requests)
                burst = ordered[: self.overcommit_limit]
            else:
                ordered = sorted(chip_requests, key=lambda req: (req.io_id, req.request_id))
                burst = ordered[: self.rios_batch_per_visit]
            # Requests beyond the burst limit return to the chip's queue for
            # a later traversal visit.
            leftover = ordered[len(burst):]
            if leftover:
                existing = self._chip_queues.get(chip_key)
                if existing is None:
                    self._chip_queues[chip_key] = leftover
                    self._work_indices.add(self.traversal.index_of(chip_key))
                else:
                    self._chip_queues[chip_key] = leftover + existing
            head, rest = burst[0], burst[1:]
            self._burst = deque(rest)
            self._bursts += 1
            self._burst_requests += len(burst)
            return head
        return None

    def _drain_chip_queue(self, chip_key: tuple) -> List[MemoryRequest]:
        """Remove and return the uncomposed requests indexed for a chip."""
        queue = self._chip_queues.pop(chip_key, None)
        if queue is None:
            return []
        self._work_indices.discard(self.traversal.index_of(chip_key))
        return [req for req in queue if req.composed_at_ns is None]

    # -- SPK1: FARO within the arrival-order window ----------------------
    def _next_faro_only(self, pending: List[Tag]) -> Optional[MemoryRequest]:
        window = pending[: self.faro_lookahead_tags]
        candidates = self._candidates_by_chip(window)
        if not candidates:
            return None
        chip_key = self.faro.best_chip(candidates)
        if chip_key is None:
            return None
        ordered = self.faro.order_requests(candidates[chip_key])
        burst = ordered[: self.overcommit_limit]
        head, rest = burst[0], burst[1:]
        self._burst = deque(rest)
        self._bursts += 1
        self._burst_requests += len(burst)
        return head

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _candidates_by_chip(self, tags: List[Tag]) -> Dict[tuple, List[MemoryRequest]]:
        """Uncomposed memory requests of ``tags`` grouped by target chip."""
        by_chip: Dict[tuple, List[MemoryRequest]] = {}
        for tag in tags:
            for chip_key, requests in tag.by_chip.items():
                for req in requests:
                    if req.composed_at_ns is None:
                        by_chip.setdefault(chip_key, []).append(req)
        return by_chip

    def on_transaction_complete(
        self, chip_key: tuple, transaction: FlashTransaction, now_ns: int
    ) -> None:
        """Nothing to do: Sprinkler does not gate composition on completions."""

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def observability_counters(self) -> Dict[str, int]:
        counters = super().observability_counters()
        counters["scheduler.bursts"] = self._bursts
        counters["scheduler.burst_requests"] = self._burst_requests
        counters["scheduler.rios_visits"] = self.traversal.visits
        return counters
