"""FARO: Flash-level-parallelism Aware Request Over-commitment.

FARO (paper Section 4.2) decides *which* memory requests to over-commit to a
chip, and in what order, so that the flash controller can coalesce them into
a single high-FLP transaction.  Two metrics drive the priority:

* **overlap depth** - the number of memory requests targeting *different
  planes and dies* of the same flash chip.  A chip with a high overlap depth
  can be served by a die-interleaved / multiplane transaction, so its
  requests are committed first.
* **connectivity** - the maximum number of memory requests that belong to
  the same I/O request.  Used as a tie-breaker: committing highly-connected
  requests together shortens that I/O's latency.

The helpers here are deliberately free functions over plain request lists so
both Sprinkler variants (SPK1 and SPK3) and the unit/property tests can use
them directly.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.flash.commands import FlashOp
from repro.flash.request import MemoryRequest


def overlap_depth(requests: Sequence[MemoryRequest]) -> int:
    """Number of distinct (die, plane) targets among ``requests``.

    This is FARO's FLP-oriented metric: requests covering different planes
    and dies of a chip can be folded into a single interleaved/multiplane
    transaction, so more distinct targets means more parallelism available.
    """
    targets = {
        (req.address.die, req.address.plane)
        for req in requests
        if req.address is not None
    }
    return len(targets)


def connectivity(requests: Sequence[MemoryRequest]) -> int:
    """Largest number of requests that belong to one I/O request."""
    if not requests:
        return 0
    counts = Counter(req.io_id for req in requests)
    return max(counts.values())


@dataclass(frozen=True)
class ChipPriority:
    """FARO priority of one chip's pending (uncomposed) requests."""

    chip_key: tuple
    overlap_depth: int
    connectivity: int

    @property
    def sort_key(self) -> tuple:
        """Higher overlap depth wins; ties broken by higher connectivity."""
        return (self.overlap_depth, self.connectivity)


class FaroPolicy:
    """Orders chips and requests according to FARO's dynamic priority."""

    # ------------------------------------------------------------------
    # Chip-level priority
    # ------------------------------------------------------------------
    def chip_priority(self, chip_key: tuple, requests: Sequence[MemoryRequest]) -> ChipPriority:
        """Compute the FARO priority of one chip's candidate requests."""
        return ChipPriority(
            chip_key=chip_key,
            overlap_depth=overlap_depth(requests),
            connectivity=connectivity(requests),
        )

    def best_chip(
        self, candidates: Dict[tuple, List[MemoryRequest]]
    ) -> Optional[tuple]:
        """Chip whose pending requests have the highest FARO priority.

        Ties on ``(overlap_depth, connectivity)`` go to the lowest chip key,
        in one pass - sorting the whole candidate map per composition (as an
        earlier revision did) is a redundant O(n log n) step the profiler
        flagged.
        """
        best_key: Optional[tuple] = None
        best_sort_key: Optional[tuple] = None
        for chip_key, requests in candidates.items():
            if not requests:
                continue
            priority = self.chip_priority(chip_key, requests)
            sort_key = priority.sort_key
            if (
                best_key is None
                or sort_key > best_sort_key
                or (sort_key == best_sort_key and chip_key < best_key)
            ):
                best_sort_key = sort_key
                best_key = chip_key
        return best_key

    # ------------------------------------------------------------------
    # Request ordering inside one chip
    # ------------------------------------------------------------------
    def order_requests(self, requests: Sequence[MemoryRequest]) -> List[MemoryRequest]:
        """Order a chip's requests for commitment.

        The goal is to place requests that *extend* the die/plane coverage
        first, so that even if the transaction decision window closes early
        the transaction already spans as many dies and planes as possible.
        Within the same coverage step, reads go before writes (hazard
        control) and older I/Os before newer ones (fairness).
        """
        remaining = [req for req in requests if req.address is not None]
        ordered: List[MemoryRequest] = []
        covered: set = set()
        # Stable base order: hazard rule, then I/O id, then request id.
        remaining.sort(key=self._base_key)
        while remaining:
            pick_index = None
            for index, req in enumerate(remaining):
                target = (req.address.die, req.address.plane)
                if target not in covered:
                    pick_index = index
                    break
            if pick_index is None:
                # No request extends coverage; take them in base order.
                ordered.extend(remaining)
                break
            req = remaining.pop(pick_index)
            covered.add((req.address.die, req.address.plane))
            ordered.append(req)
        return ordered

    def _base_key(self, req: MemoryRequest) -> tuple:
        # Hazard control (paper Section 4.4): reads go before writes, so a
        # write-after-read never lets the read observe the new data early.
        read_rank = 0 if req.op is FlashOp.READ else 1
        return (read_rank, req.io_id, req.request_id)
