"""Queue tags.

When a host I/O request arrives, the NVMHC enqueues the *tag* - the request
information needed for scheduling - into its device-level queue (paper
Figure 3, "Queuing" phase).  Sprinkler's RIOS deliberately *secures tags
without actual data movement* so it can classify requests per physical chip
before deciding the composition order; the tag therefore also carries the
per-chip breakdown of the request's memory requests once the preprocessor
has identified the physical layout.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.flash.request import MemoryRequest
from repro.workloads.request import IORequest


@dataclass(slots=True)
class Tag:
    """Device-queue entry wrapping one host I/O request."""

    io: IORequest
    enqueued_at_ns: int
    memory_requests: List[MemoryRequest] = field(default_factory=list)
    #: Memory requests grouped by target chip, filled by the physical-layout
    #: preprocessor for schedulers that are layout aware (PAS and Sprinkler).
    by_chip: Dict[tuple, List[MemoryRequest]] = field(default_factory=dict)
    #: :meth:`SSDGeometry.chip_mask` of ``by_chip``'s keys, recorded by the
    #: preprocessor at admission.  VAS/PAS test it against the controllers'
    #: busy masks; only Sprinkler's readdressing callback moves requests
    #: between chips afterwards, and Sprinkler never reads the mask.
    chip_mask: int = 0
    #: Number of memory requests handed to the composer so far.
    composed_count: int = 0
    #: Number of memory requests completed by the flash controllers so far.
    completed_count: int = 0
    #: Internal scan cursor used by :meth:`next_uncomposed` (in-order policies).
    _compose_cursor: int = 0

    @property
    def io_id(self) -> int:
        """Identifier of the wrapped host I/O request."""
        return self.io.io_id

    def next_uncomposed(self) -> Optional[MemoryRequest]:
        """First memory request not yet handed to the composer, or ``None``.

        Uses an internal cursor so that in-order policies (VAS, PAS) do not
        rescan the whole request list of large I/Os on every composition.
        """
        while self._compose_cursor < len(self.memory_requests):
            candidate = self.memory_requests[self._compose_cursor]
            if candidate.composed_at_ns is None:
                return candidate
            self._compose_cursor += 1
        return None

    def __repr__(self) -> str:
        return (
            f"Tag(io={self.io_id}, requests={len(self.memory_requests)}, "
            f"composed={self.composed_count}, completed={self.completed_count})"
        )
