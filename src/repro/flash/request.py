"""Flash memory requests.

An I/O request arriving from the host is split by the NVMHC into page-sized
*memory requests* (paper Section 2.1, "memory request composition").  Each
memory request targets exactly one physical page and is the unit the flash
controller coalesces into flash transactions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

from repro.flash.commands import FlashOp
from repro.flash.geometry import PhysicalPageAddress

_memory_request_ids = itertools.count()


def reset_memory_request_ids() -> None:
    """Reset the global memory request id counter (used by tests)."""
    global _memory_request_ids
    _memory_request_ids = itertools.count()


@dataclass(slots=True)
class MemoryRequest:
    """One page-sized flash access derived from a host I/O request.

    Attributes
    ----------
    io_id:
        Identifier of the host I/O request this memory request belongs to.
        Used by FARO's *connectivity* metric and by the completion bitmap.
    op:
        Flash operation (read or program) the request performs.
    lpn:
        Logical page number targeted by the host.
    address:
        Physical page address assigned by the FTL.  ``None`` until the FTL
        has translated the request; schedulers that are aware of the
        physical layout (PAS and Sprinkler) translate eagerly.
    size_bytes:
        Payload size; always one page for regular traffic, but garbage
        collection migrations reuse the same type.
    is_gc:
        True when the request was generated internally by garbage
        collection rather than by the host.
    """

    io_id: int
    op: FlashOp
    lpn: int
    size_bytes: int
    address: Optional[PhysicalPageAddress] = None
    is_gc: bool = False
    request_id: int = field(default_factory=lambda: next(_memory_request_ids))
    #: Extra service time charged when the request went stale because live
    #: data migration moved its target and no readdressing callback fixed it.
    penalty_ns: int = 0

    # Lifecycle timestamps (nanoseconds), filled in by the simulator.
    composed_at_ns: Optional[int] = None
    committed_at_ns: Optional[int] = None
    started_at_ns: Optional[int] = None
    completed_at_ns: Optional[int] = None

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise ValueError("size_bytes must be positive")
        if self.lpn < 0:
            raise ValueError("lpn must be non-negative")

    @property
    def chip_key(self) -> tuple:
        """``(channel, chip)`` of the target chip; requires a translated address."""
        if self.address is None:
            raise ValueError("memory request has not been translated yet")
        return self.address.chip_key

    @property
    def is_translated(self) -> bool:
        """True once the FTL has assigned a physical address."""
        return self.address is not None

    @property
    def is_completed(self) -> bool:
        """True once the flash controller has finished serving the request."""
        return self.completed_at_ns is not None

    def retarget(self, address: PhysicalPageAddress) -> None:
        """Re-point the request at a new physical address.

        Used by the readdressing callback (paper Section 4.3) when garbage
        collection moves the physical location of a committed, not-yet-served
        request.
        """
        self.address = address

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        target = self.address.chip_key if self.address is not None else "untranslated"
        return (
            f"MemoryRequest(id={self.request_id}, io={self.io_id}, op={self.op.value}, "
            f"lpn={self.lpn}, target={target})"
        )
