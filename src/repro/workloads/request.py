"""Host-side I/O requests.

An :class:`IORequest` is what the host driver pushes over the storage
interface: an operation (read/write), a byte offset, a length and an arrival
time.  The NVMHC stores these as queue *tags* and splits them into
page-sized memory requests during composition (paper Figure 3).
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Optional

_io_ids = itertools.count()


class IOKind(enum.Enum):
    """Direction of a host I/O request."""

    READ = "read"
    WRITE = "write"

    @property
    def is_write(self) -> bool:
        """True for writes."""
        return self is IOKind.WRITE


@dataclass(slots=True)
class IORequest:
    """One host I/O request (a queue tag, in NVMHC terminology)."""

    kind: IOKind
    offset_bytes: int
    size_bytes: int
    arrival_ns: int
    io_id: int = field(default_factory=lambda: next(_io_ids))

    # Lifecycle timestamps, filled in by the simulator.
    enqueued_at_ns: Optional[int] = None
    completed_at_ns: Optional[int] = None

    # Provenance tags, stamped by the scenario engine at build time (see
    # Phase.build).  Purely observational: the simulator never reads them,
    # freeze_requests drops them, and they stay out of every content
    # fingerprint - a tagged run is digest-identical to an untagged one.
    tenant: Optional[str] = None
    phase_index: Optional[int] = None

    def __post_init__(self) -> None:
        if self.offset_bytes < 0:
            raise ValueError("offset_bytes must be non-negative")
        if self.size_bytes <= 0:
            raise ValueError("size_bytes must be positive")
        if self.arrival_ns < 0:
            raise ValueError("arrival_ns must be non-negative")

    @property
    def is_write(self) -> bool:
        """True for write requests."""
        return self.kind.is_write

    @property
    def end_offset_bytes(self) -> int:
        """First byte past the end of the request."""
        return self.offset_bytes + self.size_bytes

    def logical_pages(self, page_size_bytes: int) -> range:
        """Range of logical page numbers the request touches."""
        first = self.offset_bytes // page_size_bytes
        last = (self.end_offset_bytes - 1) // page_size_bytes
        return range(first, last + 1)

    def __repr__(self) -> str:
        return (
            f"IORequest(id={self.io_id}, {self.kind.value}, offset={self.offset_bytes}, "
            f"size={self.size_bytes}, t={self.arrival_ns})"
        )
