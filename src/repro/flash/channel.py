"""Channel (bus) model.

All chips attached to one channel share a single data path between the flash
controller and the flash medium (paper Section 2.1).  Only one transfer can
occupy the bus at any time, so bus phases of transactions on different chips
of the same channel serialise; the induced waiting shows up as the
"bus contention" component of the execution-time breakdown (Figure 13).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class ChannelStats:
    """Accumulated occupancy statistics for one channel."""

    busy_time_ns: int = 0
    contention_time_ns: int = 0
    transfers: int = 0
    bytes_moved: int = 0


class Channel:
    """A shared bus serialising data transfers of the chips attached to it."""

    def __init__(self, channel_id: int) -> None:
        self.channel_id = channel_id
        self.free_at_ns: int = 0
        self.stats = ChannelStats()

    def reserve(self, request_ns: int, duration_ns: int, num_bytes: int = 0) -> tuple:
        """Reserve the bus for ``duration_ns`` starting no earlier than ``request_ns``.

        Returns ``(start_ns, end_ns, wait_ns)`` where ``wait_ns`` is the
        contention delay caused by an earlier transfer still occupying the
        bus.  The reservation is immediately recorded, so later callers (in
        event order) observe the updated availability.
        """
        if duration_ns < 0:
            raise ValueError("duration_ns must be non-negative")
        start_ns = max(request_ns, self.free_at_ns)
        wait_ns = start_ns - request_ns
        end_ns = start_ns + duration_ns
        self.free_at_ns = end_ns
        self.stats.busy_time_ns += duration_ns
        self.stats.contention_time_ns += wait_ns
        self.stats.transfers += 1
        self.stats.bytes_moved += num_bytes
        return start_ns, end_ns, wait_ns

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Channel(id={self.channel_id}, free_at={self.free_at_ns})"
