"""Channel (bus) model.

All chips attached to one channel share a single data path between the flash
controller and the flash medium (paper Section 2.1).  Only one transfer can
occupy the bus at any time, so bus phases of transactions on different chips
of the same channel serialise; the induced waiting shows up as the
"bus contention" component of the execution-time breakdown (Figure 13).

The flash controller reserves the bus for a transaction's bus phase itself
(:meth:`repro.flash.controller.FlashController.start_transaction`): the
phase starts no earlier than ``free_at_ns``, the gap is contention time,
and ``free_at_ns`` and the :class:`ChannelStats` counters advance in event
order.
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

    def __repr__(self) -> str:
        return f"Channel(id={self.channel_id}, free_at={self.free_at_ns})"
