"""Wear accounting.

The paper lists wear levelling as one of the firmware activities that
causes live data migration (Section 4.3).  This simulator runs no wear
leveller - garbage collection is its only migration source - but it does
measure wear: :func:`wear_stats` summarises per-block erase counts for every
:class:`~repro.metrics.report.SimulationResult`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.flash.chip import FlashChip


@dataclass
class WearStats:
    """Summary of the wear distribution across the SSD."""

    min_erase_count: int
    max_erase_count: int
    mean_erase_count: float
    total_erases: int

    @property
    def spread(self) -> int:
        """Difference between the most and least worn blocks."""
        return self.max_erase_count - self.min_erase_count


def wear_stats(chips: Dict[tuple, FlashChip]) -> WearStats:
    """Erase-count statistics across every block of a chip set."""
    lowest: Optional[int] = None
    highest = 0
    total = 0
    blocks = 0
    for chip in chips.values():
        for plane in chip.iter_planes():
            if plane.erases == 0:
                # No block of this plane was ever erased - the common case
                # for most planes of a fresh or lightly-aged device.  They
                # all sit at erase count zero; skip the block scan.
                blocks += plane.blocks_per_plane
                lowest = 0
                continue
            counts = plane.erase_count
            blocks += len(counts)
            total += sum(counts)
            low = min(counts)
            if lowest is None or low < lowest:
                lowest = low
            high = max(counts)
            if high > highest:
                highest = high
    if blocks == 0 or lowest is None:
        return WearStats(0, 0, 0.0, 0)
    return WearStats(
        min_erase_count=lowest,
        max_erase_count=highest,
        mean_erase_count=total / blocks,
        total_erases=total,
    )
