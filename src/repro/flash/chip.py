"""Flash chip state.

A chip bundles dies and planes behind a single multiplexed interface and a
chip-enable (CE) pin.  Only one flash transaction can occupy the chip at a
time (the R/B signal is asserted while it executes); the dies and planes
inside it provide the flash-level parallelism exploited by die interleaving
and plane sharing.

The :class:`FlashChip` object tracks:

* the busy/idle state of the chip (``busy_until``),
* per-plane physical block state (through :class:`repro.flash.plane.Plane`),
* occupancy statistics used for the utilisation, idleness and execution
  breakdown analyses of the paper (Figures 11, 13, 15).

The flash controller that issues a transaction on the chip advances
``busy_until`` and the :class:`ChipStats` counters itself
(:meth:`repro.flash.controller.FlashController.start_transaction`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.flash.geometry import SSDGeometry
from repro.flash.plane import Plane


@dataclass
class ChipStats:
    """Accumulated occupancy statistics for one chip."""

    busy_time_ns: int = 0
    cell_time_ns: int = 0
    bus_time_ns: int = 0
    bus_wait_ns: int = 0
    die_active_time_ns: int = 0
    transactions: int = 0
    requests_served: int = 0
    gc_transactions: int = 0
    last_busy_start_ns: Optional[int] = None


class FlashChip:
    """One NAND package: dies x planes behind a shared interface."""

    def __init__(self, chip_key: tuple, geometry: SSDGeometry) -> None:
        self.chip_key = chip_key
        self.geometry = geometry
        self.busy_until: int = 0
        self.stats = ChipStats()
        channel, chip = chip_key
        self.planes: Dict[tuple, Plane] = {}
        for die in range(geometry.dies_per_chip):
            for plane in range(geometry.planes_per_die):
                key = (channel, chip, die, plane)
                self.planes[key] = Plane(
                    plane_key=key,
                    blocks_per_plane=geometry.blocks_per_plane,
                    pages_per_block=geometry.pages_per_block,
                )

    # ------------------------------------------------------------------
    # Plane access
    # ------------------------------------------------------------------
    def plane(self, die: int, plane: int) -> Plane:
        """Return the plane object at (die, plane) inside this chip."""
        channel, chip = self.chip_key
        return self.planes[(channel, chip, die, plane)]

    def iter_planes(self):
        """Iterate over all plane objects of this chip."""
        return iter(self.planes.values())

    # ------------------------------------------------------------------
    # Statistics helpers
    # ------------------------------------------------------------------
    def utilization(self, makespan_ns: int) -> float:
        """Fraction of the observation window the chip spent busy."""
        if makespan_ns <= 0:
            return 0.0
        return min(1.0, self.stats.busy_time_ns / makespan_ns)

    def intra_chip_idleness(self) -> float:
        """Unused die-time fraction while the chip was busy.

        During a busy interval the chip exposes ``dies_per_chip`` dies worth
        of potential cell activity; anything not covered by die-level cell
        operations is intra-chip idleness (paper Section 1 / Figure 11b).

        A chip that never went busy has no die-time to leave unused and
        returns the sentinel ``-1.0``, so averaging layers can tell "did no
        work" apart from "busy with every die covered" (a genuine ``0.0``).
        """
        potential = self.stats.busy_time_ns * self.geometry.dies_per_chip
        if potential <= 0:
            return -1.0
        used = min(self.stats.die_active_time_ns, potential)
        return 1.0 - used / potential

    def __repr__(self) -> str:
        return f"FlashChip(key={self.chip_key}, busy_until={self.busy_until})"


def planes_by_key(chips: Dict[tuple, "FlashChip"]) -> Dict[tuple, Plane]:
    """Flatten a chip set into one ``(channel, chip, die, plane) -> Plane`` map.

    The FTL, the garbage collector and the page allocator each keep this
    direct lookup so their per-page-write hot paths resolve a plane with a
    single dict probe instead of the two-step ``chips[chip_key].plane(...)``
    walk (which builds two key tuples per call).
    """
    return {key: plane for chip in chips.values() for key, plane in chip.planes.items()}
