"""Chip utilisation and idleness reports (Figures 1b, 6, 11, 15)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List


@dataclass
class UtilizationReport:
    """Per-chip busy fraction over the observation window."""

    per_chip: Dict[tuple, float] = field(default_factory=dict)

    def add(self, chip_key: tuple, utilization: float) -> None:
        """Record one chip's utilisation (fraction in [0, 1])."""
        self.per_chip[chip_key] = max(0.0, min(1.0, utilization))

    @property
    def mean(self) -> float:
        """Average chip utilisation (the paper's headline utilisation metric)."""
        if not self.per_chip:
            return 0.0
        return sum(self.per_chip.values()) / len(self.per_chip)


@dataclass
class IdlenessReport:
    """Inter-chip and intra-chip idleness (Figure 11)."""

    inter_chip: float = 0.0
    intra_chip: float = 0.0

    @classmethod
    def from_measurements(
        cls, utilization: UtilizationReport, intra_chip_values: List[float]
    ) -> "IdlenessReport":
        """Combine a utilisation report and per-chip intra-chip idleness values.

        *Inter-chip idleness* is the complement of mean chip utilisation: the
        fraction of chip-time during which whole chips sat idle.  *Intra-chip
        idleness* averages, over chips that did work, the fraction of die-time
        left unused while the chip was busy.  A chip that never went busy is
        marked with a negative sentinel (see
        :meth:`repro.flash.chip.FlashChip.intra_chip_idleness`) and is
        excluded; a busy chip with every die covered contributes its genuine
        ``0.0`` to the average.
        """
        inter = 1.0 - utilization.mean
        busy_values = [value for value in intra_chip_values if value >= 0.0]
        intra = sum(busy_values) / len(busy_values) if busy_values else 0.0
        return cls(inter_chip=max(0.0, min(1.0, inter)), intra_chip=max(0.0, min(1.0, intra)))


def merge_utilization_reports(reports: List[UtilizationReport]) -> UtilizationReport:
    """Array-level utilisation: the union of per-device chip reports.

    Chip keys are namespaced with each report's position (device index), so
    devices with identical geometry never collide and the merged ``mean`` is
    the chip-count-weighted mean across the whole array.
    """
    merged = UtilizationReport()
    for device_index, report in enumerate(reports):
        for chip_key, value in report.per_chip.items():
            merged.per_chip[(device_index,) + tuple(chip_key)] = value
    return merged
