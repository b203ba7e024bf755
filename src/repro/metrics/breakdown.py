"""Execution time breakdown (Figure 13).

The paper decomposes the total execution time of a workload into four
components, aggregated over all chips:

* **bus operation** - time the channel spends actively moving commands/data,
* **bus contention** - time transactions wait for the shared channel,
* **memory operation** - time flash cells spend reading/programming/erasing,
* **system idle** - everything else (chips sitting idle).

The breakdown is computed over chip-time: ``num_chips * makespan`` is the
total budget, and the components are normalised against it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict


@dataclass
class ExecutionBreakdown:
    """Aggregated execution-time components, all in chip-nanoseconds."""

    bus_operation_ns: int = 0
    bus_contention_ns: int = 0
    memory_operation_ns: int = 0
    total_chip_time_ns: int = 0

    @property
    def system_idle_ns(self) -> int:
        """Chip-time not covered by bus or cell activity."""
        busy = self.bus_operation_ns + self.bus_contention_ns + self.memory_operation_ns
        return max(0, self.total_chip_time_ns - busy)

    def fractions(self) -> Dict[str, float]:
        """Normalised components, matching the paper's Figure 13 legend."""
        total = self.total_chip_time_ns
        if total <= 0:
            return {
                "bus_operation": 0.0,
                "bus_contention": 0.0,
                "memory_operation": 0.0,
                "system_idle": 0.0,
            }
        return {
            "bus_operation": self.bus_operation_ns / total,
            "bus_contention": self.bus_contention_ns / total,
            "memory_operation": self.memory_operation_ns / total,
            "system_idle": self.system_idle_ns / total,
        }
