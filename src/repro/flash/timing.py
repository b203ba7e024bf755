"""NAND flash timing model.

The evaluation in the paper (Section 5.1) uses MLC NAND with:

* read (cell sensing) latency of 20 us,
* program latency varying between 200 us (fast page) and 2200 us (slow page)
  depending on the page address within the block (intrinsic MLC write
  variation, cf. NANDFlashSim),
* ONFI 2.x channels (~166 MT/s, i.e. roughly 166 MB/s per 8-bit channel),
* 2 KB pages.

All times are expressed in integer nanoseconds so that event ordering in the
simulator is exact and reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

US = 1_000  # nanoseconds per microsecond, kept explicit for readability
NS_PER_US = 1_000
NS_PER_MS = 1_000_000
NS_PER_S = 1_000_000_000


@dataclass(frozen=True)
class FlashTiming:
    """Latency parameters of the NAND devices and the channel bus.

    The defaults correspond to the configuration in Section 5.1 of the
    paper.  ``program_fast_ns``/``program_slow_ns`` bound the MLC program
    variation; the per-page latency is interpolated deterministically from
    the page index so that repeated simulations are reproducible.
    """

    read_ns: int = 20 * NS_PER_US
    program_fast_ns: int = 200 * NS_PER_US
    program_slow_ns: int = 2_200 * NS_PER_US
    erase_ns: int = 1_500 * NS_PER_US
    bus_bytes_per_sec: int = 166_000_000  # ONFI 2.x, ~166MB/s per channel
    command_overhead_ns: int = 200        # command/address cycles per request
    transaction_overhead_ns: int = 300    # transaction decision + delimiter cmds
    mlc_fast_page_fraction: float = 0.5   # fraction of pages in a block that are "fast"

    def __post_init__(self) -> None:
        if self.read_ns <= 0 or self.program_fast_ns <= 0 or self.erase_ns <= 0:
            raise ValueError("latencies must be positive")
        if self.program_slow_ns < self.program_fast_ns:
            raise ValueError("program_slow_ns must be >= program_fast_ns")
        if self.bus_bytes_per_sec <= 0:
            raise ValueError("bus_bytes_per_sec must be positive")
        if not 0.0 <= self.mlc_fast_page_fraction <= 1.0:
            raise ValueError("mlc_fast_page_fraction must be in [0, 1]")

    # ------------------------------------------------------------------
    # Cell (array) operation latencies
    # ------------------------------------------------------------------
    def program_latency_ns(self, page_in_block: int) -> int:
        """Latency of programming a page, depending on its index in the block.

        MLC NAND pairs a fast (LSB) and a slow (MSB) page on each wordline.
        We model this deterministically: even page indices are fast pages,
        odd indices interpolate towards the slow-page latency as the page
        index grows, reproducing the 200-2200 us spread reported in the
        paper without requiring a vendor datasheet table.
        """
        if page_in_block < 0:
            raise ValueError("page_in_block must be non-negative")
        if page_in_block % 2 == 0:
            return self.program_fast_ns
        # Odd (MSB) pages: deterministic spread between fast and slow bounds.
        span = self.program_slow_ns - self.program_fast_ns
        # Use a simple deterministic hash of the page index to spread values.
        fraction = ((page_in_block * 2654435761) % 1024) / 1023.0
        return self.program_fast_ns + int(span * (0.5 + 0.5 * fraction))

    def erase_latency_ns(self) -> int:
        """Latency of erasing one block."""
        return self.erase_ns

    # ------------------------------------------------------------------
    # Bus transfer latencies
    # ------------------------------------------------------------------
    def transfer_latency_ns(self, num_bytes: int) -> int:
        """Time to move ``num_bytes`` over the channel bus (one direction)."""
        if num_bytes < 0:
            raise ValueError("num_bytes must be non-negative")
        if num_bytes == 0:
            return 0
        return max(1, (num_bytes * NS_PER_S) // self.bus_bytes_per_sec)

    def request_bus_time_ns(self, num_bytes: int) -> int:
        """Bus occupancy of one memory request: command cycles + data."""
        return self.command_overhead_ns + self.transfer_latency_ns(num_bytes)
