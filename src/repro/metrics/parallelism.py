"""Flash-level parallelism breakdown (Figure 14) and transaction accounting."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.flash.commands import ParallelismClass


@dataclass
class FLPBreakdown:
    """Counts of transactions (and the requests they carried) per FLP class."""

    transactions: Dict[ParallelismClass, int] = field(
        default_factory=lambda: {cls: 0 for cls in ParallelismClass}
    )
    requests: Dict[ParallelismClass, int] = field(
        default_factory=lambda: {cls: 0 for cls in ParallelismClass}
    )

    def record(self, parallelism: ParallelismClass, num_requests: int) -> None:
        """Record one executed transaction."""
        self.transactions[parallelism] += 1
        self.requests[parallelism] += num_requests

    @property
    def total_transactions(self) -> int:
        """Total number of flash transactions executed."""
        return sum(self.transactions.values())

    @property
    def total_requests(self) -> int:
        """Total number of memory requests served."""
        return sum(self.requests.values())

    def transaction_fractions(self) -> Dict[str, float]:
        """Share of transactions per FLP class, keyed by the paper's labels."""
        total = self.total_transactions
        if total == 0:
            return {cls.label: 0.0 for cls in ParallelismClass}
        return {cls.label: self.transactions[cls] / total for cls in ParallelismClass}

    @property
    def high_flp_fraction(self) -> float:
        """Fraction of transactions with any flash-level parallelism (PAL1-3)."""
        total = self.total_transactions
        if total == 0:
            return 0.0
        high = total - self.transactions[ParallelismClass.NON_PAL]
        return high / total

    @property
    def average_requests_per_transaction(self) -> float:
        """Average coalescing degree; >1 means FARO is reducing transactions."""
        total = self.total_transactions
        if total == 0:
            return 0.0
        return self.total_requests / total
