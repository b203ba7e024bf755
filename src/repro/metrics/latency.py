"""Latency, bandwidth and IOPS computations (Figure 10).

Besides the end-of-run aggregate (:class:`LatencyStats`), this module
provides *windowed tail latency*: :class:`WindowedTailTracker` seals
completions into fixed wall-clock windows and records exact p50/p99/p999 per
window (:class:`TailWindow`), so a run's tail behaviour *over time* is
visible - the metric a single end-of-run percentile cannot show.  The
tracker buffers one window of samples at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Tuple

NS_PER_S = 1_000_000_000

#: Tail-latency window width: 1 ms of simulated time.
TAIL_WINDOW_NS = 1_000_000


def bandwidth_kb_per_sec(total_bytes: int, elapsed_ns: int) -> float:
    """I/O bandwidth in KB/s, matching the paper's Figure 10a units."""
    if elapsed_ns <= 0:
        return 0.0
    return (total_bytes / 1024.0) * NS_PER_S / elapsed_ns


def iops(num_requests: int, elapsed_ns: int) -> float:
    """I/O operations per second (Figure 10b)."""
    if elapsed_ns <= 0:
        return 0.0
    return num_requests * NS_PER_S / elapsed_ns


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of ``values`` (``fraction`` in [0, 1]).

    Uses the standard ceil-based nearest-rank definition: the percentile is
    the value at (1-based) rank ``ceil(fraction * len(values))``, with
    ``fraction == 0.0`` mapping to the smallest sample.  ``round`` is
    deliberately avoided - its banker's rounding of ``.5`` ranks biased
    even-length medians (``round(1.5) == 2`` but ``round(0.5) == 0``).
    """
    if not values:
        return 0.0
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must be in [0, 1]")
    ordered = sorted(values)
    # The epsilon absorbs binary float error in the product (0.07 * 100 ==
    # 7.000000000000001) so an exact-integer rank never ceils one too high.
    rank = math.ceil(fraction * len(ordered) - 1e-9)  # 1-based nearest rank
    return ordered[max(rank, 1) - 1]


@dataclass
class LatencyStats:
    """Per-I/O device-level latency distribution."""

    samples_ns: List[int] = field(default_factory=list)

    def add(self, latency_ns: int) -> None:
        """Record the latency of one completed I/O request."""
        if latency_ns < 0:
            raise ValueError("latency must be non-negative")
        self.samples_ns.append(latency_ns)

    @property
    def count(self) -> int:
        """Number of recorded I/Os."""
        return len(self.samples_ns)

    @property
    def mean_ns(self) -> float:
        """Average device-level latency (Figure 10c)."""
        if not self.samples_ns:
            return 0.0
        return sum(self.samples_ns) / len(self.samples_ns)

    @property
    def max_ns(self) -> int:
        """Worst observed latency."""
        return max(self.samples_ns) if self.samples_ns else 0

    def percentile_ns(self, fraction: float) -> float:
        """Latency percentile (e.g. 0.99 for the tail)."""
        return percentile(self.samples_ns, fraction)


@dataclass(frozen=True)
class TailWindow:
    """Exact latency percentiles of one fixed-width completion window.

    ``index`` is the window's ordinal position on the simulated clock
    (``completion_ns // TAIL_WINDOW_NS``); empty windows produce no entry, so
    consecutive records may skip indices.  Percentiles use the same
    ceil-based nearest-rank :func:`percentile` as the end-of-run stats,
    which is what makes the windowed series *exactly* reproducible from a
    full completion history (the validation contract the tests enforce).
    """

    index: int
    start_ns: int
    end_ns: int
    count: int
    p50_ns: float
    p99_ns: float
    p999_ns: float
    max_ns: int


class WindowedTailTracker:
    """Streams completions into :class:`TailWindow` records.

    Completion times must be non-decreasing (the simulator's clock is), so a
    window can be sealed the moment a later window's first sample arrives;
    only the in-progress window's samples are buffered.  The grouping key is
    the completion time.
    """

    __slots__ = ("windows", "_current_index", "_samples")

    def __init__(self) -> None:
        self.windows: List[TailWindow] = []
        self._current_index: Optional[int] = None
        self._samples: List[int] = []

    def add(self, completion_ns: int, latency_ns: int) -> None:
        """Record one completion at ``completion_ns`` with ``latency_ns``.

        The simulator feeds completions in clock order, which is what makes
        the one-window buffer exact.  A *late* sample (an earlier window
        than the one currently open) is credited to the open window rather
        than rejected, so collector callers outside the simulator need not
        guarantee monotonic time; with a monotonic feed the branch never
        fires and the series is exact.
        """
        index = completion_ns // TAIL_WINDOW_NS
        current = self._current_index
        if current is None:
            self._current_index = index
        elif index > current:
            self._seal()
            self._current_index = index
        self._samples.append(latency_ns)

    def _seal(self) -> None:
        samples = self._samples
        index = self._current_index
        assert index is not None
        self.windows.append(
            TailWindow(
                index=index,
                start_ns=index * TAIL_WINDOW_NS,
                end_ns=(index + 1) * TAIL_WINDOW_NS,
                count=len(samples),
                p50_ns=percentile(samples, 0.50),
                p99_ns=percentile(samples, 0.99),
                p999_ns=percentile(samples, 0.999),
                max_ns=max(samples),
            )
        )
        self._samples = []

    def finish(self) -> Tuple[TailWindow, ...]:
        """Seal the in-progress window and return the complete series.

        Idempotent: a second call (nothing buffered) returns the same tuple.
        """
        if self._samples:
            self._seal()
        return tuple(self.windows)


def merge_latency_stats(parts: Iterable[LatencyStats]) -> LatencyStats:
    """Merge per-device latency distributions into one array-level one.

    Sample lists are concatenated, so the merged mean is exactly the
    count-weighted mean of the parts and percentiles are computed over the
    full array-wide population rather than averaged per device.
    """
    merged = LatencyStats()
    for part in parts:
        merged.samples_ns.extend(part.samples_ns)
    return merged
