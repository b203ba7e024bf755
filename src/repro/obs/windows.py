"""Windowed tail-latency helpers: reference implementation and formatting.

The streaming tracker lives next to the other latency accumulators
(:class:`repro.metrics.latency.WindowedTailTracker`); this module provides
the *independent* full-history reference the tracker is validated against -
a plain group-by over a completed run's time series - plus a small table
formatter for CLIs and examples.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

from repro.metrics.collector import TimeSeriesPoint
from repro.metrics.latency import (
    TAIL_WINDOW_NS,
    TailWindow,
    WindowedTailTracker,
    percentile,
)

__all__ = [
    "TAIL_WINDOW_NS",
    "TailWindow",
    "WindowedTailTracker",
    "reference_tail_windows",
    "format_tail_windows",
]


def reference_tail_windows(time_series: Iterable[TimeSeriesPoint]) -> Tuple[TailWindow, ...]:
    """Windowed tail series recomputed from a full completion history.

    Deliberately *not* implemented via the streaming tracker: this is the
    brute-force reference (bucket every completion by ``completion_ns //
    TAIL_WINDOW_NS``, then take percentiles per bucket with the shared
    nearest-rank :func:`~repro.metrics.latency.percentile`) that the
    tracker's output must match exactly.
    """
    buckets: Dict[int, List[int]] = {}
    for point in time_series:
        buckets.setdefault(point.completion_ns // TAIL_WINDOW_NS, []).append(point.latency_ns)
    windows = []
    for index in sorted(buckets):
        samples = buckets[index]
        windows.append(
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
    return tuple(windows)


def format_tail_windows(windows: Sequence[TailWindow]) -> str:
    """Aligned plain-text table of a windowed tail series (times in us)."""
    lines = [
        f"{'window':>8}  {'start_ms':>9}  {'count':>6}  "
        f"{'p50_us':>9}  {'p99_us':>9}  {'p999_us':>9}  {'max_us':>9}"
    ]
    for window in windows:
        lines.append(
            f"{window.index:>8}  {window.start_ns / 1e6:>9.3f}  {window.count:>6}  "
            f"{window.p50_ns / 1e3:>9.1f}  {window.p99_ns / 1e3:>9.1f}  "
            f"{window.p999_ns / 1e3:>9.1f}  {window.max_ns / 1e3:>9.1f}"
        )
    return "\n".join(lines)
