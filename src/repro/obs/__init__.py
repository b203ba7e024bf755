"""Observability: request-lifecycle tracing, counters, windowed tails.

The package splits into leaves the simulator may import (:mod:`~repro.obs.trace`,
:mod:`~repro.obs.counters`) and consumers of finished runs
(:mod:`~repro.obs.export`, :mod:`~repro.obs.windows`, the ``python -m
repro.obs`` CLI).  A traced run is an ordinary job run with a sink
attached: ``job.execute(trace_sink=sink)`` with a ``MemoryTraceSink``.  The
:mod:`~repro.obs.windows` symbols resolve lazily: they pull in
:mod:`repro.metrics`, which sits *above* the leaves in the import graph, so
an eager import here would close a cycle whenever a leaf consumer (say
:mod:`repro.flash.controller`) is the first to touch this package.
"""

from repro.obs.counters import CounterRegistry, merge_counter_snapshots
from repro.obs.export import (
    chrome_trace_document,
    load_trace,
    span_event_count,
    validate_chrome_trace,
    write_chrome_trace,
    write_job_trace,
    write_skipped_trace_marker,
)
from repro.obs.health import (
    DEFAULT_HEALTH_INTERVAL_NS,
    DEFAULT_MAX_HEALTH_SAMPLES,
    HealthSample,
    HealthSampler,
)
from repro.obs.trace import (
    NULL_SINK,
    MemoryTraceSink,
    NullTraceSink,
    SpanRecord,
    TraceSink,
)

_WINDOW_EXPORTS = (
    "DEFAULT_TAIL_WINDOW_NS",
    "TailWindow",
    "WindowedTailTracker",
    "format_tail_windows",
    "reference_tail_windows",
)

#: Run-report symbols, lazy for the same reason as the window exports:
#: :mod:`repro.obs.report` consumes finished results (repro.metrics), which
#: sits above the simulator-importable leaves in the import graph.
_REPORT_EXPORTS = (
    "SLOCheck",
    "SLOThresholds",
    "fleet_report",
    "render_html",
    "render_markdown",
    "run_report",
    "slo_verdicts",
    "sparkline",
    "svg_sparkline",
    "write_report",
)


def __getattr__(name: str):
    """Resolve the lazily exported window/report symbols on first touch."""
    if name in _WINDOW_EXPORTS:
        from repro.obs import windows

        return getattr(windows, name)
    if name in _REPORT_EXPORTS:
        from repro.obs import report

        return getattr(report, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "CounterRegistry",
    "merge_counter_snapshots",
    "chrome_trace_document",
    "load_trace",
    "span_event_count",
    "validate_chrome_trace",
    "write_chrome_trace",
    "write_job_trace",
    "write_skipped_trace_marker",
    "DEFAULT_HEALTH_INTERVAL_NS",
    "DEFAULT_MAX_HEALTH_SAMPLES",
    "HealthSample",
    "HealthSampler",
    "NULL_SINK",
    "MemoryTraceSink",
    "NullTraceSink",
    "SpanRecord",
    "TraceSink",
    "DEFAULT_TAIL_WINDOW_NS",
    "TailWindow",
    "WindowedTailTracker",
    "format_tail_windows",
    "reference_tail_windows",
    "SLOCheck",
    "SLOThresholds",
    "fleet_report",
    "render_html",
    "render_markdown",
    "run_report",
    "slo_verdicts",
    "sparkline",
    "svg_sparkline",
    "write_report",
]
