"""Chrome trace-event / Perfetto JSON export for recorded trace sinks.

Writes the `trace event format
<https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU>`_
consumed by ``chrome://tracing`` and https://ui.perfetto.dev: a
``traceEvents`` array of ``"X"`` complete events (one per recorded span) and
``"i"`` instant events, plus ``"M"`` metadata events naming each process and
thread.  Span tracks (``host``, ``nvmhc``, ``chip 0.1`` ...) map to threads;
each traced job maps to a process, so multi-job exports show side by side.

Timestamps in the format are *microseconds*; simulator spans are nanoseconds,
so ``ts``/``dur`` are emitted as ``ns / 1000.0`` floats and the document sets
``displayTimeUnit: "ns"`` to keep sub-microsecond durations visible.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from repro.obs.trace import SPAN_PHASES, MemoryTraceSink, SpanRecord

TRACE_SUFFIX = ".trace.json"

#: Marker written instead of a trace when a cache hit skipped execution.
SKIPPED_TRACE_SUFFIX = ".trace.skipped.json"

#: keys every exported trace event must carry, per phase.
_REQUIRED_EVENT_KEYS = {
    "X": ("name", "cat", "ph", "ts", "dur", "pid", "tid"),
    "i": ("name", "cat", "ph", "ts", "pid", "tid", "s"),
    "M": ("name", "ph", "pid"),
}

SinkLike = Union[MemoryTraceSink, Sequence[SpanRecord]]


def _records(sink: SinkLike) -> Sequence[SpanRecord]:
    if isinstance(sink, MemoryTraceSink):
        return sink.records
    return sink


def chrome_trace_document(
    sinks: Union[SinkLike, Iterable[Tuple[str, SinkLike]]],
    metadata: Optional[Mapping[str, Any]] = None,
) -> Dict[str, Any]:
    """Build a Chrome trace-event document from one or more sinks.

    ``sinks`` is either a single sink (exported as process ``"sim"``) or an
    iterable of ``(process_name, sink)`` pairs.  Process ids are assigned in
    iteration order and thread ids per process in first-seen track order, so
    the export is deterministic for a deterministic simulation.
    """
    if isinstance(sinks, (MemoryTraceSink, list, tuple)) and not (
        isinstance(sinks, (list, tuple))
        and sinks
        and isinstance(sinks[0], tuple)
        and len(sinks[0]) == 2
        and isinstance(sinks[0][0], str)
    ):
        items: List[Tuple[str, SinkLike]] = [("sim", sinks)]  # type: ignore[list-item]
    else:
        items = list(sinks)  # type: ignore[arg-type]

    events: List[Dict[str, Any]] = []
    for pid, (process_name, sink) in enumerate(items, start=1):
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "args": {"name": process_name},
            }
        )
        tids: Dict[str, int] = {}
        for record in _records(sink):
            tid = tids.get(record.track)
            if tid is None:
                tid = len(tids) + 1
                tids[record.track] = tid
                events.append(
                    {
                        "name": "thread_name",
                        "ph": "M",
                        "pid": pid,
                        "tid": tid,
                        "args": {"name": record.track},
                    }
                )
            event: Dict[str, Any] = {
                "name": record.name,
                "cat": record.category,
                "ph": record.phase,
                "ts": record.start_ns / 1000.0,
                "pid": pid,
                "tid": tid,
                "args": dict(record.args),
            }
            if record.phase == "X":
                event["dur"] = record.duration_ns / 1000.0
            else:
                event["s"] = "t"  # thread-scoped instant
            events.append(event)

    document: Dict[str, Any] = {
        "traceEvents": events,
        "displayTimeUnit": "ns",
        "otherData": dict(metadata or {}),
    }
    return document


def write_chrome_trace(
    path: Union[str, Path],
    sinks: Union[SinkLike, Iterable[Tuple[str, SinkLike]]],
    metadata: Optional[Mapping[str, Any]] = None,
) -> Path:
    """Serialise :func:`chrome_trace_document` to ``path`` and return it."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    document = chrome_trace_document(sinks, metadata)
    target.write_text(json.dumps(document, sort_keys=True), encoding="utf-8")
    return target


def load_trace(path: Union[str, Path]) -> Dict[str, Any]:
    """Read a trace document previously written by :func:`write_chrome_trace`."""
    return json.loads(Path(path).read_text(encoding="utf-8"))


def validate_chrome_trace(document: Mapping[str, Any]) -> List[str]:
    """Schema-check a trace document; returns a list of problems (empty = ok).

    Checks the structural contract a trace viewer relies on: a
    ``traceEvents`` list whose members carry the per-phase required keys,
    non-negative microsecond timestamps, and only known phases.  Tier-1
    ``tests/test_obs.py`` runs it on every trace it exports.
    """
    problems: List[str] = []
    events = document.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents missing or not a list"]
    if "displayTimeUnit" not in document:
        problems.append("displayTimeUnit missing")
    for position, event in enumerate(events):
        if not isinstance(event, dict):
            problems.append(f"event[{position}]: not an object")
            continue
        phase = event.get("ph")
        required = _REQUIRED_EVENT_KEYS.get(phase)
        if required is None:
            problems.append(f"event[{position}]: unknown phase {phase!r}")
            continue
        missing = [key for key in required if key not in event]
        if missing:
            problems.append(f"event[{position}] ({phase}): missing {', '.join(missing)}")
            continue
        if phase in SPAN_PHASES:
            if not isinstance(event["ts"], (int, float)) or event["ts"] < 0:
                problems.append(f"event[{position}]: bad ts {event.get('ts')!r}")
            if phase == "X" and (
                not isinstance(event["dur"], (int, float)) or event["dur"] < 0
            ):
                problems.append(f"event[{position}]: bad dur {event.get('dur')!r}")
    return problems


def span_event_count(document: Mapping[str, Any]) -> int:
    """Number of non-metadata (``X`` + ``i``) events in a trace document.

    This is the figure that must reconcile with the ``trace.spans`` counter
    recorded in the run's counters.
    """
    return sum(
        1
        for event in document.get("traceEvents", ())
        if isinstance(event, dict) and event.get("ph") in SPAN_PHASES
    )


def write_job_trace(directory: Union[str, Path], job, sink: SinkLike, result) -> Path:
    """Write one job's telemetry artifact into ``directory``.

    The file name is the job fingerprint (stable across backends and
    processes), and ``otherData`` carries enough context - workload,
    scheduler, counters, events processed - to interpret the trace without
    the originating process.
    """
    metadata = {
        "job_fingerprint": job.fingerprint(),
        "workload": result.workload,
        "scheduler": result.scheduler,
        "completed_ios": result.completed_ios,
        "events_processed": result.events_processed,
        "counters": dict(result.counters),
    }
    target = Path(directory) / f"{job.fingerprint()}{TRACE_SUFFIX}"
    return write_chrome_trace(target, [(result.workload, sink)], metadata)


def write_skipped_trace_marker(
    directory: Union[str, Path], fingerprint: str, result
) -> Optional[Path]:
    """Record that a job's trace was skipped because its result was cached.

    Tracing requires an actual execution, so cache-hit jobs produce no
    ``.trace.json`` - without a marker, trace-artifact reconciliation reads
    the gap as lost spans.  The marker is a small JSON document named by the
    same fingerprint; an existing trace or marker is left untouched (a prior
    run already explained this fingerprint), returning ``None``.
    """
    base = Path(directory)
    if (base / f"{fingerprint}{TRACE_SUFFIX}").exists():
        return None
    target = base / f"{fingerprint}{SKIPPED_TRACE_SUFFIX}"
    if target.exists():
        return None
    base.mkdir(parents=True, exist_ok=True)
    target.write_text(
        json.dumps(
            {
                "job_fingerprint": fingerprint,
                "status": "skipped-cache-hit",
                "workload": result.workload,
                "scheduler": result.scheduler,
                "completed_ios": result.completed_ios,
            },
            sort_keys=True,
        ),
        encoding="utf-8",
    )
    return target
