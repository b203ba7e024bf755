"""Request-lifecycle trace sinks.

The simulator and its components (schedulers, flash controllers, the garbage
collector) emit *spans* - named, timed intervals such as one host I/O from
arrival to completion, one memory-request composition, one flash transaction
with its bus/cell phase split, or one GC pass - through a :class:`TraceSink`.

The sink contract is deliberately tiny so the zero-overhead-when-off promise
holds: every instrumented component keeps a ``sink`` attribute that defaults
to the shared :data:`NULL_SINK`, and every hot-path emission site is guarded
by a single ``sink.enabled`` (or a precomputed boolean) truth test.  With the
null sink the simulator executes exactly the same instruction stream it did
before tracing existed - the golden result digests of the pinned suites
(``tests/data/perf_golden.json``) prove the results stay byte-identical.

:class:`MemoryTraceSink` records spans in memory as plain picklable tuples,
so a traced simulator can still be checkpointed (the sink rides inside the
single-graph snapshot and resumes with its history intact).  The Chrome
trace-event / Perfetto export lives in :mod:`repro.obs.export`.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple

#: ``phase`` values of a :class:`SpanRecord`, matching the Chrome trace-event
#: phases they export to: ``"X"`` complete (duration) events, ``"i"`` instant
#: events.
SPAN_PHASES = ("X", "i")


class SpanRecord(NamedTuple):
    """One recorded span or instant event.

    A NamedTuple rather than a dataclass: traced runs emit one per I/O,
    memory request and transaction, and the tuple constructor keeps the
    tracing tax on hot completion paths as small as possible.  ``args`` is a
    plain dict of JSON-serialisable annotation values.
    """

    name: str
    category: str
    track: str
    start_ns: int
    duration_ns: int
    phase: str
    args: dict


class TraceSink:
    """Base sink: the protocol components emit request-lifecycle spans into.

    ``enabled`` is a class attribute so emission sites can gate on a plain
    attribute load; subclasses that record anything set it to True.  The base
    class *is* the null implementation - both methods discard their input.
    """

    enabled: bool = False

    def span(
        self,
        name: str,
        *,
        category: str,
        track: str,
        start_ns: int,
        duration_ns: int,
        **args,
    ) -> None:
        """Record a completed interval (arrival -> completion style)."""

    def instant(self, name: str, *, category: str, track: str, ts_ns: int, **args) -> None:
        """Record a point event (a GC trigger, a FUA barrier engaging)."""


class NullTraceSink(TraceSink):
    """Discards everything; the default sink of every instrumented component."""

    enabled = False


#: Shared default sink.  Components compare ``sink.enabled`` rather than
#: identity, so restored checkpoints (which unpickle their own NullTraceSink
#: instance) behave identically.
NULL_SINK = NullTraceSink()


class MemoryTraceSink(TraceSink):
    """Records every span in memory, in emission order.

    Plain list of :class:`SpanRecord` tuples: picklable (checkpoints carry
    the sink inside the simulator state graph), deterministic, and cheap to
    post-process into Chrome trace JSON or top-N tables.
    """

    enabled = True

    def __init__(self) -> None:
        self.records: List[SpanRecord] = []

    def span(
        self,
        name: str,
        *,
        category: str,
        track: str,
        start_ns: int,
        duration_ns: int,
        **args,
    ) -> None:
        self.records.append(
            SpanRecord(name, category, track, start_ns, duration_ns, "X", args)
        )

    def instant(self, name: str, *, category: str, track: str, ts_ns: int, **args) -> None:
        self.records.append(SpanRecord(name, category, track, ts_ns, 0, "i", args))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def total_records(self) -> int:
        """Spans plus instants emitted so far."""
        return len(self.records)

    def counts_by_name(self) -> Dict[str, int]:
        """Emission count per span name (reconciles with the counter registry)."""
        counts: Dict[str, int] = {}
        for record in self.records:
            counts[record.name] = counts.get(record.name, 0) + 1
        return counts

    def longest(self, limit: int = 10) -> List[SpanRecord]:
        """The ``limit`` longest duration spans, longest first.

        Ties break on (start time, name) so the table is deterministic.
        """
        spans = [record for record in self.records if record.phase == "X"]
        spans.sort(key=lambda r: (-r.duration_ns, r.start_ns, r.name))
        return spans[:limit]
