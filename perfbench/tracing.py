"""Spans around the simulator's public calls, recorded from outside ``src/``.

:func:`instrument` patches class attributes and module globals for the
duration of a ``with`` block and restores them afterwards.  Two levels:

* job granularity (always on): ``SimJob.execute``, ``SSDSimulator.__init__``
  and ``SSDSimulator.run`` - a few calls per simulation job, cheap enough for
  the untraced end-to-end measurement (``run_fleet`` and the measured pass
  itself are spanned by the caller, :meth:`Tracer.span`);
* layers (the traced run only): the public methods of the component classes
  every simulator instance is built from, and the module functions named in
  ``layers.json``.  Patching the classes before any simulator exists also
  covers bound methods that components capture while they are constructed
  (the FTL's migration listeners, for example).

Every span is pushed on one stack.  When it closes, its self time (duration
minus the time its child spans cover) and its duration are added to a
per-``(layer, in_loop)`` aggregate; the passes and the job-granularity spans
are also kept whole as ``(layer, start, end, parent, job)`` records.  The
per-call layers are aggregated rather than kept, because a traced grid makes
millions of those calls.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Tuple

from repro.core.pas import PhysicalAddressScheduler
from repro.core.scheduler import SchedulerBase
from repro.core.sprinkler import Sprinkler
from repro.core.vas import VirtualAddressScheduler
from repro.experiments import engine as engine_module
from repro.experiments.spec import SimJob, WorkloadSpec
from repro.flash.controller import FlashController
from repro.fleet import run as fleet_run
from repro.ftl.callbacks import ReaddressingCallback
from repro.ftl.garbage_collector import GarbageCollector
from repro.ftl.mapping import PageMapFTL
from repro.metrics.attribution import AttributionTracker
from repro.metrics.collector import MetricsCollector
from repro.metrics.latency import WindowedTailTracker
from repro.nvmhc.dma import DmaEngine
from repro.nvmhc.queue import DeviceQueue
from repro.sim import ssd as ssd_module

#: Job-granularity patch points: (layer, owner, attribute).
JOB_POINTS = (
    ("job", SimJob, "execute"),
    ("sim.construct", ssd_module.SSDSimulator, "__init__"),
    ("sim.run", ssd_module.SSDSimulator, "run"),
)

_SCHEDULERS = (SchedulerBase, VirtualAddressScheduler, PhysicalAddressScheduler, Sprinkler)
_CORE_METHODS = (
    "register_tag",
    "next_composition",
    "on_transaction_complete",
    "on_tag_retired",
    "on_migration",
)

#: Layer patch points for the traced run.  Scheduler methods are patched on
#: every class that defines them, so overrides and ``super()`` calls are
#: both covered.
LAYER_POINTS = (
    ("workloads.build", WorkloadSpec, "build"),
    ("ftl.fill", PageMapFTL, "fill"),
    ("lifetime.apply", ssd_module, "apply_device_state"),
    ("lifetime.steady", ssd_module, "age_to_steady_state"),
    *(
        ("core", cls, name)
        for cls in _SCHEDULERS
        for name in _CORE_METHODS
        if name in vars(cls)
    ),
    ("nvmhc", DeviceQueue, "submit"),
    ("nvmhc", DeviceQueue, "retire"),
    ("nvmhc", DeviceQueue, "admit_from_backlog"),
    ("nvmhc", DmaEngine, "begin"),
    ("flash", FlashController, "commit"),
    ("flash", FlashController, "start_transaction"),
    ("flash", FlashController, "execute_prebuilt"),
    ("flash", FlashController, "finish_transaction"),
    ("flash", FlashController, "chip_available"),
    ("ftl.translate", PageMapFTL, "translate_read"),
    ("ftl.translate", PageMapFTL, "translate_write"),
    ("ftl.gc", GarbageCollector, "collect_plane_if_needed"),
    ("ftl.callback", ReaddressingCallback, "track_request"),
    ("ftl.callback", ReaddressingCallback, "untrack_request"),
    ("ftl.callback", ReaddressingCallback, "on_migration"),
    ("ftl.callback", ReaddressingCallback, "on_migrations"),
    ("metrics.record", MetricsCollector, "on_io_arrival"),
    ("metrics.record", MetricsCollector, "on_io_complete"),
    ("metrics.record", MetricsCollector, "on_transaction_complete"),
    ("metrics.record", MetricsCollector, "on_queue_stall"),
    ("metrics.assemble", MetricsCollector, "utilization_report"),
    ("metrics.assemble", MetricsCollector, "idleness_report"),
    ("metrics.assemble", MetricsCollector, "execution_breakdown"),
    ("metrics.assemble", WindowedTailTracker, "finish"),
    ("metrics.assemble", AttributionTracker, "finish"),
    ("metrics.assemble", ssd_module, "wear_stats"),
    ("engine.cache_store", engine_module.ResultCache, "store"),
    ("array.merge", fleet_run, "merge_device_results"),
    ("fleet.plan", fleet_run, "build_fleet_workloads"),
    ("fleet.jobs", fleet_run, "fleet_jobs"),
    ("fleet.jobs", SimJob, "fingerprint"),
    ("fleet.merge", fleet_run, "merge_node_results"),
)

#: Patch points whose return value is counted: a call "hits" when it
#: returns something other than ``None`` (a composed request, a started
#: transaction, a garbage-collection job).
OUTCOME_POINTS = {
    (Sprinkler, "next_composition"),
    (VirtualAddressScheduler, "next_composition"),
    (PhysicalAddressScheduler, "next_composition"),
    (FlashController, "start_transaction"),
    (GarbageCollector, "collect_plane_if_needed"),
}

#: Layers kept as whole span records, not only as aggregates: the passes
#: and the job-granularity spans the end-to-end timings are read from.
COARSE_LAYERS = frozenset({"rep", "fleet.run"} | {layer for layer, _, _ in JOB_POINTS})


class Tracer:
    """In-memory span recorder with per-layer self-time aggregates."""

    def __init__(self) -> None:
        #: Open spans: ``[layer, start, child_seconds, record_index, in_loop]``.
        self._stack: List[list] = []
        self._loop_depth = 0
        self._job = -1
        self._jobs_started = 0
        #: ``(layer, in_loop) -> [spans, total_s, self_s]``; ``in_loop`` is
        #: true for spans opened inside ``SSDSimulator.run``.
        self.aggregates: Dict[Tuple[str, bool], List[float]] = {}
        #: ``(layer, in_loop) -> [calls, non-None results]``.
        self.outcomes: Dict[Tuple[str, bool], List[int]] = {}
        #: Coarse spans: ``(layer, start, end, parent_index, job)``.
        self.spans: List[Tuple[str, float, float, int, int]] = []

    @contextmanager
    def span(self, layer: str) -> Iterator[None]:
        """Record the enclosed block as one span of ``layer``."""
        frame = self.open(layer)
        try:
            yield
        finally:
            self.close(frame)

    def open(self, layer: str) -> list:
        """Push a span; :meth:`close` must be called with the returned frame."""
        in_loop = self._loop_depth > 0
        if layer == "job":
            self._job = self._jobs_started
            self._jobs_started += 1
        elif layer == "sim.run":
            self._loop_depth += 1
        frame = [layer, 0.0, 0.0, -1, in_loop]
        if layer in COARSE_LAYERS:
            parent = next((f[3] for f in reversed(self._stack) if f[3] >= 0), -1)
            frame[3] = len(self.spans)
            self.spans.append((layer, 0.0, 0.0, parent, self._job))
        self._stack.append(frame)
        frame[1] = time.perf_counter()
        return frame

    def close(self, frame: list) -> None:
        """Pop ``frame`` and fold its timing into the aggregates."""
        end = time.perf_counter()
        layer, start, children, index, in_loop = frame
        if self._stack.pop() is not frame:
            raise RuntimeError(f"span {layer!r} closed out of order")
        duration = end - start
        if self._stack:
            self._stack[-1][2] += duration
        entry = self.aggregates.get((layer, in_loop))
        if entry is None:
            entry = self.aggregates[(layer, in_loop)] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - children
        if index >= 0:
            _, _, _, parent, job = self.spans[index]
            self.spans[index] = (layer, start, end, parent, job)
        if layer == "sim.run":
            self._loop_depth -= 1
        elif layer == "job":
            self._job = -1

    def outcome(self, layer: str, hit: bool) -> None:
        """Count one call of an outcome-tracked layer."""
        entry = self.outcomes.setdefault((layer, self._loop_depth > 0), [0, 0])
        entry[0] += 1
        entry[1] += hit

    # -- queries ---------------------------------------------------------
    def _summed(self, table, layer: str, column: int, loop_only: bool) -> float:
        return sum(
            entry[column]
            for (name, in_loop), entry in table.items()
            if name == layer and (in_loop or not loop_only)
        )

    def self_s(self, layer: str, *, loop_only: bool = False) -> float:
        """Summed self time of ``layer`` (inside the event loop only, if asked)."""
        return self._summed(self.aggregates, layer, 2, loop_only)

    def total_s(self, layer: str) -> float:
        """Summed duration of the spans of ``layer`` (child spans included)."""
        return self._summed(self.aggregates, layer, 1, False)

    def outcome_calls(self, layer: str, *, loop_only: bool = False) -> int:
        """Calls of an outcome-tracked layer."""
        return int(self._summed(self.outcomes, layer, 0, loop_only))

    def hit_ratio(self, layer: str, *, loop_only: bool = False) -> float:
        """Non-``None`` results over calls of an outcome-tracked layer."""
        calls = self._summed(self.outcomes, layer, 0, loop_only)
        return self._summed(self.outcomes, layer, 1, loop_only) / calls if calls else 0.0

    def job_spans(self, layer: str) -> List[Tuple[float, float, int]]:
        """``(start, end, job)`` of every coarse span of ``layer``."""
        return [(start, end, job) for name, start, end, _, job in self.spans if name == layer]


def _wrap(fn, layer: str, tracer: Tracer, track_outcome: bool):
    open_span = tracer.open
    close_span = tracer.close
    if track_outcome:
        record = tracer.outcome

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = open_span(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                close_span(frame)
            record(layer, result is not None)
            return result

    else:

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = open_span(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                close_span(frame)

    return traced


@contextmanager
def instrument(tracer: Tracer, *, layers: bool) -> Iterator[Tracer]:
    """Install the job-granularity (and, with ``layers``, per-layer) spans."""
    points = JOB_POINTS + (LAYER_POINTS if layers else ())
    saved = []
    try:
        for layer, owner, name in points:
            original = vars(owner)[name]
            saved.append((owner, name, original))
            setattr(owner, name, _wrap(original, layer, tracer, (owner, name) in OUTCOME_POINTS))
        yield tracer
    finally:
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)
