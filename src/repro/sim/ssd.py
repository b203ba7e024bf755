"""The many-chip SSD simulator.

:class:`SSDSimulator` wires all substrates together and replays a workload:

1. Host I/O requests arrive and are admitted into the device queue (or wait
   in the host-side backlog when the queue is full).
2. A preprocessor splits each admitted tag into page-sized memory requests
   and translates them through the FTL (writes allocate fresh pages and may
   trigger garbage collection).
3. The scheduler (VAS / PAS / SPK1-3) decides the order in which memory
   requests enter the composition/DMA pipeline; each composition commits the
   request to the flash controller of its target channel.
4. The controller coalesces committed requests per chip into flash
   transactions (after a short transaction-decision window) and sequences
   their bus and cell phases on the shared channel.
5. Completions propagate back: memory request -> tag -> host I/O, freeing
   queue slots and waking up the scheduler.

Everything is deterministic: same config + same workload -> same result.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import replace
from heapq import heappop, heappush
from typing import Deque, Dict, Optional, Sequence

from repro.core.policies import make_scheduler
from repro.core.scheduler import SchedulerBase, SchedulerContext
from repro.flash.channel import Channel
from repro.flash.chip import FlashChip
from repro.flash.commands import FlashOp
from repro.flash.controller import FlashController
from repro.flash.geometry import PhysicalPageAddress
from repro.flash.request import MemoryRequest
from repro.flash.transaction import TransactionBuilder
from repro.ftl.callbacks import ReaddressingCallback
from repro.ftl.garbage_collector import GarbageCollector, GCJob
from repro.ftl.mapping import PageMapFTL
from repro.ftl.wear_leveling import wear_stats
from repro.lifetime.accounting import LifetimeAccounting, write_amplification
from repro.lifetime.state import PreconditionReport, apply_device_state
from repro.lifetime.steady import SteadyStateReport, age_to_steady_state
from repro.metrics.collector import MetricsCollector
from repro.metrics.report import SimulationResult
from repro.obs.health import HealthSampler
from repro.obs.trace import NULL_SINK, TraceSink
from repro.nvmhc.dma import DmaEngine
from repro.nvmhc.queue import DeviceQueue
from repro.nvmhc.tag import Tag
from repro.sim.config import SimulationConfig
from repro.sim.events import EventKind, EventQueue
from repro.workloads.request import IORequest

#: Transaction type decision window: requests committed within this window
#: of the first one can join the same transaction (temporal locality).
DECISION_WINDOW_NS = 2_000

# The event kinds, bound once: the handlers push about 200K events per
# paper-grid pass, and a module constant reads several times faster than
# an enum member.
_COMPOSE_DONE = EventKind.COMPOSE_DONE
_TRANSACTION_DONE = EventKind.TRANSACTION_DONE
_DECISION = EventKind.TRANSACTION_DECISION


class SSDSimulator:
    """Event-driven simulator of a many-chip SSD with a pluggable scheduler."""

    def __init__(
        self,
        config: SimulationConfig,
        scheduler_name: str = "SPK3",
        scheduler_options: Optional[Dict[str, object]] = None,
        *,
        trace_sink: Optional[TraceSink] = None,
        health_interval_ns: Optional[int] = None,
    ) -> None:
        # ``trace_sink``/``health_interval_ns`` are deliberately NOT part of
        # SimulationConfig: they change what telemetry is recorded, never
        # the simulated behaviour, and config fields feed the result
        # fingerprints (see repro.sim.config.canonicalize).
        self.config = config
        self.geometry = config.geometry
        self.timing = config.timing

        # --- physical resources -------------------------------------------------
        self.chips: Dict[tuple, FlashChip] = {
            chip_key: FlashChip(chip_key, self.geometry)
            for chip_key in self.geometry.iter_chip_keys()
        }
        self.channels: Dict[int, Channel] = {
            channel: Channel(channel) for channel in range(self.geometry.num_channels)
        }
        builder = TransactionBuilder(self.geometry, self.timing)
        self.controllers: Dict[int, FlashController] = {}
        for channel_id, channel in self.channels.items():
            chips_on_channel = {
                key: chip for key, chip in self.chips.items() if key[0] == channel_id
            }
            self.controllers[channel_id] = FlashController(channel, chips_on_channel, builder)

        # --- firmware ------------------------------------------------------------
        self.ftl = PageMapFTL(self.geometry, self.chips)
        self.gc = GarbageCollector(
            self.geometry, self.timing, self.ftl, self.chips, enabled=config.gc_enabled
        )

        # --- NVMHC ----------------------------------------------------------------
        self.queue = DeviceQueue(depth=config.queue_depth)
        self.dma = DmaEngine()
        context = SchedulerContext(geometry=self.geometry, controllers=self.controllers)
        self.scheduler: SchedulerBase = make_scheduler(
            scheduler_name, context, **(scheduler_options or {})
        )

        callback_enabled = config.readdressing_callback
        if callback_enabled is None:
            callback_enabled = self.scheduler.uses_readdressing_callback
        # Committed requests are indexed for readdressing only from the
        # first migration of a GC-enabled run on: a run whose garbage
        # collector never moves a page never reads the index.  The
        # controllers' commit queues then hold exactly the requests to seed
        # it with (committed, not yet started), each chip's in commit order.
        # The source closes over the controllers, not the simulator, so the
        # FTL's hook adds no reference cycle.
        controllers = self.controllers
        self.callback = ReaddressingCallback(
            enabled=callback_enabled,
            committed=(
                lambda: [
                    request
                    for controller in controllers.values()
                    for queue in controller.pending.values()
                    for request in queue
                ]
            )
            if config.gc_enabled
            else None,
        )

        # --- observability --------------------------------------------------------
        # One sink shared by every component; with the default null sink the
        # ``_tracing`` flag keeps emission branches off the hot paths
        # entirely, so untraced runs execute the pre-tracing instruction
        # stream (the digest-identity contract ``tests/test_perf.py``'s
        # goldens enforce).
        self.sink: TraceSink = trace_sink if trace_sink is not None else NULL_SINK
        self._tracing: bool = self.sink.enabled
        for controller in self.controllers.values():
            controller.sink = self.sink
        # Periodic health sampling, off by default: the hot loop pays one
        # ``is not None`` test per timestamp batch when disabled.
        self._health: Optional[HealthSampler] = (
            HealthSampler(health_interval_ns)
            if health_interval_ns is not None
            else None
        )

        # --- bookkeeping ----------------------------------------------------------
        self.metrics = MetricsCollector()
        self.events = EventQueue()
        self.now_ns = 0
        self._tags_by_io: Dict[int, Tag] = {}
        #: Bit :meth:`SSDGeometry.chip_index` of every chip, for tag masks.
        self._chip_bits: Dict[tuple, int] = {
            key: bit
            for controller in self.controllers.values()
            for key, bit in controller.chip_bits.items()
        }
        self._gc_backlog: Dict[tuple, Deque[GCJob]] = {key: deque() for key in self.chips}
        self._decision_pending: set = set()
        self._requests_composed = 0

        # --- preconditioning ------------------------------------------------------
        self.precondition: Optional[PreconditionReport] = None
        self.steady_state: Optional[SteadyStateReport] = None
        if config.prefill_fraction > 0.0:
            self.precondition = self.ftl.fill(
                config.prefill_fraction,
                overwrite_fraction=config.prefill_overwrite_fraction,
            )
        if config.device_state is not None:
            state = config.device_state
            # One RNG stream across fill and steady aging, so the whole aged
            # starting point is a function of (config, state.seed) alone.
            rng = random.Random(state.seed)
            self.precondition = apply_device_state(
                self.ftl, state, logical_pages=config.logical_pages, rng=rng
            )
            if state.steady_state:
                self.steady_state = age_to_steady_state(
                    self.ftl,
                    self.gc,
                    state,
                    live_pages=self.precondition.live_pages,
                    rng=rng,
                )
        # The collector joins the trace and the callback joins the FTL only
        # now: aging collections are untimed and move pages no request
        # points at, so they stay out of the trace, out of the callback
        # (which starts indexing commits at the run's first migration), and
        # out of the counters below.
        self.gc.sink = self.sink
        self.ftl.migration_hook = self.callback.on_migrations
        # Snapshot the firmware counters so results report the measured run
        # only - aging writes/collections stay out of the run's accounting.
        self._ftl_baseline = replace(self.ftl.stats)
        self._gc_baseline = replace(self.gc.stats)

    # ======================================================================
    # Public API
    # ======================================================================
    def run(
        self, workload: Sequence[IORequest], workload_name: str = "workload"
    ) -> SimulationResult:
        """Replay a workload and return the measured result."""
        # The workload is fed straight from the sorted arrival list instead
        # of being loaded into the event heap: arrivals would all carry lower
        # sequence numbers than any event a handler schedules, so "arrivals
        # at time T run before every dynamic event at time T, in sorted
        # order" is exactly the order the heap would have produced - and the
        # heap never has to hold the whole trace (peak memory stays flat in
        # trace length).  Dynamic events are drained in same-timestamp
        # batches; the clock advances once per timestamp and the
        # identity-test dispatch (ordered by event frequency, with kind
        # constants and handlers bound once) runs flat over each batch.
        ordered = sorted(workload, key=lambda io: (io.arrival_ns, io.io_id))
        compose_done = _COMPOSE_DONE
        transaction_done = _TRANSACTION_DONE
        decision = _DECISION
        handle_compose = self._handle_compose_done
        handle_done = self._handle_transaction_done
        handle_decision = self._handle_decision
        handle_arrival = self._handle_arrival
        health = self._health
        events = self.events
        heap = events.heap
        index = 0
        total = len(ordered)
        while True:
            if index < total:
                arrival_ns = ordered[index].arrival_ns
                if not heap or arrival_ns <= heap[0][0]:
                    self.now_ns = arrival_ns
                    if health is not None and arrival_ns >= health.next_due_ns:
                        health.sample(self, arrival_ns)
                    admitted = 0
                    while index < total and ordered[index].arrival_ns == arrival_ns:
                        handle_arrival(ordered[index])
                        index += 1
                        admitted += 1
                    events.processed += admitted
                    events.batches += 1
                    if admitted > events.largest_batch:
                        events.largest_batch = admitted
                    continue
            elif not heap:
                break
            # Pop the whole same-timestamp batch before running any of it
            # (see repro.sim.events for the batch contract).  Most batches
            # hold one event, which skips the list.
            entry = heappop(heap)
            time_ns = entry[0]
            if heap and heap[0][0] == time_ns:
                batch = [entry]
                while heap and heap[0][0] == time_ns:
                    batch.append(heappop(heap))
                size = len(batch)
            else:
                batch = (entry,)
                size = 1
            events.processed += size
            events.batches += 1
            if size > events.largest_batch:
                events.largest_batch = size
            self.now_ns = time_ns
            if health is not None and time_ns >= health.next_due_ns:
                health.sample(self, time_ns)
            for _, _, kind, payload in batch:
                if kind is compose_done:
                    handle_compose(payload)
                elif kind is transaction_done:
                    handle_done(payload)
                elif kind is decision:
                    handle_decision(payload)
        return self._build_result(workload_name, total)

    # ======================================================================
    # Event handlers
    # ======================================================================
    # Every handler ends by refilling the composition pipeline, but calls
    # _pump only when the DMA engine is idle (most events land while a
    # composition is still in flight).  Handlers schedule by pushing
    # (time_ns, sequence, kind, payload) tuples onto the event heap
    # themselves; repro.sim.events states the contract they keep.
    def _handle_arrival(self, io: IORequest) -> None:
        self.metrics.on_io_arrival(io)
        tag = self.queue.submit(io, self.now_ns)
        if tag is not None:
            self._admit_tag(tag)
        if self.now_ns >= self.dma.busy_until_ns:
            self._pump()

    def _handle_compose_done(self, request: MemoryRequest) -> None:
        now_ns = self.now_ns
        address = request.address
        controller = self.controllers[address.channel]
        controller.commit(request, now_ns)
        if self.callback.tracking:
            self.callback.track_request(request)
        self._requests_composed += 1
        if self._tracing:
            self.sink.span(
                "compose",
                category="nvmhc",
                track="nvmhc",
                start_ns=request.composed_at_ns,
                duration_ns=now_ns - request.composed_at_ns,
                io_id=request.io_id,
                lpn=request.lpn,
                channel=address.channel,
                chip=address.chip,
            )
        # Arm the transaction-decision window of the chip that just got
        # work (the commit above left its queue non-empty), unless it is
        # armed already or the chip is busy - its completion starts the
        # next transaction then.
        chip_key = (address.channel, address.chip)
        if chip_key not in self._decision_pending and controller.chip_available(
            chip_key, now_ns
        ):
            self._decision_pending.add(chip_key)
            decide_ns = now_ns + DECISION_WINDOW_NS
            if decide_ns < 0:
                raise ValueError("event time must be non-negative")
            events = self.events
            heappush(
                events.heap,
                (decide_ns, next(events.sequence), _DECISION, chip_key),
            )
        if now_ns >= self.dma.busy_until_ns:
            self._pump()

    def _handle_decision(self, chip_key: tuple) -> None:
        self._decision_pending.discard(chip_key)
        self._try_start_chip(chip_key)
        if self.now_ns >= self.dma.busy_until_ns:
            self._pump()

    def _handle_transaction_done(self, chip_key: tuple) -> None:
        controller = self.controllers[chip_key[0]]
        transaction = controller.finish_transaction(chip_key, self.now_ns)
        self.metrics.on_transaction_complete(transaction)
        if not transaction.is_gc:
            # Retire the served memory requests.  No untrack here: every
            # host transaction passed through _try_start_chip, which
            # untracked its requests when they started executing.
            tags_by_io = self._tags_by_io
            for request in transaction.requests:
                tag = tags_by_io.get(request.io_id)
                if tag is None:
                    continue
                completed = tag.completed_count + 1
                tag.completed_count = completed
                # The I/O completes with its last memory request.
                if completed >= len(tag.memory_requests) and tag.memory_requests:
                    self._complete_io(tag)
        self._try_start_chip(chip_key)
        if self.now_ns >= self.dma.busy_until_ns:
            self._pump()

    # ======================================================================
    # Tag admission and preprocessing
    # ======================================================================
    def _admit_tag(self, tag: Tag) -> None:
        """Split the tag into memory requests and identify their layout."""
        io = tag.io
        is_write = io.is_write
        op = FlashOp.PROGRAM if is_write else FlashOp.READ
        io_id = io.io_id
        page_size = self.geometry.page_size_bytes
        translate_write = self.ftl.translate_write
        translate_read = self.ftl.translate_read
        gc_enabled = self.config.gc_enabled
        requests = tag.memory_requests
        by_chip = tag.by_chip
        for lpn in io.logical_pages(page_size):
            if is_write:
                address = translate_write(lpn)
                if gc_enabled:
                    self._collect_garbage(address)
            else:
                address = translate_read(lpn)
            request = MemoryRequest(
                io_id=io_id,
                op=op,
                lpn=lpn,
                size_bytes=page_size,
                address=address,
            )
            requests.append(request)
            chip_key = (address.channel, address.chip)
            bucket = by_chip.get(chip_key)
            if bucket is None:
                by_chip[chip_key] = [request]
            else:
                bucket.append(request)
        chip_bits = self._chip_bits
        chip_mask = 0
        for chip_key in by_chip:
            chip_mask |= chip_bits[chip_key]
        tag.chip_mask = chip_mask
        self._tags_by_io[io_id] = tag
        self.scheduler.register_tag(tag, self.now_ns)

    def _collect_garbage(self, address: PhysicalPageAddress) -> None:
        """Run GC bookkeeping for the plane a write just consumed a page on."""
        job = self.gc.collect_plane_if_needed(
            address.chip_key, address.die, address.plane, self.now_ns
        )
        if job is None:
            return
        self._gc_backlog[address.chip_key].append(job)
        self._try_start_chip(address.chip_key)

    # ======================================================================
    # Composition pipeline and chip activation
    # ======================================================================
    def _pump(self) -> None:
        """Compose the scheduler's next memory request on the idle DMA engine.

        Callers test that the engine is idle (``now_ns >= busy_until_ns``).
        """
        now_ns = self.now_ns
        request = self.scheduler.next_composition(now_ns)
        if request is None:
            return
        request.composed_at_ns = now_ns
        tag = self._tags_by_io.get(request.io_id)
        if tag is not None:
            tag.composed_count += 1
        done_ns = self.dma.begin(now_ns, request.size_bytes)
        if done_ns < 0:
            raise ValueError("event time must be non-negative")
        events = self.events
        heappush(events.heap, (done_ns, next(events.sequence), _COMPOSE_DONE, request))

    def _try_start_chip(self, chip_key: tuple) -> None:
        """Start GC or a host transaction on a chip if it is available.

        The controller tests availability once, in the start call, which
        returns ``None`` when the chip is busy.
        """
        controller = self.controllers[chip_key[0]]
        backlog = self._gc_backlog[chip_key]
        if backlog:
            complete_ns = controller.execute_prebuilt(backlog[0], self.now_ns)
            if complete_ns is None:
                return
            backlog.popleft()
        else:
            if not controller.pending[chip_key]:
                return
            complete_ns = controller.start_transaction(chip_key, self.now_ns)
            if complete_ns is None:
                return
            if self.callback.tracking:
                for request in controller.active[chip_key].requests:
                    self.callback.untrack_request(request)
        if complete_ns < 0:
            raise ValueError("event time must be non-negative")
        events = self.events
        heappush(
            events.heap,
            (complete_ns, next(events.sequence), _TRANSACTION_DONE, chip_key),
        )

    # ======================================================================
    # Completion propagation
    # ======================================================================
    def _complete_io(self, tag: Tag) -> None:
        io = tag.io
        io.completed_at_ns = self.now_ns
        self.metrics.on_io_complete(io, self.now_ns)
        if self._tracing:
            enqueued = io.enqueued_at_ns
            self.sink.span(
                "io",
                category="host",
                track="host",
                start_ns=io.arrival_ns,
                duration_ns=self.now_ns - io.arrival_ns,
                io_id=io.io_id,
                kind=io.kind.name,
                bytes=io.size_bytes,
                queue_wait_ns=(enqueued - io.arrival_ns) if enqueued is not None else 0,
            )
        self.queue.retire(io.io_id)
        self.scheduler.on_tag_retired(tag)
        del self._tags_by_io[io.io_id]
        for admitted in self.queue.admit_from_backlog(self.now_ns):
            self._admit_tag(admitted)

    # ======================================================================
    # Result assembly
    # ======================================================================
    def _build_result(self, workload_name: str, num_ios: int) -> SimulationResult:
        transactions = sum(
            controller.total_transactions for controller in self.controllers.values()
        )
        gc_run = self.gc.stats.delta(self._gc_baseline)
        host_writes = self.ftl.stats.host_writes - self._ftl_baseline.host_writes
        relocated = self.ftl.stats.migrations - self._ftl_baseline.migrations
        flash_writes = host_writes + relocated
        lifetime = LifetimeAccounting(
            host_writes=host_writes,
            flash_writes=flash_writes,
            write_amplification=write_amplification(host_writes, flash_writes),
            pages_relocated=relocated,
            host_reads=self.ftl.stats.host_reads - self._ftl_baseline.host_reads,
            precondition_writes=self.precondition.page_writes if self.precondition else 0,
            steady_state_passes=self.steady_state.passes if self.steady_state else 0,
            steady_state_converged=(
                self.steady_state.converged if self.steady_state else False
            ),
            steady_state_wa=(
                self.steady_state.write_amplification if self.steady_state else 0.0
            ),
        )
        # Counters: mostly derived here from stats the run already kept (so
        # the event loop never touches them), plus the handful of live
        # counters components maintain on cold branches.
        counters = {
            "arrivals.backlogged": self.queue.stats.stalled_requests,
            "callback.requests_penalized": self.callback.stats.requests_penalized,
            "callback.requests_retargeted": self.callback.stats.requests_retargeted,
            "chip.busy_transitions": sum(
                controller.busy_transitions for controller in self.controllers.values()
            ),
            "events.batches": self.events.batches,
            "events.largest_batch": self.events.largest_batch,
            "events.processed": self.events.processed,
            "gc.blocks_erased": gc_run.blocks_erased,
            "gc.pages_migrated": gc_run.pages_migrated,
            "gc.triggers": gc_run.invocations,
            "io.completed": self.metrics.completed_ios,
            "requests.composed": self._requests_composed,
            "trace.spans": getattr(self.sink, "total_records", 0),
            "transactions.gc": self.metrics.gc_transactions,
            "transactions.host": self.metrics.flp.total_transactions,
        }
        counters.update(self.scheduler.observability_counters())
        attribution = self.metrics.attribution.finish(
            total_ios=self.metrics.completed_ios, total_bytes=self.metrics.total_bytes
        )
        if attribution is not None:
            counters.update(attribution.counter_slices())
        result = SimulationResult(
            scheduler=self.scheduler.name,
            workload=workload_name,
            num_ios=num_ios,
            completed_ios=self.metrics.completed_ios,
            total_bytes=self.metrics.total_bytes,
            makespan_ns=self.metrics.makespan_ns,
            latency=self.metrics.latency,
            utilization=self.metrics.utilization_report(self.chips),
            idleness=self.metrics.idleness_report(self.chips),
            flp=self.metrics.flp,
            breakdown=self.metrics.execution_breakdown(self.chips, self.channels),
            queue_stall_time_ns=self.queue.stats.total_backlog_wait_ns,
            memory_requests_composed=self._requests_composed,
            memory_requests_served=self.metrics.memory_requests_served,
            transactions=self.metrics.flp.total_transactions,
            gc_transactions=self.metrics.gc_transactions,
            gc_time_ns=self.metrics.gc_time_ns,
            time_series=self.metrics.time_series,
            extra={
                "all_transactions_including_gc": float(transactions),
                "stalled_requests": float(self.queue.stats.stalled_requests),
                "requests_retargeted": float(self.callback.stats.requests_retargeted),
                "requests_penalized": float(self.callback.stats.requests_penalized),
                "gc_invocations": float(gc_run.invocations),
                "gc_pages_migrated": float(gc_run.pages_migrated),
            },
            gc_stats=gc_run,
            wear=wear_stats(self.chips),
            lifetime=lifetime,
            events_processed=self.events.processed,
            event_batches=self.events.batches,
            largest_event_batch=self.events.largest_batch,
            counters=dict(sorted(counters.items())),
            latency_windows=self.metrics.tail.finish(),
            attribution=attribution,
            health=self._health.finish() if self._health is not None else (),
        )
        return result

