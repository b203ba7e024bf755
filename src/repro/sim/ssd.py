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
from typing import Deque, Dict, Optional, Sequence

from repro.core.policies import make_scheduler
from repro.core.scheduler import SchedulerBase, SchedulerContext
from repro.flash.channel import Channel
from repro.flash.chip import FlashChip
from repro.flash.commands import FlashOp, ParallelismClass, TransactionKind
from repro.flash.controller import FlashController
from repro.flash.geometry import PhysicalPageAddress
from repro.flash.request import MemoryRequest
from repro.flash.transaction import FlashTransaction, TransactionBuilder
from repro.ftl.callbacks import ReaddressingCallback
from repro.ftl.garbage_collector import GarbageCollector, GCJob
from repro.ftl.mapping import PageMapFTL
from repro.ftl.wear_leveling import wear_stats
from repro.lifetime.accounting import LifetimeAccounting, write_amplification
from repro.lifetime.state import PreconditionReport, apply_device_state
from repro.lifetime.steady import SteadyStateReport, age_to_steady_state
from repro.metrics.collector import MetricsCollector
from repro.metrics.report import SimulationResult
from repro.obs.counters import CounterRegistry
from repro.obs.health import HealthSampler
from repro.obs.trace import NULL_SINK, TraceSink
from repro.nvmhc.dma import DmaEngine
from repro.nvmhc.queue import DeviceQueue
from repro.nvmhc.tag import Tag
from repro.sim.config import SimulationConfig
from repro.sim.events import EventKind, EventQueue
from repro.workloads.request import IORequest


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
        builder = TransactionBuilder(self.geometry, self.timing, config.constraints)
        self.controllers: Dict[int, FlashController] = {}
        for channel_id, channel in self.channels.items():
            chips_on_channel = {
                key: chip for key, chip in self.chips.items() if key[0] == channel_id
            }
            self.controllers[channel_id] = FlashController(channel, chips_on_channel, builder)

        # --- firmware ------------------------------------------------------------
        self.ftl = PageMapFTL(self.geometry, self.chips, config.allocation_order)
        self.gc = GarbageCollector(
            self.geometry,
            self.timing,
            self.ftl,
            self.chips,
            free_block_watermark=config.gc_free_block_watermark,
            enabled=config.gc_enabled,
        )

        # --- NVMHC ----------------------------------------------------------------
        self.queue = DeviceQueue(depth=config.queue_depth)
        self.dma = DmaEngine(
            per_request_ns=config.compose_ns, per_byte_ns_x1000=config.compose_per_kb_ns
        )
        context = SchedulerContext(geometry=self.geometry, controllers=self.controllers)
        self.scheduler: SchedulerBase = make_scheduler(
            scheduler_name, context, **(scheduler_options or {})
        )

        callback_enabled = config.readdressing_callback
        if callback_enabled is None:
            callback_enabled = self.scheduler.uses_readdressing_callback
        self.callback = ReaddressingCallback(
            enabled=callback_enabled, stale_penalty_ns=config.stale_penalty_ns
        )
        self.ftl.migration_hook = self.callback.on_migrations

        # --- observability --------------------------------------------------------
        # One sink shared by every component; with the default null sink the
        # ``_tracing`` flag keeps emission branches off the hot paths
        # entirely, so untraced runs execute the pre-tracing instruction
        # stream (the digest-identity contract ``tests/test_perf.py``'s
        # goldens enforce).
        self.sink: TraceSink = trace_sink if trace_sink is not None else NULL_SINK
        self._tracing: bool = self.sink.enabled
        self.scheduler.attach_trace_sink(self.sink)
        for controller in self.controllers.values():
            controller.sink = self.sink
        self.gc.sink = self.sink
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
        self._gc_backlog: Dict[tuple, Deque[GCJob]] = {key: deque() for key in self.chips}
        self._decision_pending: set = set()
        self._requests_composed = 0
        self._workload_size = 0
        # Resumable-run state: the sorted arrival list still to be admitted,
        # the index of the next arrival, and whether a run is in progress
        # (between run(max_events=...) pauses).  See checkpoint()/resume().
        self._pending: list = []
        self._pending_index = 0
        self._workload_name = "workload"
        self._run_active = False

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
        # Snapshot the firmware counters so results report the measured run
        # only - aging writes/collections stay out of the run's accounting.
        self._ftl_baseline = replace(self.ftl.stats)
        self._gc_baseline = replace(self.gc.stats)

    # ======================================================================
    # Public API
    # ======================================================================
    def run(
        self,
        workload: Sequence[IORequest],
        workload_name: str = "workload",
        *,
        max_events: Optional[int] = None,
    ) -> Optional[SimulationResult]:
        """Replay a workload and return the measured result.

        With ``max_events`` set, the run *pauses* at the first event
        boundary where ``events.processed >= max_events`` and returns
        ``None``; the simulator then holds a resumable in-progress run -
        :meth:`checkpoint` snapshots it, :meth:`run_to_completion` continues
        it.  The pause point is a pure function of ``max_events``, so
        "run to T, snapshot, resume" is bit-identical to an uninterrupted
        run (the checkpoint digest-identity contract).
        """
        if self._run_active:
            raise RuntimeError(
                "a run is already in progress; continue it with run_to_completion()"
            )
        self._pending = sorted(workload, key=lambda io: (io.arrival_ns, io.io_id))
        self._pending_index = 0
        self._workload_size = len(self._pending)
        self._workload_name = workload_name
        self._run_active = True
        return self._advance(max_events)

    def run_to_completion(self, *, max_events: Optional[int] = None) -> Optional[SimulationResult]:
        """Continue a paused run (after ``run(max_events=...)`` or resume).

        Same pause contract as :meth:`run`: returns the finished
        :class:`SimulationResult`, or ``None`` if ``max_events`` paused the
        run again first.
        """
        if not self._run_active:
            raise RuntimeError("no run in progress; start one with run()")
        return self._advance(max_events)

    def _advance(self, max_events: Optional[int]) -> Optional[SimulationResult]:
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
        compose_done = EventKind.COMPOSE_DONE
        transaction_done = EventKind.TRANSACTION_DONE
        decision = EventKind.TRANSACTION_DECISION
        handle_compose = self._handle_compose_done
        handle_done = self._handle_transaction_done
        handle_decision = self._handle_decision
        handle_arrival = self._handle_arrival
        health = self._health
        ordered = self._pending
        events = self.events
        pop_batch = events.pop_batch
        peek_time = events.peek_time
        index = self._pending_index
        total = len(ordered)
        while True:
            if max_events is not None and events.processed >= max_events:
                self._pending_index = index
                return None
            arrival_ns = ordered[index].arrival_ns if index < total else None
            batch_ns = peek_time()
            if arrival_ns is not None and (batch_ns is None or arrival_ns <= batch_ns):
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
            if batch_ns is None:
                break
            time_ns, batch = pop_batch()
            self.now_ns = time_ns
            if health is not None and time_ns >= health.next_due_ns:
                health.sample(self, time_ns)
            for event in batch:
                kind = event[2]
                if kind is compose_done:
                    handle_compose(event[3])
                elif kind is transaction_done:
                    handle_done(event[3])
                elif kind is decision:
                    handle_decision(event[3])
                else:
                    handle_arrival(event[3])
        self._pending = []
        self._pending_index = 0
        self._run_active = False
        return self._build_result(self._workload_name)

    # ======================================================================
    # Checkpoint / restore
    # ======================================================================
    def checkpoint(self):
        """Snapshot the paused in-progress run as a portable checkpoint.

        Valid between :meth:`run`/:meth:`run_to_completion` pauses (i.e.
        after a ``max_events`` pause returned ``None``): the returned
        :class:`~repro.checkpoint.snapshot.SimulatorCheckpoint` captures the
        *complete* simulator state - FTL map and base-layout overlay,
        per-plane/block counters and wear, GC state and backlog, the event
        heap, queue and scheduler internals, metrics accumulators, and the
        not-yet-admitted tail of the workload - in one serialized object
        graph, so shared references survive the round trip.
        :meth:`resume` reconstructs a simulator that continues bit-identically.
        """
        from repro.checkpoint.snapshot import capture_checkpoint

        return capture_checkpoint(self)

    @classmethod
    def resume(cls, checkpoint) -> "SSDSimulator":
        """Reconstruct a paused simulator from a :meth:`checkpoint` snapshot.

        The returned simulator is mid-run; continue it with
        :meth:`run_to_completion`.  The snapshot is schema-checked
        (version, payload digest, field-by-field state types) before any
        state is installed.
        """
        from repro.checkpoint.snapshot import restore_simulator

        return restore_simulator(cls, checkpoint)

    # ======================================================================
    # Event handlers
    # ======================================================================
    def _handle_arrival(self, io: IORequest) -> None:
        self.metrics.on_io_arrival(io)
        tag = self.queue.submit(io, self.now_ns)
        if tag is not None:
            self._admit_tag(tag)
        self._pump()

    def _handle_compose_done(self, request: MemoryRequest) -> None:
        address = request.address
        controller = self.controllers[address.channel]
        controller.commit(request, self.now_ns)
        self.callback.track_request(request)
        self._requests_composed += 1
        if self._tracing:
            self.sink.span(
                "compose",
                category="nvmhc",
                track="nvmhc",
                start_ns=request.composed_at_ns,
                duration_ns=self.now_ns - request.composed_at_ns,
                io_id=request.io_id,
                lpn=request.lpn,
                channel=address.channel,
                chip=address.chip,
            )
        self._maybe_schedule_decision((address.channel, address.chip))
        self._pump()

    def _handle_decision(self, chip_key: tuple) -> None:
        self._decision_pending.discard(chip_key)
        self._try_start_chip(chip_key, immediate=True)
        self._pump()

    def _handle_transaction_done(self, chip_key: tuple) -> None:
        controller = self.controllers[chip_key[0]]
        transaction = controller.finish_transaction(chip_key, self.now_ns)
        self.metrics.on_transaction_complete(transaction)
        if not transaction.is_gc:
            self._retire_requests(transaction)
        self.scheduler.on_transaction_complete(chip_key, transaction, self.now_ns)
        self._try_start_chip(chip_key, immediate=True)
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
        tag.chip_mask = self.geometry.chip_mask(by_chip)
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
        self._try_start_chip(address.chip_key, immediate=True)

    # ======================================================================
    # Composition pipeline and chip activation
    # ======================================================================
    def _pump(self) -> None:
        """Keep the composition pipeline busy while the scheduler has work."""
        now_ns = self.now_ns
        if now_ns < self.dma.busy_until_ns:  # inline DmaEngine.is_busy
            return
        request = self.scheduler.next_composition(now_ns)
        if request is None:
            return
        request.composed_at_ns = now_ns
        tag = self._tags_by_io.get(request.io_id)
        if tag is not None:
            tag.composed_count += 1
        done_ns = self.dma.begin(now_ns, request.size_bytes)
        self.events.push(done_ns, EventKind.COMPOSE_DONE, request)

    def _maybe_schedule_decision(self, chip_key: tuple) -> None:
        """Arm the transaction-decision window for a chip that just got work."""
        controller = self.controllers[chip_key[0]]
        if not controller.chip_available(chip_key, self.now_ns):
            return
        if chip_key in self._decision_pending:
            return
        if controller.pending_count(chip_key) == 0:
            return
        self._decision_pending.add(chip_key)
        self.events.push(
            self.now_ns + self.config.decision_window_ns,
            EventKind.TRANSACTION_DECISION,
            chip_key,
        )

    def _try_start_chip(self, chip_key: tuple, immediate: bool = False) -> None:
        """Start GC or a host transaction on a chip if it is available."""
        controller = self.controllers[chip_key[0]]
        if not controller.chip_available(chip_key, self.now_ns):
            return
        backlog = self._gc_backlog[chip_key]
        if backlog:
            job = backlog.popleft()
            schedule = controller.execute_prebuilt(
                chip_key, self._gc_transaction(job), self.now_ns
            )
            if schedule is not None:
                self.events.push(schedule.complete_ns, EventKind.TRANSACTION_DONE, chip_key)
            return
        if controller.pending_count(chip_key) == 0:
            return
        if not immediate:
            self._maybe_schedule_decision(chip_key)
            return
        schedule = controller.start_transaction(chip_key, self.now_ns)
        if schedule is not None:
            for request in schedule.transaction.requests:
                self.callback.untrack_request(request)
            self.events.push(schedule.complete_ns, EventKind.TRANSACTION_DONE, chip_key)

    def _gc_transaction(self, job: GCJob) -> FlashTransaction:
        """Wrap a GC job into a chip-occupying transaction."""
        channel, chip = job.chip_key
        placeholder = MemoryRequest(
            io_id=-1,
            op=FlashOp.ERASE,
            lpn=0,
            size_bytes=self.geometry.page_size_bytes,
            address=PhysicalPageAddress(
                channel=channel,
                chip=chip,
                die=job.die,
                plane=job.plane,
                block=job.victim_block,
                page=0,
            ),
            is_gc=True,
        )
        transaction = FlashTransaction(
            chip_key=job.chip_key,
            requests=[placeholder],
            kind=TransactionKind.ERASE,
            parallelism=ParallelismClass.NON_PAL,
        )
        transaction.is_gc = True
        transaction.bus_time_ns = 0
        transaction.cell_time_ns = job.duration_ns
        return transaction

    # ======================================================================
    # Completion propagation
    # ======================================================================
    def _retire_requests(self, transaction: FlashTransaction) -> None:
        # No untrack here: every host transaction passed through
        # _try_start_chip, which already untracked its requests when they
        # started executing - a second untrack per request was pure no-op
        # bucket probing on the hottest completion path.
        tags_by_io = self._tags_by_io
        for request in transaction.requests:
            tag = tags_by_io.get(request.io_id)
            if tag is None:
                continue
            completed = tag.completed_count + 1
            tag.completed_count = completed
            # Inline Tag.fully_completed (every request retires through here).
            if completed >= len(tag.memory_requests) and tag.memory_requests:
                self._complete_io(tag)

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
    def _build_result(self, workload_name: str) -> SimulationResult:
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
        # Counter registry: mostly derived here from stats the run already
        # kept (so the event loop never touches the registry), plus the
        # handful of live counters components maintain on cold branches.
        counters = CounterRegistry(
            {
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
        )
        counters.update(self.scheduler.observability_counters())
        attribution = self.metrics.attribution.finish(
            total_ios=self.metrics.completed_ios, total_bytes=self.metrics.total_bytes
        )
        if attribution is not None:
            counters.update(attribution.counter_slices())
        result = SimulationResult(
            scheduler=self.scheduler.name,
            workload=workload_name,
            num_ios=self._workload_size,
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
            counters=counters.snapshot(),
            latency_windows=self.metrics.tail.finish(),
            attribution=attribution,
            health=self._health.finish() if self._health is not None else (),
        )
        return result

