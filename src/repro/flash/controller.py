"""Flash controller: per-chip commit queues and transaction execution phases.

Each channel has one flash controller (paper Figure 2).  The controller:

* accepts *committed* memory requests from the NVMHC scheduler and stores
  them per target chip (the commit order encodes the scheduler's priority,
  e.g. FARO's overlap-depth/connectivity order),
* when a chip is available, coalesces pending requests into one flash
  transaction using the shared :class:`TransactionBuilder`,
* sequences the bus and cell phases of the transaction on the shared
  channel, producing the timing information the simulator turns into events
  and the metrics collector turns into the paper's utilisation/idleness/
  breakdown figures.

Phase model
-----------

* **Program (write) transaction**: data moves host->registers over the
  channel first (bus phase, subject to channel arbitration), then the cell
  program executes with the channel free.
* **Read transaction**: the cell read executes first, then data moves
  registers->host over the channel (bus phase).
* **GC transaction**: copyback-style migration inside the chip plus the
  block erase; it occupies the cell only (no channel traffic).

The chip is busy (R/B asserted) from the instant the transaction is issued
until its last phase completes.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional

from repro.flash.channel import Channel
from repro.flash.chip import FlashChip
from repro.flash.commands import FlashOp
from repro.flash.request import MemoryRequest
from repro.flash.transaction import FlashTransaction, TransactionBuilder
from repro.obs.trace import NULL_SINK


class TransactionSchedule(NamedTuple):
    """Resolved timing of one transaction's phases.

    A NamedTuple rather than a dataclass: one is built per chip activation
    and immediately consumed, and the tuple constructor is measurably
    cheaper than dataclass ``__init__`` on that path.
    """

    transaction: FlashTransaction
    issue_ns: int
    bus_start_ns: int
    bus_end_ns: int
    cell_start_ns: int
    cell_end_ns: int
    complete_ns: int
    bus_wait_ns: int


class FlashController:
    """Builds and executes flash transactions for the chips of one channel."""

    def __init__(
        self,
        channel: Channel,
        chips: Dict[tuple, FlashChip],
        builder: TransactionBuilder,
    ) -> None:
        self.channel = channel
        self.chips = chips
        self.builder = builder
        self.pending: Dict[tuple, List[MemoryRequest]] = {key: [] for key in chips}
        self.active: Dict[tuple, Optional[FlashTransaction]] = {key: None for key in chips}
        #: Bit :meth:`SSDGeometry.chip_index` of each attached chip.
        self.chip_bits: Dict[tuple, int] = {
            key: builder.geometry.chip_mask((key,)) for key in chips
        }
        #: Chips with committed or in-flight work as a bitmask over
        #: :attr:`chip_bits`, kept exactly in sync with
        #: ``bool(pending[chip]) or active[chip] is not None``.  VAS/PAS test
        #: an I/O for conflicts with one AND of its chip mask against the OR
        #: of every controller's mask.
        self.busy_bits = 0
        self.total_committed = 0
        self.total_transactions = 0
        #: Trace sink (simulator-attached) and busy->idle transition count.
        #: ``idle_transitions`` is maintained on the cold discard branches
        #: only; :attr:`busy_transitions` derives the idle->busy count from
        #: it, keeping the hot ``commit`` path untouched.
        self.sink = NULL_SINK
        self.idle_transitions = 0

    # ------------------------------------------------------------------
    # Commit-side interface (used by the NVMHC scheduler)
    # ------------------------------------------------------------------
    def commit(self, request: MemoryRequest, now_ns: int) -> None:
        """Accept a composed memory request into the chip's commit queue."""
        chip_key = request.chip_key
        if chip_key not in self.pending:
            raise KeyError(f"chip {chip_key} is not attached to channel {self.channel.channel_id}")
        request.committed_at_ns = now_ns
        self.pending[chip_key].append(request)
        self.busy_bits |= self.chip_bits[chip_key]
        self.total_committed += 1

    def pending_count(self, chip_key: tuple) -> int:
        """Number of committed-but-not-started requests for a chip."""
        return len(self.pending[chip_key])

    def outstanding_count(self, chip_key: tuple) -> int:
        """Committed requests that have not completed yet (pending + in flight)."""
        active = self.active[chip_key]
        in_flight = active.num_requests if active is not None else 0
        return len(self.pending[chip_key]) + in_flight

    def has_outstanding(self, chip_key: tuple) -> bool:
        """True when the chip already holds committed or in-flight work."""
        return bool(self.busy_bits & self.chip_bits[chip_key])

    # ------------------------------------------------------------------
    # Execution-side interface (used by the simulator)
    # ------------------------------------------------------------------
    def chip_available(self, chip_key: tuple, now_ns: int) -> bool:
        """True when the chip can start a new transaction."""
        # Inline FlashChip.is_busy - this gate runs on every commit,
        # decision window and completion.
        return (
            self.active[chip_key] is None and now_ns >= self.chips[chip_key].busy_until
        )

    def start_transaction(self, chip_key: tuple, now_ns: int) -> Optional[TransactionSchedule]:
        """Build the next transaction for a chip and resolve its phase timing.

        Returns ``None`` when the chip is busy or has nothing pending.  The
        selected requests are removed from the commit queue and the chip is
        marked busy for the whole duration.
        """
        if not self.chip_available(chip_key, now_ns):
            return None
        queue = self.pending[chip_key]
        if not queue:
            return None
        selected, remaining = self.builder.select_partition(queue)
        if not selected:
            return None
        transaction = self.builder.build(chip_key, selected)
        self.pending[chip_key] = remaining
        self.active[chip_key] = transaction
        self.total_transactions += 1
        schedule = self._schedule_phases(transaction, now_ns)
        self._record(chip_key, schedule)
        return schedule

    def execute_prebuilt(
        self, chip_key: tuple, transaction: FlashTransaction, now_ns: int
    ) -> Optional[TransactionSchedule]:
        """Execute a transaction built outside the commit queues (GC work)."""
        if not self.chip_available(chip_key, now_ns):
            return None
        self.active[chip_key] = transaction
        self.busy_bits |= self.chip_bits[chip_key]
        self.total_transactions += 1
        schedule = self._schedule_phases(transaction, now_ns)
        self._record(chip_key, schedule)
        return schedule

    def finish_transaction(self, chip_key: tuple, now_ns: int) -> FlashTransaction:
        """Mark the active transaction of a chip as completed."""
        transaction = self.active[chip_key]
        if transaction is None:
            raise RuntimeError(f"chip {chip_key} has no active transaction")
        transaction.completed_at_ns = now_ns
        for request in transaction.requests:
            request.completed_at_ns = now_ns
        self.active[chip_key] = None
        if not self.pending[chip_key]:
            # An active transaction implies the chip's busy bit is set, so
            # clearing it is a guaranteed busy->idle transition.
            self.busy_bits &= ~self.chip_bits[chip_key]
            self.idle_transitions += 1
        if self.sink.enabled:
            self.sink.span(
                "gc" if transaction.is_gc else "txn",
                category="flash",
                track=f"chip {chip_key[0]}.{chip_key[1]}",
                start_ns=transaction.issued_at_ns,
                duration_ns=now_ns - transaction.issued_at_ns,
                kind=transaction.kind.name,
                requests=transaction.num_requests,
                parallelism=transaction.parallelism.name,
                bus_ns=transaction.bus_time_ns,
                cell_ns=transaction.cell_time_ns,
                bus_wait_ns=transaction.bus_wait_ns,
            )
        return transaction

    @property
    def busy_transitions(self) -> int:
        """Idle->busy transitions of this controller's chips so far.

        Every chip that ever became busy either went idle again (counted in
        :attr:`idle_transitions`) or still has its bit set in
        :attr:`busy_bits`, so the sum of the two is exactly the number of
        idle->busy transitions - without touching the hot ``commit`` path.
        """
        return self.idle_transitions + self.busy_bits.bit_count()

    # ------------------------------------------------------------------
    # Internal helpers
    # ------------------------------------------------------------------
    def _schedule_phases(self, transaction: FlashTransaction, now_ns: int) -> TransactionSchedule:
        has_bus = transaction.bus_time_ns > 0
        if transaction.is_gc or not has_bus:
            # Pure cell work (GC copyback + erase): no channel traffic.
            # is_write is irrelevant here, so the request walk that computes
            # it when the builder didn't is deferred to the bus branches.
            bus_start = bus_end = now_ns
            cell_start = now_ns
            cell_end = cell_start + transaction.cell_time_ns
            complete = cell_end
            wait = 0
        elif (
            transaction.has_program
            if transaction.has_program is not None
            else any(req.op is FlashOp.PROGRAM for req in transaction.requests)
        ):
            bus_start, bus_end, wait = self.channel.reserve(
                now_ns, transaction.bus_time_ns, transaction.total_bytes
            )
            cell_start = bus_end
            cell_end = cell_start + transaction.cell_time_ns
            complete = cell_end
        else:
            cell_start = now_ns
            cell_end = cell_start + transaction.cell_time_ns
            bus_start, bus_end, wait = self.channel.reserve(
                cell_end, transaction.bus_time_ns, transaction.total_bytes
            )
            complete = bus_end
        transaction.issued_at_ns = now_ns
        transaction.bus_started_at_ns = bus_start
        transaction.bus_wait_ns = wait
        for request in transaction.requests:
            request.started_at_ns = now_ns
        return TransactionSchedule(
            transaction=transaction,
            issue_ns=now_ns,
            bus_start_ns=bus_start,
            bus_end_ns=bus_end,
            cell_start_ns=cell_start,
            cell_end_ns=cell_end,
            complete_ns=complete,
            bus_wait_ns=wait,
        )

    def _record(self, chip_key: tuple, schedule: TransactionSchedule) -> None:
        transaction = schedule.transaction
        chip = self.chips[chip_key]
        chip.occupy(schedule.issue_ns, schedule.complete_ns)
        # The builder computes die activity alongside cell pricing; only
        # transactions assembled outside it (GC placeholders) fall back to
        # the explicit per-request walk.
        die_active = transaction.die_active_time_ns
        if die_active is None:
            die_active = self._die_active_time(transaction)
        chip.record_transaction(
            num_requests=transaction.num_requests,
            num_dies=len(transaction.dies),
            cell_time_ns=transaction.cell_time_ns,
            bus_time_ns=transaction.bus_time_ns,
            bus_wait_ns=schedule.bus_wait_ns,
            die_active_time_ns=die_active,
            is_gc=transaction.is_gc,
        )

    def _die_active_time(self, transaction: FlashTransaction) -> int:
        """Sum of per-die cell activity, used for intra-chip idleness."""
        per_die: Dict[int, int] = {}
        timing = self.builder.timing
        for req in transaction.requests:
            latency = timing.cell_latency_ns(req.op, req.address.page)
            per_die[req.address.die] = max(per_die.get(req.address.die, 0), latency)
        return sum(per_die.values())
