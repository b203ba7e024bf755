"""Flash controller: per-chip commit queues and transaction execution phases.

Each channel has one flash controller (paper Figure 2).  The controller:

* accepts *committed* memory requests from the NVMHC scheduler and stores
  them per target chip (the commit order encodes the scheduler's priority,
  e.g. FARO's overlap-depth/connectivity order),
* when a chip is available, :meth:`FlashController.start_transaction` goes
  from the commit queue to a scheduled transaction in one call: the shared
  :class:`TransactionBuilder` takes and prices the transaction in one walk
  over the queue, then the controller reserves the channel in phase order,
  occupies the chip and records the channel and chip statistics the
  metrics collector turns into the paper's utilisation/idleness/breakdown
  figures (the controller updates those plain counters itself),
* starts garbage-collection passes the same way
  (:meth:`FlashController.execute_prebuilt`), from a transaction the same
  builder makes out of the :class:`~repro.ftl.garbage_collector.GCJob`.

Both calls return the completion time the simulator schedules its
transaction-done event at, or ``None`` when nothing started.

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

from typing import TYPE_CHECKING, Dict, List, Optional

from repro.flash.channel import Channel
from repro.flash.chip import FlashChip
from repro.flash.request import MemoryRequest
from repro.flash.transaction import FlashTransaction, TransactionBuilder
from repro.obs.trace import NULL_SINK

if TYPE_CHECKING:
    from repro.ftl.garbage_collector import GCJob


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
        address = request.address
        if address is None:
            raise ValueError("memory request has not been translated yet")
        chip_key = (address.channel, address.chip)
        pending = self.pending
        if chip_key not in pending:
            raise KeyError(f"chip {chip_key} is not attached to channel {self.channel.channel_id}")
        request.committed_at_ns = now_ns
        pending[chip_key].append(request)
        self.busy_bits |= self.chip_bits[chip_key]
        self.total_committed += 1

    # ------------------------------------------------------------------
    # Execution-side interface (used by the simulator)
    # ------------------------------------------------------------------
    def chip_available(self, chip_key: tuple, now_ns: int) -> bool:
        """True when the chip can start a new transaction."""
        return (
            self.active[chip_key] is None and now_ns >= self.chips[chip_key].busy_until
        )

    def start_transaction(self, chip_key: tuple, now_ns: int) -> Optional[int]:
        """Start the next transaction off a chip's commit queue.

        The builder takes and prices the transaction in one walk over the
        queue; the controller then reserves the channel in phase order and
        occupies the chip.  Returns the completion time, or ``None`` exactly
        when nothing started (chip busy or nothing pending).
        """
        # The chip_available test, inline: this is the one availability
        # test per start.
        if self.active[chip_key] is not None or now_ns < self.chips[chip_key].busy_until:
            return None
        built = self.builder.from_queue(chip_key, self.pending[chip_key])
        if built is None:
            return None
        transaction, self.pending[chip_key] = built
        return self._issue(chip_key, transaction, now_ns)

    def execute_prebuilt(self, job: GCJob, now_ns: int) -> Optional[int]:
        """Start a garbage-collection pass on its chip; ``None`` if the chip is busy."""
        chip_key = job.chip_key
        if self.active[chip_key] is not None or now_ns < self.chips[chip_key].busy_until:
            return None
        self.busy_bits |= self.chip_bits[chip_key]
        return self._issue(chip_key, self.builder.from_gc_job(job), now_ns)

    def finish_transaction(self, chip_key: tuple, now_ns: int) -> FlashTransaction:
        """Mark the active transaction of a chip as completed."""
        transaction = self.active[chip_key]
        if transaction is None:
            raise RuntimeError(f"chip {chip_key} has no active transaction")
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
    def _issue(self, chip_key: tuple, transaction: FlashTransaction, now_ns: int) -> int:
        """Run a priced transaction's phases, occupy its chip, record its stats.

        The channel and chip accounting is done here, in one place: the bus
        phase is reserved no earlier than the channel frees up (the wait is
        the bus contention of Figure 13), and the chip is busy from issue to
        the end of its last phase.
        """
        bus_ns = transaction.bus_time_ns
        cell_ns = transaction.cell_time_ns
        chip = self.chips[chip_key]
        stats = chip.stats
        if transaction.is_gc:
            bus_start, wait = now_ns, 0
            complete = now_ns + cell_ns
            stats.gc_transactions += 1
        else:
            if bus_ns < 0:
                raise ValueError("bus time must be non-negative")
            # A program moves its data before the cell phase, a read after.
            request_ns = now_ns if transaction.has_program else now_ns + cell_ns
            channel = self.channel
            free_at = channel.free_at_ns
            bus_start = request_ns if request_ns >= free_at else free_at
            wait = bus_start - request_ns
            bus_end = bus_start + bus_ns
            channel.free_at_ns = bus_end
            channel_stats = channel.stats
            channel_stats.busy_time_ns += bus_ns
            channel_stats.contention_time_ns += wait
            channel_stats.transfers += 1
            channel_stats.bytes_moved += transaction.total_bytes
            complete = bus_end + cell_ns if transaction.has_program else bus_end
        if complete < now_ns:
            raise ValueError("occupation interval must not be negative")
        transaction.issued_at_ns = now_ns
        transaction.bus_started_at_ns = bus_start
        transaction.bus_wait_ns = wait
        self.active[chip_key] = transaction
        self.total_transactions += 1
        if complete > chip.busy_until:
            chip.busy_until = complete
        stats.busy_time_ns += complete - now_ns
        stats.last_busy_start_ns = now_ns
        stats.transactions += 1
        stats.requests_served += len(transaction.requests)
        stats.cell_time_ns += cell_ns
        stats.bus_time_ns += bus_ns
        stats.bus_wait_ns += wait
        stats.die_active_time_ns += transaction.die_active_time_ns
        return complete
