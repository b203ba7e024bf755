"""Flash transactions and the transaction builder.

A *flash transaction* (paper Section 2.2) is the series of commands, data
movements and cell activities a flash controller executes on one chip for a
group of memory requests.  The degree of flash-level parallelism (FLP) of the
transaction depends on how the grouped requests are spread over the chip's
dies and planes:

* requests on different dies can be *die interleaved*;
* requests on different planes of the same die can be served by a single
  *multiplane* (plane-sharing) operation.  Real NAND parts also require
  plane-shared pages to sit at the same page offset; like the paper's FARO
  examples, the model assumes the FTL allocates pages so that this can be
  met, and lets any one request per plane share the operation;
* both can be combined, yielding the highest FLP (PAL3).

The :class:`TransactionBuilder` implements the controller-side coalescing.
:meth:`TransactionBuilder.from_queue` walks a chip's commit queue once: it
takes the largest group of requests that can legally form one transaction,
keeps the rest in order, and prices the group (bus time, cell time, die
activity, bytes, dies touched, FLP class) in the same walk.
:meth:`TransactionBuilder.from_gc_job` builds the chip-occupying transaction
of a garbage-collection pass.  The builder is shared by every scheduler
evaluated in the paper - as the paper notes (Figure 8 caption), transaction
composition is not part of the scheduling contribution; what differs between
schedulers is *which requests are present* at the decision instant.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.flash.commands import (
    FlashOp,
    ParallelismClass,
    TransactionKind,
    classify_parallelism,
    kind_for_parallelism,
)
from repro.flash.geometry import PhysicalPageAddress, SSDGeometry
from repro.flash.request import MemoryRequest
from repro.flash.timing import FlashTiming

if TYPE_CHECKING:
    from repro.ftl.garbage_collector import GCJob

_transaction_ids = itertools.count()


@dataclass(slots=True)
class FlashTransaction:
    """A group of memory requests executed as one unit on a single chip."""

    chip_key: tuple
    requests: List[MemoryRequest]
    kind: TransactionKind
    parallelism: ParallelismClass
    transaction_id: int = field(default_factory=_transaction_ids.__next__)

    # Price, filled by the builder.
    bus_time_ns: int = 0
    cell_time_ns: int = 0
    #: Sum of per-die cell activity (intra-chip idleness accounting).
    die_active_time_ns: int = 0
    #: True when the transaction carries at least one PROGRAM request: its
    #: bus phase then precedes the cell phase.
    has_program: bool = False
    #: Distinct dies touched.
    num_dies: int = 0
    #: Payload moved over the bus.
    total_bytes: int = 0
    is_gc: bool = False

    # Timing, filled by the controller when the transaction is issued.
    issued_at_ns: Optional[int] = None
    bus_started_at_ns: Optional[int] = None
    bus_wait_ns: int = 0

    def __post_init__(self) -> None:
        if not self.requests:
            raise ValueError("a transaction must contain at least one memory request")
        channel, chip = self.chip_key
        for req in self.requests:
            address = req.address
            if address is None:
                raise ValueError("memory request has not been translated yet")
            if address.channel != channel or address.chip != chip:
                chips = {req.address.chip_key for req in self.requests}
                if len(chips) != 1:
                    raise ValueError(f"a transaction must target a single chip, got {chips}")
                raise ValueError("transaction chip_key does not match its requests")

    @property
    def num_requests(self) -> int:
        """Number of memory requests coalesced into this transaction."""
        return len(self.requests)


class TransactionBuilder:
    """Coalesces committed memory requests into legal, priced flash transactions."""

    def __init__(self, geometry: SSDGeometry, timing: FlashTiming) -> None:
        self.geometry = geometry
        self.timing = timing
        # Every taken request occupies its own plane register, so a
        # transaction holds at most one request per plane of the chip.
        self._bound = geometry.dies_per_chip * geometry.planes_per_die
        #: Per-page program latencies and per-size bus times, memoized: both
        #: are pure functions of immutable timing parameters, and the builder
        #: prices every transaction of the run.
        self._program_ns: Dict[int, int] = {}
        self._bus_ns: Dict[int, int] = {}
        #: Kind and FLP class of a one-request transaction (one die, one plane).
        self._single_parallelism = classify_parallelism(1, 1)
        self._single_kind = kind_for_parallelism(self._single_parallelism)

    def from_queue(
        self, chip_key: tuple, queue: Sequence[MemoryRequest]
    ) -> Optional[Tuple[FlashTransaction, List[MemoryRequest]]]:
        """Take the next transaction off a chip's commit queue.

        One walk over ``queue`` (the scheduler already ordered it according
        to its policy) greedily takes a request if adding it keeps the
        transaction legal:

        * all requests must be the same operation kind (read vs program),
        * at most one request per plane (a plane register can hold one page).

        The same walk prices what it takes.  Cell occupancy is the slowest
        per-die operation plus stale-request penalties: die cell activities
        overlap (die interleaving) and the planes of one die fire together
        under the multiplane command.  Returns ``(transaction, remaining)``
        with the untaken requests in their original order, or ``None`` when
        nothing was taken.
        """
        timing = self.timing
        read_ns = timing.read_ns
        program_ns = self._program_ns
        bus_per_size = self._bus_ns
        if len(queue) == 1:
            # Most queues hold one request: price it without the walk.
            req = queue[0]
            size = req.size_bytes
            try:
                per_request = bus_per_size[size]
            except KeyError:
                per_request = bus_per_size[size] = timing.request_bus_time_ns(size)
            if req.op is FlashOp.READ:
                latency = read_ns
                has_program = False
            else:
                has_program = True
                page = req.address.page
                try:
                    latency = program_ns[page]
                except KeyError:
                    latency = program_ns[page] = timing.program_latency_ns(page)
            transaction = FlashTransaction(
                chip_key=chip_key,
                requests=[req],
                kind=self._single_kind,
                parallelism=self._single_parallelism,
                bus_time_ns=timing.transaction_overhead_ns + per_request,
                cell_time_ns=latency + req.penalty_ns,
                die_active_time_ns=latency,
                has_program=has_program,
                num_dies=1,
                total_bytes=size,
            )
            return transaction, []
        bound = self._bound
        planes_per_die = self.geometry.planes_per_die
        taken: List[MemoryRequest] = []
        remaining: List[MemoryRequest] = []
        take = taken.append
        keep = remaining.append
        used_planes: set = set()
        die_latency: Dict[int, int] = {}
        die_planes: Dict[int, int] = {}
        first_op: Optional[FlashOp] = None
        count = bus_ns = penalty_ns = total_bytes = 0
        has_program = False
        for index, req in enumerate(queue):
            if count >= bound:
                remaining += queue[index:]
                break
            op = req.op
            if first_op is None:
                first_op = op
            elif op is not first_op:
                keep(req)
                continue
            address = req.address
            die = address.die
            plane = die * planes_per_die + address.plane
            if plane in used_planes:
                keep(req)
                continue
            take(req)
            count += 1
            used_planes.add(plane)
            if op is FlashOp.READ:
                latency = read_ns
            else:
                has_program = True
                page = address.page
                try:
                    latency = program_ns[page]
                except KeyError:
                    latency = program_ns[page] = timing.program_latency_ns(page)
            # Latencies are positive, so the first request of a die sets it.
            if die in die_latency:
                if latency > die_latency[die]:
                    die_latency[die] = latency
                die_planes[die] += 1
            else:
                die_latency[die] = latency
                die_planes[die] = 1
            size = req.size_bytes
            try:
                per_request = bus_per_size[size]
            except KeyError:
                per_request = bus_per_size[size] = timing.request_bus_time_ns(size)
            bus_ns += per_request
            total_bytes += size
            penalty_ns += req.penalty_ns
        if not count:
            return None
        num_dies = len(die_latency)
        parallelism = classify_parallelism(num_dies, max(die_planes.values()))
        transaction = FlashTransaction(
            chip_key=chip_key,
            requests=taken,
            kind=kind_for_parallelism(parallelism),
            parallelism=parallelism,
            bus_time_ns=timing.transaction_overhead_ns + bus_ns,
            cell_time_ns=max(die_latency.values()) + penalty_ns,
            die_active_time_ns=sum(die_latency.values()),
            has_program=has_program,
            num_dies=num_dies,
            total_bytes=total_bytes,
        )
        return transaction, remaining

    def from_gc_job(self, job: "GCJob") -> FlashTransaction:
        """Wrap one garbage-collection pass into a chip-occupying transaction.

        The pass (page reads, programs and the block erase) holds the chip
        for ``job.duration_ns`` of cell time with no channel traffic.  Only
        the erase is recorded as die activity, so intra-chip idleness counts
        the copyback time as idle die time.
        """
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
        )
        return FlashTransaction(
            chip_key=job.chip_key,
            requests=[placeholder],
            kind=TransactionKind.ERASE,
            parallelism=ParallelismClass.NON_PAL,
            cell_time_ns=job.duration_ns,
            die_active_time_ns=self.timing.erase_ns,
            num_dies=1,
            is_gc=True,
        )
