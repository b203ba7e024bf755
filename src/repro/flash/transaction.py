"""Flash transactions and the transaction builder.

A *flash transaction* (paper Section 2.2) is the series of commands, data
movements and cell activities a flash controller executes on one chip for a
group of memory requests.  The degree of flash-level parallelism (FLP) of the
transaction depends on how the grouped requests are spread over the chip's
dies and planes:

* requests on different dies can be *die interleaved*;
* requests on different planes of the same die can be served by a single
  *multiplane* (plane-sharing) operation, subject to the plane-address
  constraint of real NAND parts;
* both can be combined, yielding the highest FLP (PAL3).

The :class:`TransactionBuilder` implements the controller-side coalescing:
given the memory requests currently committed for a chip, it selects the
largest group that can legally form one transaction.  The builder is shared
by every scheduler evaluated in the paper - as the paper notes (Figure 8
caption), transaction composition is not part of the scheduling contribution;
what differs between schedulers is *which requests are present* at the
decision instant.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.flash.commands import (
    FlashOp,
    ParallelismClass,
    TransactionKind,
    classify_parallelism,
    kind_for_parallelism,
)
from repro.flash.geometry import SSDGeometry
from repro.flash.request import MemoryRequest
from repro.flash.timing import FlashTiming

_transaction_ids = itertools.count()


@dataclass(slots=True)
class FlashTransaction:
    """A group of memory requests executed as one unit on a single chip."""

    chip_key: tuple
    requests: List[MemoryRequest]
    kind: TransactionKind
    parallelism: ParallelismClass
    transaction_id: int = field(default_factory=lambda: next(_transaction_ids))

    # Timing, filled by the controller when the transaction is executed.
    bus_time_ns: int = 0
    cell_time_ns: int = 0
    #: Sum of per-die cell activity (intra-chip idleness accounting), filled
    #: by the builder as a by-product of pricing the cell phase.  ``None``
    #: for transactions assembled outside the builder (GC placeholders); the
    #: controller computes it on demand for those.
    die_active_time_ns: Optional[int] = None
    #: True when the transaction carries at least one PROGRAM request,
    #: recorded by the builder so phase scheduling does not re-scan the
    #: requests.  ``None`` for transactions assembled outside the builder.
    has_program: Optional[bool] = None
    issued_at_ns: Optional[int] = None
    bus_started_at_ns: Optional[int] = None
    completed_at_ns: Optional[int] = None
    bus_wait_ns: int = 0
    is_gc: bool = False

    def __post_init__(self) -> None:
        if not self.requests:
            raise ValueError("a transaction must contain at least one memory request")
        channel, chip = self.chip_key
        for req in self.requests:
            address = req.address
            if address is None:
                raise ValueError("memory request has not been translated yet")
            if address.channel != channel or address.chip != chip:
                chips = {req.chip_key for req in self.requests}
                if len(chips) != 1:
                    raise ValueError(f"a transaction must target a single chip, got {chips}")
                raise ValueError("transaction chip_key does not match its requests")

    @property
    def num_requests(self) -> int:
        """Number of memory requests coalesced into this transaction."""
        return len(self.requests)

    @property
    def dies(self) -> List[int]:
        """Sorted list of distinct die indices the transaction touches."""
        return sorted({req.address.die for req in self.requests})

    @property
    def planes_by_die(self) -> Dict[int, List[int]]:
        """Mapping of die index to the sorted list of planes used in that die."""
        planes: Dict[int, set] = {}
        for req in self.requests:
            planes.setdefault(req.address.die, set()).add(req.address.plane)
        return {die: sorted(vals) for die, vals in planes.items()}

    @property
    def io_ids(self) -> List[int]:
        """Sorted list of distinct host I/O requests represented."""
        return sorted({req.io_id for req in self.requests})

    @property
    def total_bytes(self) -> int:
        """Total payload moved over the bus by this transaction."""
        return sum(req.size_bytes for req in self.requests)

    @property
    def service_time_ns(self) -> int:
        """Bus plus cell occupancy of the transaction (excludes bus waiting)."""
        return self.bus_time_ns + self.cell_time_ns


@dataclass(frozen=True)
class TransactionConstraints:
    """Configurable legality rules for coalescing requests into a transaction.

    ``strict_multiplane`` enforces the real-NAND restriction that plane-shared
    pages must sit at the same page offset (and, when
    ``same_block_offset_for_multiplane`` is set, the same block offset) in
    every plane.  The paper's FARO examples assume the FTL allocates pages so
    that this constraint can be met, therefore the default is the relaxed
    model; the strict model is available for ablation studies.
    """

    max_requests_per_transaction: int = 64
    strict_multiplane: bool = False
    same_block_offset_for_multiplane: bool = False
    single_operation_per_transaction: bool = True


class TransactionBuilder:
    """Coalesces committed memory requests into legal flash transactions."""

    def __init__(
        self,
        geometry: SSDGeometry,
        timing: FlashTiming,
        constraints: Optional[TransactionConstraints] = None,
    ) -> None:
        self.geometry = geometry
        self.timing = timing
        self.constraints = constraints or TransactionConstraints()
        #: Per-page program latencies and per-size bus times, memoized: both
        #: are pure functions of immutable timing parameters, and the builder
        #: prices every transaction of the run.
        self._program_ns: Dict[int, int] = {}
        self._bus_ns: Dict[int, int] = {}
        self._planes_per_chip = geometry.dies_per_chip * geometry.planes_per_die

    # ------------------------------------------------------------------
    # Selection
    # ------------------------------------------------------------------
    def select(self, pending: Sequence[MemoryRequest]) -> List[MemoryRequest]:
        """Pick the subset of ``pending`` that the next transaction will carry.

        The selection greedily walks the pending list in order (the scheduler
        already ordered it according to its policy) and accepts a request if
        adding it keeps the transaction legal:

        * all requests must be the same operation kind (read vs program) when
          ``single_operation_per_transaction`` is set,
        * at most one request per plane (a plane register can hold one page),
        * under strict multiplane rules, plane-shared requests must share the
          page offset (and optionally block offset).
        """
        if not pending:
            return []
        selected: List[MemoryRequest] = []
        used_planes: set = set()
        op: Optional[FlashOp] = None
        limit = self.constraints.max_requests_per_transaction
        # Once every plane register of the chip is occupied no further
        # request can join the transaction, whatever its operation - stop
        # scanning instead of walking the rest of an over-committed queue.
        max_planes = self._planes_per_chip
        for req in pending:
            if len(selected) >= limit or len(used_planes) >= max_planes:
                break
            if req.address is None:
                continue
            if op is None:
                op = req.op
            elif self.constraints.single_operation_per_transaction and req.op is not op:
                continue
            plane_key = (req.address.die, req.address.plane)
            if plane_key in used_planes:
                continue
            if self.constraints.strict_multiplane and not self._multiplane_compatible(
                selected, req
            ):
                continue
            selected.append(req)
            used_planes.add(plane_key)
        return selected

    def select_partition(
        self, pending: Sequence[MemoryRequest]
    ) -> "tuple[List[MemoryRequest], List[MemoryRequest]]":
        """:meth:`select`, but also return the rejected remainder.

        One walk produces ``(selected, remaining)`` with ``remaining`` in
        original order - the controller previously re-derived it by hashing
        the selected ids and filtering the queue a second time, which showed
        up on the per-activation hot path.
        """
        if not pending:
            return [], []
        selected: List[MemoryRequest] = []
        remaining: List[MemoryRequest] = []
        keep = remaining.append
        take = selected.append
        used_planes: set = set()
        op: Optional[FlashOp] = None
        taken = 0
        limit = self.constraints.max_requests_per_transaction
        max_planes = self._planes_per_chip
        single_op = self.constraints.single_operation_per_transaction
        strict = self.constraints.strict_multiplane
        for index, req in enumerate(pending):
            if taken >= limit or len(used_planes) >= max_planes:
                remaining.extend(pending[index:])
                break
            address = req.address
            if address is None:
                keep(req)
                continue
            if op is None:
                op = req.op
            elif single_op and req.op is not op:
                keep(req)
                continue
            plane_key = (address.die, address.plane)
            if plane_key in used_planes:
                keep(req)
                continue
            if strict and not self._multiplane_compatible(selected, req):
                keep(req)
                continue
            take(req)
            taken += 1
            used_planes.add(plane_key)
        return selected, remaining

    def _multiplane_compatible(
        self, selected: Sequence[MemoryRequest], candidate: MemoryRequest
    ) -> bool:
        """Check the strict plane-sharing address constraint."""
        for req in selected:
            if req.address.die != candidate.address.die:
                continue
            if req.address.page != candidate.address.page:
                return False
            if (
                self.constraints.same_block_offset_for_multiplane
                and req.address.block != candidate.address.block
            ):
                return False
        return True

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def build(self, chip_key: tuple, requests: Sequence[MemoryRequest]) -> FlashTransaction:
        """Build a transaction from already-selected requests and price it.

        Classification (dies/planes touched), bus pricing, cell pricing and
        die-activity accounting are all derived from one walk over the
        requests - the hot path builds one transaction per chip activation,
        and the previous five separate passes were a measurable cost.
        """
        requests = list(requests)
        if not requests:
            raise ValueError("cannot build an empty transaction")
        timing = self.timing
        read_ns = timing.read_ns
        erase_ns = timing.erase_ns
        program_ns = self._program_ns
        bus_per_size = self._bus_ns
        planes_per_die: Dict[int, set] = {}
        per_die_latency: Dict[int, int] = {}
        bus_ns = 0
        penalty_ns = 0
        all_erase = True
        all_gc = True
        has_program = False
        for req in requests:
            address = req.address
            die = address.die
            op = req.op
            planes = planes_per_die.get(die)
            if planes is None:
                planes_per_die[die] = {address.plane}
            else:
                planes.add(address.plane)
            # Cell occupancy: die cell activities overlap (die interleaving)
            # and the planes of one die fire together under the multiplane
            # command, so only the slowest per-die operation matters.
            moves_data = True
            if op is FlashOp.READ:
                latency = read_ns
                all_erase = False
            elif op is FlashOp.PROGRAM:
                has_program = True
                all_erase = False
                page = address.page
                latency = program_ns.get(page)
                if latency is None:
                    latency = program_ns[page] = timing.program_latency_ns(page)
            else:
                latency = erase_ns
                moves_data = op.moves_data
            if latency > per_die_latency.get(die, 0):
                per_die_latency[die] = latency
            if moves_data:
                size = req.size_bytes
                per_request = bus_per_size.get(size)
                if per_request is None:
                    per_request = bus_per_size[size] = timing.request_bus_time_ns(size)
                bus_ns += per_request
            penalty_ns += req.penalty_ns
            if not req.is_gc:
                all_gc = False
        max_planes = max(len(planes) for planes in planes_per_die.values())
        parallelism = classify_parallelism(len(planes_per_die), max_planes)
        kind = TransactionKind.ERASE if all_erase else kind_for_parallelism(parallelism)
        transaction = FlashTransaction(
            chip_key=chip_key,
            requests=requests,
            kind=kind,
            parallelism=parallelism,
        )
        transaction.bus_time_ns = timing.transaction_overhead_ns + bus_ns
        transaction.cell_time_ns = max(per_die_latency.values()) + penalty_ns
        transaction.die_active_time_ns = sum(per_die_latency.values())
        transaction.has_program = has_program
        transaction.is_gc = all_gc
        return transaction

    def build_from_pending(
        self, chip_key: tuple, pending: Sequence[MemoryRequest]
    ) -> Optional[FlashTransaction]:
        """Select a legal subset of ``pending`` and build a transaction from it."""
        selected = self.select(pending)
        if not selected:
            return None
        return self.build(chip_key, selected)

