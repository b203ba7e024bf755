"""Tests for flash transactions and the transaction builder.

``TransactionBuilder.from_queue`` selects, partitions and prices a commit
queue in one walk.  :func:`reference_select` and :func:`reference_price`
below are the straightforward two-pass version it replaces - a greedy
selection walk, then pricing from scratch over the selected requests with
the timing model's own methods - and the hypothesis test holds the one pass
to them on generated queues over generated chip shapes.
"""

from typing import Dict, List, Optional

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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
from repro.flash.transaction import FlashTransaction, TransactionBuilder
from repro.ftl.garbage_collector import GCJob


def make_request(io_id=1, op=FlashOp.READ, die=0, plane=0, block=0, page=0, chip=(0, 0), penalty=0):
    channel, chip_idx = chip
    request = MemoryRequest(
        io_id=io_id,
        op=op,
        lpn=page,
        size_bytes=2048,
        address=PhysicalPageAddress(
            channel=channel, chip=chip_idx, die=die, plane=plane, block=block, page=page
        ),
    )
    request.penalty_ns = penalty
    return request


def take(builder, pending):
    """Requests the one pass takes off ``pending`` (empty when none)."""
    built = builder.from_queue((0, 0), pending)
    return [] if built is None else built[0].requests


def build(builder, requests):
    """Transaction of a queue the one pass takes whole."""
    transaction, remaining = builder.from_queue((0, 0), requests)
    assert remaining == []
    return transaction


def make_gc_job(duration_ns=5_000_000):
    return GCJob(
        chip_key=(0, 0),
        die=1,
        plane=0,
        victim_block=3,
        migrated_lpns=[7, 9],
        moves=[],
        duration_ns=duration_ns,
    )


# ----------------------------------------------------------------------
# Reference: the greedy selection walk and from-scratch pricing
# ----------------------------------------------------------------------
def reference_select(pending: List[MemoryRequest], planes_per_chip: int) -> List[MemoryRequest]:
    selected: List[MemoryRequest] = []
    used_planes: set = set()
    op: Optional[FlashOp] = None
    for req in pending:
        if len(used_planes) >= planes_per_chip:
            break
        if op is None:
            op = req.op
        elif req.op is not op:
            continue
        plane_key = (req.address.die, req.address.plane)
        if plane_key in used_planes:
            continue
        selected.append(req)
        used_planes.add(plane_key)
    return selected


def reference_price(requests: List[MemoryRequest], timing: FlashTiming) -> dict:
    per_die: Dict[int, int] = {}
    planes: Dict[int, set] = {}
    for req in requests:
        if req.op is FlashOp.READ:
            latency = timing.read_ns
        else:
            latency = timing.program_latency_ns(req.address.page)
        per_die[req.address.die] = max(per_die.get(req.address.die, 0), latency)
        planes.setdefault(req.address.die, set()).add(req.address.plane)
    parallelism = classify_parallelism(len(planes), max(len(p) for p in planes.values()))
    return {
        "bus_time_ns": timing.transaction_overhead_ns
        + sum(timing.request_bus_time_ns(req.size_bytes) for req in requests),
        "cell_time_ns": max(per_die.values()) + sum(req.penalty_ns for req in requests),
        "die_active_time_ns": sum(per_die.values()),
        "has_program": any(req.op is FlashOp.PROGRAM for req in requests),
        "num_dies": len(per_die),
        "total_bytes": sum(req.size_bytes for req in requests),
        "parallelism": parallelism,
        "kind": kind_for_parallelism(parallelism),
    }


queue_entries = st.tuples(
    st.sampled_from([FlashOp.READ, FlashOp.PROGRAM]),
    st.integers(min_value=0, max_value=2),  # die (wrapped into the geometry)
    st.integers(min_value=0, max_value=1),  # plane (wrapped into the geometry)
    st.integers(min_value=0, max_value=1),  # block
    st.integers(min_value=0, max_value=5),  # page
    st.sampled_from([0, 0, 0, 7_000, 125_000]),  # stale penalty
    st.sampled_from([2048, 2048, 4096]),  # payload size
)


def check_one_pass(dies, planes, entries):
    """``from_queue`` on the generated queue equals the reference."""
    geometry = SSDGeometry(
        num_channels=1,
        chips_per_channel=1,
        dies_per_chip=dies,
        planes_per_die=planes,
        blocks_per_plane=2,
        pages_per_block=8,
    )
    timing = FlashTiming()
    pending = []
    for index, (op, die, plane, block, page, penalty, size) in enumerate(entries):
        request = MemoryRequest(
            io_id=index,
            op=op,
            lpn=index,
            size_bytes=size,
            address=PhysicalPageAddress(0, 0, die % dies, plane % planes, block, page),
        )
        request.penalty_ns = penalty
        pending.append(request)
    queue = list(pending)

    transaction, remaining = TransactionBuilder(geometry, timing).from_queue((0, 0), queue)

    expected = reference_select(pending, dies * planes)
    assert transaction.requests == expected
    assert queue == pending  # the commit queue itself is left alone
    taken = {id(req) for req in expected}
    assert remaining == [req for req in pending if id(req) not in taken]
    price = reference_price(expected, timing)
    assert {name: getattr(transaction, name) for name in price} == price


class TestOnePassMatchesReference:
    @given(
        dies=st.integers(min_value=1, max_value=3),
        planes=st.integers(min_value=1, max_value=2),
        entries=st.lists(queue_entries, min_size=1, max_size=12),
    )
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_same_take_remainder_and_price(self, dies, planes, entries):
        check_one_pass(dies, planes, entries)

    @given(
        dies=st.integers(min_value=1, max_value=3),
        planes=st.integers(min_value=1, max_value=2),
        entry=queue_entries,
    )
    @settings(max_examples=100, deadline=None)
    def test_one_request_queue_matches_reference(self, dies, planes, entry):
        # A one-request queue is priced without the walk.
        check_one_pass(dies, planes, [entry])


# ----------------------------------------------------------------------
# Selection
# ----------------------------------------------------------------------
class TestSelection:
    def test_selects_all_distinct_planes(self, builder):
        pending = [make_request(die=d, plane=p) for d in range(2) for p in range(2)]
        selected = take(builder, pending)
        assert len(selected) == 4

    def test_rejects_second_request_on_same_plane(self, builder):
        pending = [make_request(die=0, plane=0, page=0), make_request(die=0, plane=0, page=1)]
        transaction, remaining = builder.from_queue((0, 0), pending)
        assert transaction.requests == pending[:1]
        assert remaining == pending[1:]

    def test_skips_different_operation(self, builder):
        pending = [make_request(op=FlashOp.READ, die=0), make_request(op=FlashOp.PROGRAM, die=1)]
        selected = take(builder, pending)
        assert len(selected) == 1
        assert selected[0].op is FlashOp.READ

    def test_respects_max_requests(self, small_geometry, fast_timing):
        # The cap is the chip's plane count: two on a one-die, two-plane
        # chip, so the walk stops there even with untaken planes queued.
        builder = TransactionBuilder(small_geometry.scaled(dies_per_chip=1), fast_timing)
        pending = [make_request(die=d, plane=p) for d in range(2) for p in range(2)]
        transaction, remaining = builder.from_queue((0, 0), pending)
        assert transaction.requests == pending[:2]
        assert remaining == pending[2:]

    def test_stops_once_every_plane_is_taken(self, builder):
        pending = [make_request(die=d, plane=p) for d in range(2) for p in range(2)]
        pending += [make_request(die=0, plane=0, page=3), make_request(op=FlashOp.PROGRAM)]
        transaction, remaining = builder.from_queue((0, 0), pending)
        assert transaction.requests == pending[:4]
        assert remaining == pending[4:]

    def test_empty_pending(self, builder):
        assert builder.from_queue((0, 0), []) is None


class TestBuild:
    def test_single_request_is_non_pal_legacy(self, builder):
        transaction = build(builder, [make_request()])
        assert transaction.parallelism is ParallelismClass.NON_PAL
        assert transaction.kind is TransactionKind.LEGACY

    def test_two_planes_same_die_is_pal1(self, builder):
        requests = [make_request(die=0, plane=0), make_request(die=0, plane=1)]
        transaction = build(builder, requests)
        assert transaction.parallelism is ParallelismClass.PAL1
        assert transaction.kind is TransactionKind.MULTIPLANE

    def test_two_dies_one_plane_each_is_pal2(self, builder):
        requests = [make_request(die=0, plane=0), make_request(die=1, plane=0)]
        transaction = build(builder, requests)
        assert transaction.parallelism is ParallelismClass.PAL2

    def test_full_footprint_is_pal3(self, builder):
        requests = [make_request(die=d, plane=p) for d in range(2) for p in range(2)]
        transaction = build(builder, requests)
        assert transaction.parallelism is ParallelismClass.PAL3
        assert transaction.kind is TransactionKind.INTERLEAVE_MULTIPLANE

    def test_erase_kind_for_gc_requests(self, builder):
        transaction = builder.from_gc_job(make_gc_job())
        assert transaction.kind is TransactionKind.ERASE
        assert transaction.is_gc


class TestTiming:
    def test_bus_time_sums_per_request(self, builder, fast_timing):
        requests = [make_request(die=0, plane=0), make_request(die=0, plane=1)]
        transaction = build(builder, requests)
        expected = fast_timing.transaction_overhead_ns + 2 * fast_timing.request_bus_time_ns(2048)
        assert transaction.bus_time_ns == expected

    def test_cell_time_is_max_over_dies_for_reads(self, builder, fast_timing):
        requests = [make_request(die=0), make_request(die=1)]
        transaction = build(builder, requests)
        assert transaction.cell_time_ns == fast_timing.read_ns

    def test_cell_time_includes_penalties(self, builder, fast_timing):
        requests = [make_request(penalty=5000)]
        transaction = build(builder, requests)
        assert transaction.cell_time_ns == fast_timing.read_ns + 5000

    def test_erase_has_no_bus_payload(self, builder):
        transaction = builder.from_gc_job(make_gc_job())
        assert transaction.bus_time_ns == 0
        assert transaction.total_bytes == 0


class TestGCTransaction:
    def test_gc_accounting_is_pinned(self, builder, fast_timing):
        # A GC pass holds the chip for the whole job (page reads, programs
        # and the erase) but records only the erase as die activity, so
        # intra-chip idleness counts copyback time as idle die time.  The
        # values are pinned until a declared behaviour change moves them.
        job = make_gc_job(duration_ns=5_000_000)
        transaction = builder.from_gc_job(job)
        assert transaction.chip_key == job.chip_key
        assert transaction.cell_time_ns == job.duration_ns
        assert transaction.bus_time_ns == 0
        assert transaction.die_active_time_ns == fast_timing.erase_ns
        assert transaction.die_active_time_ns != job.duration_ns
        assert transaction.num_requests == 1
        assert transaction.num_dies == 1
        assert transaction.parallelism is ParallelismClass.NON_PAL
        assert transaction.kind is TransactionKind.ERASE
        assert transaction.is_gc
        (placeholder,) = transaction.requests
        assert placeholder.op is FlashOp.ERASE
        address = placeholder.address
        assert (address.die, address.plane, address.block) == (job.die, job.plane, job.victim_block)


class TestTransactionInvariants:
    def test_rejects_multi_chip_requests(self):
        requests = [make_request(chip=(0, 0)), make_request(chip=(0, 1))]
        with pytest.raises(ValueError):
            FlashTransaction(
                chip_key=(0, 0),
                requests=requests,
                kind=TransactionKind.LEGACY,
                parallelism=ParallelismClass.NON_PAL,
            )

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            FlashTransaction(
                chip_key=(0, 0),
                requests=[],
                kind=TransactionKind.LEGACY,
                parallelism=ParallelismClass.NON_PAL,
            )

    def test_rejects_mismatched_chip_key(self):
        with pytest.raises(ValueError):
            FlashTransaction(
                chip_key=(1, 1),
                requests=[make_request(chip=(0, 0))],
                kind=TransactionKind.LEGACY,
                parallelism=ParallelismClass.NON_PAL,
            )

    def test_properties(self, builder):
        requests = [
            make_request(io_id=1, die=0, plane=0),
            make_request(io_id=2, die=1, plane=1),
        ]
        transaction = build(builder, requests)
        assert transaction.num_requests == 2
        assert transaction.num_dies == 2
        assert transaction.total_bytes == 4096
        assert not transaction.has_program
