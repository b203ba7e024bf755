"""Property-based tests (hypothesis) for core data structures and invariants."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.flash.commands import FlashOp, ParallelismClass
from repro.flash.geometry import SSDGeometry
from repro.flash.geometry import PhysicalPageAddress
from repro.flash.request import MemoryRequest
from repro.flash.timing import FlashTiming
from repro.flash.transaction import TransactionBuilder
from repro.nvmhc.queue import DeviceQueue
from repro.sim.config import SimulationConfig
from repro.sim.ssd import SSDSimulator
from repro.workloads.request import IOKind, IORequest


geometries = st.builds(
    SSDGeometry,
    num_channels=st.integers(min_value=1, max_value=4),
    chips_per_channel=st.integers(min_value=1, max_value=4),
    dies_per_chip=st.integers(min_value=1, max_value=4),
    planes_per_die=st.integers(min_value=1, max_value=4),
    blocks_per_plane=st.integers(min_value=1, max_value=8),
    pages_per_block=st.integers(min_value=1, max_value=16),
    page_size_bytes=st.sampled_from([512, 2048, 4096]),
)


class TestGeometryProperties:
    @given(geometry=geometries, data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_ppn_round_trip(self, geometry, data):
        ppn = data.draw(st.integers(min_value=0, max_value=geometry.total_pages - 1))
        address = geometry.ppn_to_address(ppn)
        assert geometry.address_to_ppn(address) == ppn

    @given(geometry=geometries)
    @settings(max_examples=40, deadline=None)
    def test_chip_enumeration_is_complete(self, geometry):
        keys = list(geometry.iter_chip_keys())
        assert len(keys) == geometry.num_chips
        assert len(set(keys)) == geometry.num_chips
        for channel, chip in keys:
            assert 0 <= channel < geometry.num_channels
            assert 0 <= chip < geometry.chips_per_channel

    @given(geometry=geometries, size=st.integers(min_value=1, max_value=1 << 22))
    @settings(max_examples=60, deadline=None)
    def test_bytes_to_pages_covers_size(self, geometry, size):
        pages = geometry.bytes_to_pages(size)
        assert pages * geometry.page_size_bytes >= size
        assert (pages - 1) * geometry.page_size_bytes < size


class TestTimingProperties:
    @given(page=st.integers(min_value=0, max_value=4096))
    @settings(max_examples=80, deadline=None)
    def test_program_latency_within_bounds(self, page):
        timing = FlashTiming()
        latency = timing.program_latency_ns(page)
        assert timing.program_fast_ns <= latency <= timing.program_slow_ns

    @given(num_bytes=st.integers(min_value=0, max_value=1 << 20))
    @settings(max_examples=60, deadline=None)
    def test_transfer_latency_monotone(self, num_bytes):
        timing = FlashTiming()
        assert timing.transfer_latency_ns(num_bytes + 1024) >= timing.transfer_latency_ns(
            num_bytes
        )


class TestTransactionBuilderProperties:
    @given(
        footprint=st.lists(
            st.tuples(st.integers(min_value=0, max_value=1), st.integers(min_value=0, max_value=1)),
            min_size=1,
            max_size=12,
        ),
        is_write=st.booleans(),
    )
    @settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_selection_never_reuses_a_plane(self, footprint, is_write):
        geometry = SSDGeometry(
            num_channels=1,
            chips_per_channel=1,
            dies_per_chip=2,
            planes_per_die=2,
            blocks_per_plane=4,
            pages_per_block=8,
        )
        builder = TransactionBuilder(geometry, FlashTiming())
        op = FlashOp.PROGRAM if is_write else FlashOp.READ
        pending = [
            MemoryRequest(
                io_id=index,
                op=op,
                lpn=index,
                size_bytes=2048,
                address=PhysicalPageAddress(0, 0, die, plane, 0, index % 8),
            )
            for index, (die, plane) in enumerate(footprint)
        ]
        built = builder.from_queue((0, 0), pending)
        assert built is not None
        transaction, _ = built
        plane_targets = [(req.address.die, req.address.plane) for req in transaction.requests]
        assert len(plane_targets) == len(set(plane_targets))
        # Classification is consistent with the footprint actually selected.
        dies = {die for die, _ in plane_targets}
        max_planes = max(
            sum(1 for d, _ in plane_targets if d == die) for die in dies
        )
        expected_high = len(dies) > 1 and max_planes > 1
        assert (transaction.parallelism is ParallelismClass.PAL3) == expected_high

    @given(
        num_requests=st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=30, deadline=None)
    def test_cell_time_at_least_slowest_request(self, num_requests):
        geometry = SSDGeometry(
            num_channels=1, chips_per_channel=1, dies_per_chip=2, planes_per_die=2
        )
        timing = FlashTiming()
        builder = TransactionBuilder(geometry, timing)
        pending = [
            MemoryRequest(
                io_id=i,
                op=FlashOp.PROGRAM,
                lpn=i,
                size_bytes=2048,
                address=PhysicalPageAddress(0, 0, i % 2, (i // 2) % 2, 0, i),
            )
            for i in range(num_requests)
        ]
        transaction, _ = builder.from_queue((0, 0), pending)
        slowest = max(
            timing.program_latency_ns(req.address.page) for req in transaction.requests
        )
        assert transaction.cell_time_ns >= slowest


class TestQueueProperties:
    @given(
        depth=st.integers(min_value=1, max_value=8),
        arrivals=st.integers(min_value=1, max_value=24),
    )
    @settings(max_examples=40, deadline=None)
    def test_occupancy_never_exceeds_depth(self, depth, arrivals):
        queue = DeviceQueue(depth=depth)
        admitted = []
        for index in range(arrivals):
            io = IORequest(kind=IOKind.READ, offset_bytes=0, size_bytes=2048, arrival_ns=index)
            tag = queue.submit(io, index)
            assert queue.occupancy <= depth
            if tag is not None:
                admitted.append(tag)
        # Retiring everything admits the backlog without ever exceeding depth.
        while admitted:
            tag = admitted.pop(0)
            queue.retire(tag.io_id)
            admitted.extend(queue.admit_from_backlog(100))
            assert queue.occupancy <= depth
        assert queue.backlog_size == 0


class TestSimulatorProperties:
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        num_requests=st.integers(min_value=1, max_value=12),
        size_kb=st.sampled_from([2, 4, 16, 64]),
        read_fraction=st.sampled_from([0.0, 0.5, 1.0]),
        scheduler=st.sampled_from(["VAS", "PAS", "SPK1", "SPK2", "SPK3"]),
    )
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_every_io_completes_and_work_is_conserved(
        self, seed, num_requests, size_kb, read_fraction, scheduler
    ):
        import random

        rng = random.Random(seed)
        config = SimulationConfig.small(gc_enabled=False)
        workload = []
        for index in range(num_requests):
            offset = rng.randrange(0, 8 * 1024 * 1024, 2048)
            workload.append(
                IORequest(
                    kind=IOKind.READ if rng.random() < read_fraction else IOKind.WRITE,
                    offset_bytes=offset,
                    size_bytes=size_kb * 1024,
                    arrival_ns=index * rng.choice([0, 500, 2000]),
                )
            )
        result = SSDSimulator(config, scheduler).run(workload)
        assert result.completed_ios == num_requests
        expected_pages = sum(len(io.logical_pages(2048)) for io in workload)
        assert result.memory_requests_served == expected_pages
        assert result.transactions <= expected_pages
        assert result.makespan_ns > 0
