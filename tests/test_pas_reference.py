"""PAS against a plain reference, and the controllers' busy masks against scratch.

PAS tests each queued I/O for chip conflicts with one AND of the tag's chip
mask against the controllers' ``busy_bits``, keeps its unstarted tags in an
index and skips rescans that cannot find anything new.  The reference below
is the straightforward policy it replaces: walk every registered tag in
arrival order and probe every target chip against a busy set recomputed from
the controllers' commit queues.  Generated workloads with force-unit-access
requests and garbage collection (GC transactions occupy chips through
``execute_prebuilt``) must produce the same picks, the same
``scheduler.conflict_skips`` and the same result digest under both.
"""

from __future__ import annotations

import random
from typing import List, Optional

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.pas import PhysicalAddressScheduler
from repro.core.scheduler import SchedulerBase
from repro.flash.geometry import SSDGeometry
from repro.flash.request import MemoryRequest
from repro.nvmhc.tag import Tag
from repro.perf.suite import tiny_suite
from repro.sim.config import SimulationConfig, stable_fingerprint
from repro.sim.ssd import SSDSimulator
from repro.workloads.request import IOKind, IORequest

KB = 1024


class ReferencePAS(SchedulerBase):
    """Arrival-order PAS over a from-scratch busy set (the pre-mask policy)."""

    name = "PAS"

    def __init__(self, context) -> None:
        super().__init__(context)
        self.arrivals: List[Tag] = []
        self.current: Optional[Tag] = None
        self.conflict_skips = 0

    def observability_counters(self):
        counters = super().observability_counters()
        counters["scheduler.conflict_skips"] = self.conflict_skips
        return counters

    def register_tag(self, tag: Tag, now_ns: int) -> None:
        super().register_tag(tag, now_ns)
        self.arrivals.append(tag)

    def on_tag_retired(self, tag: Tag) -> None:
        super().on_tag_retired(tag)
        self.arrivals = [other for other in self.arrivals if other.io_id != tag.io_id]
        if self.current is not None and self.current.io_id == tag.io_id:
            self.current = None

    def busy_chips(self) -> set:
        return {
            chip_key
            for controller in self.context.controllers.values()
            for chip_key, queue in controller.pending.items()
            if queue or controller.active[chip_key] is not None
        }

    def fua_barrier(self, pending: List[Tag], tag: Tag) -> bool:
        for earlier in pending:
            if earlier is tag:
                return False
            if earlier.io.force_unit_access and not earlier.fully_composed:
                return True
        return False

    def next_composition(self, now_ns: int) -> Optional[MemoryRequest]:
        if self.current is not None:
            request = self.current.next_uncomposed()
            if request is not None:
                return request
            self.current = None
        pending = [tag for tag in self.arrivals if not tag.fully_composed]
        for tag in pending:
            if tag.composed_count > 0:
                self.current = tag
                return tag.next_uncomposed()
        busy = self.busy_chips()
        for tag in pending:
            if self.fua_barrier(pending, tag):
                break
            if any(chip_key in busy for chip_key in tag.by_chip):
                self.conflict_skips += 1
            else:
                self.current = tag
                return tag.next_uncomposed()
            if tag.io.force_unit_access:
                break
        return None


def gc_config(geometry: SSDGeometry) -> SimulationConfig:
    """A prefilled, GC-enabled device, so writes trigger collection."""
    return SimulationConfig(geometry=geometry, gc_enabled=True, prefill_fraction=0.85)


GEOMETRIES = {
    "2x4": SSDGeometry(
        num_channels=2,
        chips_per_channel=4,
        dies_per_chip=2,
        planes_per_die=2,
        blocks_per_plane=8,
        pages_per_block=16,
        page_size_bytes=2048,
    ),
    "4x4": SSDGeometry(
        num_channels=4,
        chips_per_channel=4,
        dies_per_chip=1,
        planes_per_die=2,
        blocks_per_plane=8,
        pages_per_block=16,
        page_size_bytes=2048,
    ),
}

recipes = st.fixed_dictionaries(
    {
        "geometry": st.sampled_from(sorted(GEOMETRIES)),
        "seed": st.integers(min_value=0, max_value=10_000),
        "num_requests": st.integers(min_value=8, max_value=40),
        "read_fraction": st.sampled_from([0.0, 0.3, 0.7]),
        "fua_fraction": st.sampled_from([0.0, 0.1, 0.3]),
        "gap_ns": st.sampled_from([0, 1_000, 20_000]),
    }
)


#: Simulation runs are slow for hypothesis' taste; derandomized so the
#: suite stays deterministic.
GENERATED = settings(
    deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow]
)


def build_workload(recipe) -> List[IORequest]:
    """A fresh trace for ``recipe`` (the simulator mutates its requests)."""
    rng = random.Random(recipe["seed"])
    geometry = GEOMETRIES[recipe["geometry"]]
    span = geometry.total_pages * geometry.page_size_bytes // 2
    workload = []
    for index in range(recipe["num_requests"]):
        size = rng.choice([2, 4, 16, 64]) * KB
        workload.append(
            IORequest(
                kind=IOKind.READ if rng.random() < recipe["read_fraction"] else IOKind.WRITE,
                offset_bytes=rng.randrange(0, span - size, 2048),
                size_bytes=size,
                arrival_ns=index * rng.choice([0, recipe["gap_ns"]]),
                io_id=index,
                force_unit_access=rng.random() < recipe["fua_fraction"],
            )
        )
    return workload


def picks_and_result(recipe, reference: bool):
    """Run ``recipe`` under PAS (or the reference); return its picks and result."""
    simulator = SSDSimulator(gc_config(GEOMETRIES[recipe["geometry"]]), "PAS")
    if reference:
        simulator.scheduler = ReferencePAS(simulator.scheduler.context)
    scheduler = simulator.scheduler
    compose = scheduler.next_composition
    picks = []

    def recording(now_ns):
        request = compose(now_ns)
        if request is not None:
            picks.append((request.io_id, request.lpn, now_ns))
        return request

    scheduler.next_composition = recording
    result = simulator.run(build_workload(recipe), workload_name="generated")
    return picks, result


def busy_mask_from_scratch(controller) -> int:
    return sum(
        controller.chip_bits[chip_key]
        for chip_key, queue in controller.pending.items()
        if queue or controller.active[chip_key] is not None
    )


def audit(simulator: SSDSimulator) -> None:
    """Check every busy mask and the PAS index against a recomputation."""
    for controller in simulator.controllers.values():
        assert controller.busy_bits == busy_mask_from_scratch(controller)
    scheduler = simulator.scheduler
    geometry = simulator.geometry
    if not scheduler.uses_readdressing_callback:
        # Only the readdressing callback moves requests between chips.
        for tag in scheduler.tags.values():
            assert tag.chip_mask == geometry.chip_mask(tag.by_chip)
    if isinstance(scheduler, PhysicalAddressScheduler):
        unstarted = [
            io_id
            for io_id, tag in scheduler.tags.items()
            if tag.memory_requests and tag.composed_count == 0
        ]
        assert list(scheduler._unstarted) == unstarted


class TestDifferentialAgainstReference:
    @given(recipe=recipes)
    @settings(GENERATED, max_examples=20)
    def test_same_picks_skips_and_digest(self, recipe):
        expected_picks, expected = picks_and_result(recipe, reference=True)
        picks, result = picks_and_result(recipe, reference=False)
        assert picks == expected_picks
        assert (
            result.counters["scheduler.conflict_skips"]
            == expected.counters["scheduler.conflict_skips"]
        )
        assert stable_fingerprint(result) == stable_fingerprint(expected)

    def test_generated_runs_exercise_gc_fua_and_conflicts(self):
        # Guard against a generator that never reaches the interesting paths.
        recipe = {
            "geometry": "2x4",
            "seed": 3,
            "num_requests": 40,
            "read_fraction": 0.3,
            "fua_fraction": 0.1,
            "gap_ns": 0,
        }
        _, result = picks_and_result(recipe, reference=False)
        assert result.gc_transactions > 0
        assert result.counters["scheduler.fua_tags"] > 0
        assert result.counters["scheduler.conflict_skips"] > 0

    @given(recipe=recipes, fraction=st.sampled_from([0.2, 0.5, 0.8]))
    @settings(GENERATED, max_examples=8)
    def test_checkpoint_resume_matches_straight_run(self, recipe, fraction):
        config = gc_config(GEOMETRIES[recipe["geometry"]])
        straight = SSDSimulator(config, "PAS")
        expected = straight.run(build_workload(recipe), workload_name="generated")
        pause_at = max(1, int(straight.events.processed * fraction))
        simulator = SSDSimulator(config, "PAS")
        assert simulator.run(build_workload(recipe), "generated", max_events=pause_at) is None
        result = SSDSimulator.resume(simulator.checkpoint()).run_to_completion()
        assert stable_fingerprint(result) == stable_fingerprint(expected)
        assert result.counters == expected.counters


class TestControllerBusyMask:
    @given(recipe=recipes, scheduler=st.sampled_from(["VAS", "PAS", "SPK3"]))
    @settings(GENERATED, max_examples=10)
    def test_busy_bits_match_pending_and_active_after_every_batch(self, recipe, scheduler):
        simulator = SSDSimulator(gc_config(GEOMETRIES[recipe["geometry"]]), scheduler)
        budget = 1
        result = simulator.run(build_workload(recipe), max_events=budget)
        while result is None:
            audit(simulator)
            budget = simulator.events.processed + 1
            result = simulator.run_to_completion(max_events=budget)
        audit(simulator)
        assert all(controller.busy_bits == 0 for controller in simulator.controllers.values())

    def test_busy_transitions_unchanged_on_tiny_suite(self):
        # ``chip.busy_transitions`` is not fingerprinted; these are the values
        # the set-based controller counted before busy chips became a bitmask.
        expected = {
            "tiny-grid": [256, 256, 21],
            "tiny-array": [8, 10],
            "tiny-bursty": [27],
            "tiny-aged": [8],
            "tiny-gc": [8],
            "tiny-zoo": [8, 17],
        }
        observed = {
            case.name: [job.execute().counters["chip.busy_transitions"] for job in case.jobs]
            for case in tiny_suite()
        }
        assert observed == expected
