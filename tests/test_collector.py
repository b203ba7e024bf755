"""A simulator job and CPython's cyclic garbage collector.

A simulator's object graph holds no reference cycle, so a finished job is
freed by reference counting alone, and ``SimJob.execute`` pauses the
cyclic collector for the length of the job.  These tests pin both halves:
no ``repro`` object is ever left for the collector to find, and the
collector's enabled/disabled state is the same after a job as before it,
whether the job returned or raised.
"""

from __future__ import annotations

# ``gc`` means the FTL's garbage collector throughout the simulator.
import gc as cyclic_gc
from collections import Counter

import pytest

from repro.experiments.spec import SimJob, WorkloadSpec
from repro.lifetime.state import DeviceState
from repro.obs.trace import MemoryTraceSink
from repro.sim.config import SimulationConfig
from repro.sim.ssd import SSDSimulator

SCHEDULERS = ("VAS", "PAS", "SPK3")
DATACENTER = WorkloadSpec.datacenter("cfs0", num_requests=40, seed=3)


def overwrites(config: SimulationConfig) -> WorkloadSpec:
    """A write-heavy workload over half the logical space (GC fires on a full device)."""
    return WorkloadSpec.random(
        "overwrites",
        num_requests=150,
        size_bytes=16 * 1024,
        address_space_bytes=config.logical_pages * config.geometry.page_size_bytes // 2,
        read_fraction=0.3,
        interarrival_ns=500,
        seed=1,
    )


def cyclic_garbage(job: SimJob, **execute_kwargs):
    """Run ``job`` and return (result summary, repro objects only the collector frees).

    The collector runs with ``DEBUG_SAVEALL``, so everything it would free
    lands in ``gc.garbage`` instead; anything there whose type lives in
    ``repro`` was part of a reference cycle.
    """
    cyclic_gc.collect()
    flags = cyclic_gc.get_debug()
    cyclic_gc.garbage.clear()
    cyclic_gc.set_debug(flags | cyclic_gc.DEBUG_SAVEALL)
    try:
        result = job.execute(**execute_kwargs)
        summary = (result.completed_ios, result.num_ios, result.gc_stats)
        del result
        cyclic_gc.collect()
        leaked = Counter(
            f"{type(obj).__module__}.{type(obj).__qualname__}"
            for obj in cyclic_gc.garbage
            if type(obj).__module__.split(".")[0] == "repro"
        )
    finally:
        cyclic_gc.set_debug(flags)
        cyclic_gc.garbage.clear()
    return summary, leaked


class TestNoReferenceCycles:
    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_fresh_device_job_leaves_no_cycles(self, scheduler):
        job = SimJob(DATACENTER, scheduler, config=SimulationConfig.small(gc_enabled=False))
        (completed, total, _), leaked = cyclic_garbage(job)
        assert completed == total == 40
        assert not leaked

    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_prefilled_device_with_gc_leaves_no_cycles(self, scheduler):
        config = SimulationConfig.small(prefill_fraction=0.85)
        (completed, total, gc_stats), leaked = cyclic_garbage(
            SimJob(overwrites(config), scheduler, config=config)
        )
        assert completed == total == 150
        # Collections and migrations ran, so the readdressing index was live.
        assert gc_stats.blocks_erased > 0 and gc_stats.pages_migrated > 0
        assert not leaked

    def test_aged_steady_device_leaves_no_cycles(self):
        config = SimulationConfig.small(device_state=DeviceState(steady_state=True))
        (completed, total, gc_stats), leaked = cyclic_garbage(
            SimJob(overwrites(config), "SPK3", config=config)
        )
        assert completed == total == 150
        assert gc_stats.blocks_erased > 0
        assert not leaked

    def test_traced_job_leaves_no_cycles(self):
        sink = MemoryTraceSink()
        job = SimJob(DATACENTER, "SPK3", config=SimulationConfig.small())
        (completed, total, _), leaked = cyclic_garbage(job, trace_sink=sink)
        assert completed == total == 40
        assert sink.records
        assert not leaked


def set_collector(enabled: bool) -> None:
    if enabled:
        cyclic_gc.enable()
    else:
        cyclic_gc.disable()


@pytest.fixture
def collector_state():
    """Restore the collector's state whatever a test leaves it in."""
    was_enabled = cyclic_gc.isenabled()
    yield
    set_collector(was_enabled)


@pytest.mark.usefixtures("collector_state")
class TestCollectorPausedPerJob:
    def test_collector_is_off_while_the_job_runs(self, monkeypatch):
        seen = []
        run = SSDSimulator.run

        def spy(simulator, *args, **kwargs):
            seen.append(cyclic_gc.isenabled())
            return run(simulator, *args, **kwargs)

        monkeypatch.setattr(SSDSimulator, "run", spy)
        cyclic_gc.enable()
        SimJob(DATACENTER, "SPK3", config=SimulationConfig.small()).execute()
        assert seen == [False]
        assert cyclic_gc.isenabled()

    @pytest.mark.parametrize("enabled", (True, False))
    def test_state_restored_after_a_job(self, enabled):
        set_collector(enabled)
        result = SimJob(DATACENTER, "VAS", config=SimulationConfig.small()).execute()
        assert result.completed_ios == 40
        assert cyclic_gc.isenabled() is enabled

    @pytest.mark.parametrize("enabled", (True, False))
    @pytest.mark.parametrize(
        "job",
        (
            pytest.param(
                SimJob(WorkloadSpec("nope", "x"), "SPK3", config=SimulationConfig.small()),
                id="unknown-generator",
            ),
            pytest.param(
                SimJob(DATACENTER, "NOPE", config=SimulationConfig.small()), id="unknown-scheduler"
            ),
        ),
    )
    def test_state_restored_when_the_job_raises(self, enabled, job):
        set_collector(enabled)
        with pytest.raises(ValueError):
            job.execute()
        assert cyclic_gc.isenabled() is enabled
