"""Tests for the device aging & steady-state subsystem (repro.lifetime)."""

from __future__ import annotations

import pickle
import random

import pytest

from repro.experiments.engine import ExecutionEngine
from repro.experiments.spec import SimJob, WorkloadSpec
from repro.flash.chip import FlashChip
from repro.ftl.garbage_collector import GarbageCollector
from repro.ftl.mapping import PageMapFTL, prefill_plan
from repro.lifetime import (
    DeviceState,
    age_to_steady_state,
    apply_device_state,
    device_state_workload,
    occupancy_fingerprint,
    occupancy_snapshot,
    replay_device_state,
)
from repro.sim.config import SimulationConfig
from repro.sim.ssd import SSDSimulator
from repro.workloads.request import reset_io_ids
from repro.workloads.synthetic import generate_random_workload

KB = 1024


def fresh_ftl(geometry):
    chips = {key: FlashChip(key, geometry) for key in geometry.iter_chip_keys()}
    return PageMapFTL(geometry, chips)


def aged_config(**overrides):
    """Small config with a canned aged device state (no steady aging)."""
    state = overrides.pop(
        "state", DeviceState(fill_fraction=0.85, invalid_fraction=0.3, seed=7)
    )
    return SimulationConfig.small(device_state=state, **overrides)


def small_write_workload(seed=3, num_requests=48):
    reset_io_ids()
    return generate_random_workload(
        num_requests,
        16 * KB,
        read_fraction=0.2,
        address_space_bytes=8 * 1024 * KB,
        seed=seed,
    )


# ======================================================================
# DeviceState spec
# ======================================================================
class TestDeviceState:
    def test_validation(self):
        with pytest.raises(ValueError):
            DeviceState(fill_fraction=1.5)
        with pytest.raises(ValueError):
            DeviceState(invalid_fraction=1.0)
        with pytest.raises(ValueError):
            DeviceState(hot_fraction=-0.1)
        with pytest.raises(ValueError):
            DeviceState(hot_write_share=2.0)
        with pytest.raises(ValueError):
            DeviceState(steady_tolerance=0.0)
        with pytest.raises(ValueError):
            DeviceState(steady_max_passes=0)
        with pytest.raises(ValueError):
            DeviceState(steady_pass_fraction=0.0)

    def test_fingerprint_stable_and_sensitive(self):
        a = DeviceState(fill_fraction=0.9, seed=1)
        assert a.fingerprint() == DeviceState(fill_fraction=0.9, seed=1).fingerprint()
        assert a.fingerprint() != DeviceState(fill_fraction=0.8, seed=1).fingerprint()
        assert a.fingerprint() != DeviceState(fill_fraction=0.9, seed=2).fingerprint()
        assert (
            a.fingerprint()
            != DeviceState(fill_fraction=0.9, seed=1, steady_state=True).fingerprint()
        )

    def test_version_rides_every_fingerprint(self):
        """LIFETIME_VERSION is a DeviceState field, so it reaches the
        canonical form of any config embedding the state - bumping it
        must invalidate engine-cached aged results."""
        from repro.lifetime import LIFETIME_VERSION
        from repro.sim.config import canonicalize

        state = DeviceState()
        assert state.version == LIFETIME_VERSION
        assert ("version", LIFETIME_VERSION) in canonicalize(state)
        config_form = repr(canonicalize(SimulationConfig.small(device_state=state)))
        assert f"('version', {LIFETIME_VERSION})" in config_form

    def test_precondition_plan_arithmetic(self, small_geometry):
        state = DeviceState(fill_fraction=0.5, invalid_fraction=0.2)
        logical = small_geometry.total_pages
        live, overwrites = state.precondition_plan(small_geometry, logical)
        assert live == int(logical * 0.5)
        # invalid / programmed ~= invalid_fraction
        assert overwrites / (live + overwrites) == pytest.approx(0.2, abs=0.01)

    def test_precondition_plan_leaves_gc_headroom(self, small_geometry):
        # Overwrite demand (0.8 / 0.55 of capacity) far exceeds what fits;
        # the plan clamps it so a block per plane stays erased for GC.
        state = DeviceState(fill_fraction=0.8, invalid_fraction=0.45)
        live, overwrites = state.precondition_plan(
            small_geometry, small_geometry.total_pages
        )
        headroom = small_geometry.num_planes * small_geometry.pages_per_block
        assert overwrites > 0
        assert live + overwrites == small_geometry.total_pages - headroom

    def test_zero_fill_is_noop(self, small_geometry):
        state = DeviceState(fill_fraction=0.0)
        ftl = fresh_ftl(small_geometry)
        report = apply_device_state(
            ftl, state, logical_pages=small_geometry.total_pages
        )
        assert report.page_writes == 0
        assert ftl.mapped_pages == 0

    def test_config_rejects_prefill_plus_device_state(self):
        with pytest.raises(ValueError):
            SimulationConfig.small(prefill_fraction=0.5, device_state=DeviceState())

    def test_config_rejects_steady_without_gc(self):
        with pytest.raises(ValueError):
            SimulationConfig.small(
                gc_enabled=False, device_state=DeviceState(steady_state=True)
            )

    def test_config_logical_pages_reflects_overprovisioning(self):
        config = SimulationConfig.small(overprovisioning_fraction=0.25)
        assert config.logical_pages == int(config.geometry.total_pages * 0.75)
        with pytest.raises(ValueError):
            SimulationConfig.small(overprovisioning_fraction=1.0)


# ======================================================================
# Fast-forward identity (the tentpole invariant)
# ======================================================================
class TestFastForwardIdentity:
    STATE = DeviceState(fill_fraction=0.8, invalid_fraction=0.3, seed=7)

    @pytest.mark.parametrize(
        "geometry, state",
        [
            pytest.param(None, STATE, id="small"),
            # The 64-chip paper topology at 90% fill; blocks and pages are
            # shrunk so the page-by-page replay reference stays sub-second.
            pytest.param(
                SimulationConfig.paper_scale(64).geometry.scaled(
                    blocks_per_plane=16, pages_per_block=32
                ),
                DeviceState(fill_fraction=0.9, invalid_fraction=0.3, seed=11),
                id="paper64",
            ),
        ],
    )
    def test_fast_forward_matches_replay(self, small_geometry, geometry, state):
        geometry = small_geometry if geometry is None else geometry
        fast = fresh_ftl(geometry)
        slow = fresh_ftl(geometry)
        r1 = apply_device_state(fast, state, logical_pages=geometry.total_pages)
        r2 = replay_device_state(slow, state, logical_pages=geometry.total_pages)
        assert r1 == r2
        assert occupancy_snapshot(fast) == occupancy_snapshot(slow)
        assert occupancy_fingerprint(fast) == occupancy_fingerprint(slow)
        assert fast.stats == slow.stats

    def test_fast_forward_matches_event_simulation(self):
        config = SimulationConfig.small(gc_enabled=False)
        fast = fresh_ftl(config.geometry)
        apply_device_state(fast, self.STATE, logical_pages=config.logical_pages)
        simulator = SSDSimulator(config, "SPK3")
        workload = device_state_workload(
            self.STATE, config.geometry, logical_pages=config.logical_pages
        )
        simulator.run(workload, workload_name="precondition")
        assert occupancy_fingerprint(simulator.ftl) == occupancy_fingerprint(fast)

    def test_different_seeds_diverge(self, small_geometry):
        a = fresh_ftl(small_geometry)
        b = fresh_ftl(small_geometry)
        apply_device_state(
            a,
            DeviceState(fill_fraction=0.8, invalid_fraction=0.3, seed=1),
            logical_pages=small_geometry.total_pages,
        )
        apply_device_state(
            b,
            DeviceState(fill_fraction=0.8, invalid_fraction=0.3, seed=2),
            logical_pages=small_geometry.total_pages,
        )
        assert occupancy_fingerprint(a) != occupancy_fingerprint(b)

    def test_requires_pristine_device(self, small_geometry):
        ftl = fresh_ftl(small_geometry)
        ftl.translate_write(0)
        with pytest.raises(ValueError):
            apply_device_state(
                ftl, self.STATE, logical_pages=small_geometry.total_pages
            )

    def test_achieved_fractions(self, small_geometry):
        ftl = fresh_ftl(small_geometry)
        report = apply_device_state(
            ftl, self.STATE, logical_pages=small_geometry.total_pages
        )
        assert ftl.utilization() == pytest.approx(0.8, abs=0.01)
        programmed = sum(
            block.write_pointer
            for chip in ftl.chips.values()
            for plane in chip.iter_planes()
            for block in plane.blocks
        )
        assert programmed == report.page_writes
        invalid = programmed - ftl.mapped_pages
        assert invalid == report.overwrites

    def test_hot_skew_concentrates_overwrites(self, small_geometry):
        state = DeviceState(
            fill_fraction=0.7,
            invalid_fraction=0.3,
            hot_fraction=0.2,
            hot_write_share=0.9,
            seed=5,
        )
        ftl = fresh_ftl(small_geometry)
        report = apply_device_state(ftl, state, logical_pages=small_geometry.total_pages)
        assert report.overwrites > 0
        # The hot set (first 20% of live LPNs) received ~90% of overwrites:
        # count invalid pages in the blocks the base pass put the hot set in.
        assert ftl.stats.invalidations == report.overwrites

    def test_overprovisioning_shrinks_live_space(self, small_geometry):
        state = DeviceState(fill_fraction=0.9, invalid_fraction=0.2, seed=3)
        full = fresh_ftl(small_geometry)
        reserved = fresh_ftl(small_geometry)
        total = small_geometry.total_pages
        r_full = apply_device_state(full, state, logical_pages=total)
        r_reserved = apply_device_state(
            reserved, state, logical_pages=int(total * 0.75)
        )
        assert r_reserved.live_pages < r_full.live_pages
        assert r_reserved.live_pages == int(int(total * 0.75) * 0.9)


# ======================================================================
# Steady-state aging driver
# ======================================================================
class TestSteadyStateAging:
    def test_converges_and_reports(self, small_geometry, fast_timing):
        state = DeviceState(
            fill_fraction=0.85, invalid_fraction=0.3, seed=7, steady_state=True
        )
        ftl = fresh_ftl(small_geometry)
        gc = GarbageCollector(small_geometry, fast_timing, ftl, ftl.chips)
        rng = random.Random(state.seed)
        report_fill = apply_device_state(
            ftl, state, logical_pages=small_geometry.total_pages, rng=rng
        )
        report = age_to_steady_state(
            ftl, gc, state, live_pages=report_fill.live_pages, rng=rng
        )
        assert report.passes >= 1
        assert report.write_amplification >= 1.0
        assert report.gc_invocations > 0
        assert len(report.wa_history) == report.passes
        assert gc.stats.orphaned_pages == 0
        # Live data is preserved: every live LPN still resolves.
        assert ftl.mapped_pages == report_fill.live_pages

    def test_deterministic(self, small_geometry, fast_timing):
        state = DeviceState(
            fill_fraction=0.85, invalid_fraction=0.3, seed=9, steady_state=True
        )

        def run():
            ftl = fresh_ftl(small_geometry)
            gc = GarbageCollector(small_geometry, fast_timing, ftl, ftl.chips)
            rng = random.Random(state.seed)
            fill = apply_device_state(
                ftl, state, logical_pages=small_geometry.total_pages, rng=rng
            )
            report = age_to_steady_state(
                ftl, gc, state, live_pages=fill.live_pages, rng=rng
            )
            return report, occupancy_fingerprint(ftl), list(gc.history)

        first, second = run(), run()
        assert first[0] == second[0]
        assert first[1] == second[1]
        assert first[2] == second[2] and first[2]

    def test_requires_enabled_gc(self, small_geometry, fast_timing):
        state = DeviceState(steady_state=True)
        ftl = fresh_ftl(small_geometry)
        gc = GarbageCollector(
            small_geometry, fast_timing, ftl, ftl.chips, enabled=False
        )
        with pytest.raises(ValueError):
            age_to_steady_state(ftl, gc, state, live_pages=100)

    def test_wear_accumulates(self, small_geometry, fast_timing):
        from repro.ftl.wear_leveling import wear_stats

        state = DeviceState(
            fill_fraction=0.85, invalid_fraction=0.3, seed=7, steady_state=True
        )
        ftl = fresh_ftl(small_geometry)
        gc = GarbageCollector(small_geometry, fast_timing, ftl, ftl.chips)
        rng = random.Random(state.seed)
        fill = apply_device_state(
            ftl, state, logical_pages=small_geometry.total_pages, rng=rng
        )
        age_to_steady_state(ftl, gc, state, live_pages=fill.live_pages, rng=rng)
        wear = wear_stats(ftl.chips)
        assert wear.total_erases == gc.stats.blocks_erased
        assert wear.max_erase_count >= 1


# ======================================================================
# Simulator integration
# ======================================================================
class TestSimulatorIntegration:
    def test_result_carries_lifetime_fields(self):
        simulator = SSDSimulator(aged_config(), "SPK3")
        result = simulator.run(small_write_workload(), workload_name="aged")
        assert result.lifetime is not None
        assert result.gc_stats is not None
        assert result.wear is not None
        assert result.lifetime.precondition_writes > 0
        assert result.lifetime.host_writes > 0
        assert result.write_amplification > 1.0
        assert result.lifetime.flash_writes == (
            result.lifetime.host_writes + result.lifetime.pages_relocated
        )
        assert result.gc_stats.orphaned_pages == 0

    def test_prefilled_device_reports_precondition_writes(self):
        config = SimulationConfig.small(prefill_fraction=0.9)
        live, overwrites = prefill_plan(
            config.geometry.total_pages, 0.9, config.prefill_overwrite_fraction
        )
        simulator = SSDSimulator(config, "SPK3")
        result = simulator.run(small_write_workload(), workload_name="prefilled")
        assert overwrites > 0
        assert result.lifetime.precondition_writes == live + overwrites
        assert result.lifetime.host_writes < result.lifetime.precondition_writes

    def test_fresh_device_reports_unit_wa(self, test_config):
        simulator = SSDSimulator(test_config, "SPK3")
        result = simulator.run(small_write_workload(), workload_name="fresh")
        assert result.write_amplification == 1.0
        assert result.gc_stats.invocations == 0
        assert result.wear.total_erases == 0
        assert result.lifetime.precondition_writes == 0

    def test_run_counters_exclude_preconditioning(self):
        config = aged_config()
        simulator = SSDSimulator(config, "SPK3")
        pre_gc = simulator.gc.stats.invocations
        result = simulator.run(small_write_workload(), workload_name="aged")
        # The run-scoped GC stats must not include aging-time collections.
        assert result.gc_stats.invocations == simulator.gc.stats.invocations - pre_gc
        assert result.lifetime.host_writes < result.lifetime.precondition_writes

    def test_steady_state_rides_into_result(self):
        state = DeviceState(
            fill_fraction=0.85, invalid_fraction=0.3, seed=7, steady_state=True
        )
        simulator = SSDSimulator(aged_config(state=state), "SPK3")
        result = simulator.run(small_write_workload(), workload_name="steady")
        assert result.lifetime.steady_state_passes >= 1
        assert result.lifetime.steady_state_wa >= 1.0

    def test_gc_job_sequence_identical_across_seeded_runs(self):
        config = aged_config()

        def run():
            simulator = SSDSimulator(config, "SPK3")
            result = simulator.run(small_write_workload(), workload_name="aged")
            return list(simulator.gc.history), result

        history_a, result_a = run()
        history_b, result_b = run()
        assert history_a, "aged run is expected to trigger garbage collection"
        assert history_a == history_b
        assert result_a == result_b


# ======================================================================
# Engine integration (fingerprints, cache, process backend)
# ======================================================================
class TestEngineIntegration:
    def job(self, state=None, op=0.0, seed=3):
        workload = WorkloadSpec.random(
            "lifetime-writes",
            num_requests=24,
            size_bytes=16 * KB,
            read_fraction=0.0,
            address_space_bytes=4 * 1024 * KB,
            seed=seed,
        )
        config = SimulationConfig.small(
            device_state=state, overprovisioning_fraction=op
        )
        return SimJob(workload=workload, scheduler="SPK3", config=config, key=("cell",))

    def test_device_state_changes_fingerprint(self):
        fresh = self.job()
        aged = self.job(state=DeviceState(seed=1))
        aged_other_seed = self.job(state=DeviceState(seed=2))
        op = self.job(op=0.2)
        fingerprints = {
            fresh.fingerprint(),
            aged.fingerprint(),
            aged_other_seed.fingerprint(),
            op.fingerprint(),
        }
        assert len(fingerprints) == 4

    def test_serial_process_identity_and_cache_hit(self, tmp_path):
        jobs = [
            self.job(state=DeviceState(fill_fraction=0.85, invalid_fraction=0.3, seed=1)),
            self.job(
                state=DeviceState(
                    fill_fraction=0.85, invalid_fraction=0.3, seed=1, steady_state=True
                )
            ),
        ]
        jobs[1] = SimJob(
            workload=jobs[1].workload,
            scheduler=jobs[1].scheduler,
            config=jobs[1].config,
            key=("steady",),
        )
        serial = ExecutionEngine("serial").run_jobs(jobs)
        parallel = ExecutionEngine("process", max_workers=2).run_jobs(jobs)
        for left, right in zip(serial, parallel):
            assert pickle.dumps(left) == pickle.dumps(right)

        cached_engine = ExecutionEngine("serial", cache_dir=tmp_path / "cache")
        first = cached_engine.run_jobs(jobs)
        assert cached_engine.stats.jobs_executed == len(jobs)
        rerun_engine = ExecutionEngine("serial", cache_dir=tmp_path / "cache")
        second = rerun_engine.run_jobs(jobs)
        assert rerun_engine.stats.cache_hits == len(jobs)
        assert rerun_engine.stats.jobs_executed == 0
        for left, right in zip(first, second):
            assert pickle.dumps(left) == pickle.dumps(right)
