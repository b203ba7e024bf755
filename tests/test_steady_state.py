"""Tests for the steady-state experiment (over-provisioning x fill x scheduler)."""

from __future__ import annotations

import pytest

from repro.experiments import steady_state
from repro.experiments.engine import ExecutionEngine
from repro.lifetime.state import DeviceState
from repro.scenarios.library import aged_device_state, sustained_write_scenario
from repro.sim.config import stable_fingerprint

QUICK = dict(
    overprovisioning=(0.07, 0.28),
    fill_states=("fresh", "aged", "steady"),
    schedulers=("VAS", "SPK3"),
)


@pytest.fixture(scope="module")
def rows():
    return steady_state.run_steady_state(**QUICK, engine=ExecutionEngine("serial"))


class TestSpec:
    def test_grid_shape_and_keys(self):
        spec = steady_state.build_spec(**QUICK)
        assert len(spec.jobs) == 2 * 3 * 2
        keys = {job.key for job in spec.jobs}
        assert (0.07, "aged", "SPK3") in keys
        assert (0.28, "fresh", "VAS") in keys

    def test_device_state_for(self):
        assert steady_state.device_state_for("fresh") is None
        aged = steady_state.device_state_for("aged")
        assert isinstance(aged, DeviceState) and not aged.steady_state
        assert steady_state.device_state_for("steady").steady_state
        with pytest.raises(ValueError):
            steady_state.device_state_for("bogus")

    def test_aged_cells_carry_state_in_config(self):
        spec = steady_state.build_spec(**QUICK)
        for job in spec.jobs:
            _, state_name, scheduler = job.key
            if state_name == "fresh":
                assert job.config.device_state is None
            else:
                assert job.config.device_state is not None
            assert job.config.gc_enabled

    def test_workload_targets_live_region(self):
        spec = steady_state.build_spec(**QUICK)
        config = spec.jobs[0].config
        live_bytes = int(
            config.geometry.total_pages
            * (1.0 - max(QUICK["overprovisioning"]))
            * aged_device_state().fill_fraction
            * config.geometry.page_size_bytes
        )
        scenario = dict(spec.jobs[0].workload.params)["scenario"]
        tenant_params = dict(scenario.phases[0].tenants[0].params)
        assert tenant_params["address_space_bytes"] <= live_bytes


class TestRows:
    def test_process_backend_matches_serial(self, rows):
        # The grid's highest over-provisioning point: the shared workload,
        # sized by that point, is the serial grid's own.
        parallel = steady_state.run_steady_state(
            (0.28,),
            QUICK["fill_states"],
            QUICK["schedulers"],
            engine=ExecutionEngine("process", max_workers=2),
        )
        assert parallel == [row for row in rows if row["overprovisioning"] == 0.28]

    def test_row_shape(self, rows):
        assert len(rows) == 2 * 3 * 2
        for row in rows:
            assert row["write_amplification"] >= 1.0
            assert row["bandwidth_kb_s"] > 0

    def test_fresh_cells_have_unit_wa(self, rows):
        for row in rows:
            if row["state"] == "fresh":
                assert row["write_amplification"] == 1.0
                assert row["gc_invocations"] == 0

    def test_aged_cells_amplify(self, rows):
        for row in rows:
            if row["state"] == "aged":
                assert row["write_amplification"] > 1.0
                assert row["gc_invocations"] > 0

    def test_steady_cells_converged(self, rows):
        for row in rows:
            if row["state"] == "steady":
                assert row["steady_passes"] >= 1
                assert row["steady_wa"] >= 1.0

    def test_overprovisioning_lowers_wa(self, rows):
        for state in ("aged", "steady"):
            curves = steady_state.wa_by_overprovisioning(
                [row for row in rows if row["state"] == state]
            )
            for scheduler, points in curves.items():
                ops = [op for op, _ in points]
                was = [wa for _, wa in points]
                assert ops == sorted(ops)
                assert was[-1] < was[0], (state, scheduler, points)

    def test_aging_costs_bandwidth(self, rows):
        cost = steady_state.aging_cost(rows)
        assert cost, "expected fresh/steady pairs"
        for (_, scheduler), value in cost.items():
            assert 0.0 < value < 1.0

    def test_wa_is_scheduler_independent(self, rows):
        """GC bookkeeping depends on the write stream, not the scheduler."""
        by_cell = {}
        for row in rows:
            by_cell.setdefault((row["overprovisioning"], row["state"]), set()).add(
                row["write_amplification"]
            )
        for cell, was in by_cell.items():
            assert len(was) == 1, cell


class TestScenarioLibrary:
    def test_sustained_write_scenario_is_pure_writes(self):
        scenario = sustained_write_scenario(num_requests=32, seed=5)
        requests = scenario.build()
        assert len(requests) == 32
        assert all(io.is_write for io in requests)
        assert scenario.fingerprint() == sustained_write_scenario(
            num_requests=32, seed=5
        ).fingerprint()

    def test_aged_device_state_variants(self):
        plain = aged_device_state()
        steady = aged_device_state(steady_state=True)
        assert not plain.steady_state and steady.steady_state
        assert stable_fingerprint(plain) != stable_fingerprint(steady)
