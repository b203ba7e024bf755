"""Smoke tests for the per-figure experiment harnesses (small scale)."""

import pytest

from repro.experiments import (
    ExperimentScale,
    figure01,
    figure06,
    figure10,
    figure11,
    figure12,
    figure13,
    figure14,
    figure15,
    figure16,
    figure17,
    table01,
)
from repro.experiments.engine import ExecutionEngine
from repro.experiments.runner import default_workload_specs, paper_config
from repro.experiments.spec import SimJob, WorkloadSpec
from repro.workloads.synthetic import generate_random_workload

TINY = ExperimentScale(
    requests_per_trace=40,
    requests_per_point=8,
    num_chips=16,
    traces=("cfs0", "msnfs1"),
    seed=3,
)


class TestRunnerHelpers:
    def test_default_workload_specs_respect_scale(self):
        specs = default_workload_specs(TINY)
        traces = ExecutionEngine().build_workloads(list(specs.values()))
        assert set(traces) == {"cfs0", "msnfs1"}
        assert all(len(workload) == 40 for workload in traces.values())

    def test_job_execute_labels_result(self):
        workload = generate_random_workload(num_requests=4, size_bytes=4096)
        job = SimJob(WorkloadSpec.inline("demo", workload), "SPK3", config=paper_config(TINY))
        result = job.execute()
        assert result.workload == "demo"
        assert result.scheduler == "SPK3"

    def test_scales(self):
        assert ExperimentScale.quick().requests_per_trace < ExperimentScale.paper().requests_per_trace


class TestTable01:
    def test_rows_cover_all_traces(self):
        rows = table01.run_table01(scale=TINY)
        assert len(rows) == 16
        assert {row["trace"] for row in rows} == set(
            table01.DATACENTER_TRACE_NAMES
        )

    def test_measured_statistics_close_to_profile(self):
        rows = table01.run_table01(scale=ExperimentScale(requests_per_trace=300), traces=("hm1",))
        row = rows[0]
        assert abs(row["measured_read_fraction"] - row["target_read_fraction"]) < 0.1


class TestFigure01:
    def test_bandwidth_grows_sublinearly(self):
        rows = figure01.run_figure01(
            die_counts=(16, 64), transfer_sizes_kb=(16,), requests_per_point=8
        )
        assert len(rows) == 2
        summary = figure01.stagnation_summary(rows)
        # 4x the dies must not give 4x the bandwidth (stagnation).
        assert summary[16] < 4.0

    def test_utilization_drops_with_more_dies(self):
        rows = figure01.run_figure01(
            die_counts=(16, 128), transfer_sizes_kb=(16,), requests_per_point=8
        )
        small, big = rows[0], rows[1]
        assert big["chip_utilization_pct"] < small["chip_utilization_pct"]
        assert big["idleness_pct"] > small["idleness_pct"]


class TestTraceDrivenFigures:
    @pytest.fixture(scope="class")
    def fig10_rows(self):
        return figure10.run_figure10(scale=TINY)

    def test_figure10_has_all_rows(self, fig10_rows):
        assert len(fig10_rows) == len(TINY.traces) * 5

    def test_figure10_spk3_beats_vas(self, fig10_rows):
        speedups = figure10.speedups_over(fig10_rows, "VAS", "SPK3")
        assert all(ratio > 1.0 for ratio in speedups.values())

    def test_figure10_latency_reduction_positive(self, fig10_rows):
        reductions = figure10.latency_reduction(fig10_rows, "VAS", "SPK3")
        assert all(value > 0.0 for value in reductions.values())

    def test_figure06_process_backend_matches_serial(self):
        scale = ExperimentScale(
            requests_per_trace=60,
            requests_per_point=12,
            num_chips=16,
            traces=("cfs0", "msnfs1", "proj0"),
            seed=3,
        )
        serial = figure06.run_figure06(scale=scale, engine=ExecutionEngine("serial"))
        parallel = figure06.run_figure06(
            scale=scale, engine=ExecutionEngine("process", max_workers=2)
        )
        assert len(serial) == 3
        assert serial == parallel

    def test_figure06_utilization_ordering(self):
        rows = figure06.run_figure06(scale=TINY)
        for row in rows:
            assert row["utilization_potential_pct"] >= row["utilization_vas_pct"]
        averages = figure06.averages(rows)
        assert averages["utilization_potential_pct"] > averages["utilization_vas_pct"]

    def test_figure11_idleness_shape(self):
        rows = figure11.run_figure11(scale=TINY, schedulers=("VAS", "SPK3"))
        reduction = figure11.average_reduction(
            rows, "inter_chip_idleness_pct", "VAS", "SPK3"
        )
        assert reduction > 0.0

    def test_figure13_fractions_sum_to_100(self):
        rows = figure13.run_figure13(scale=TINY, schedulers=("PAS", "SPK3"))
        for row in rows:
            total = (
                row["bus_operation_pct"]
                + row["bus_contention_pct"]
                + row["memory_operation_pct"]
                + row["system_idle_pct"]
            )
            assert total == pytest.approx(100.0, abs=0.5)

    def test_figure14_fractions_and_ordering(self):
        rows = figure14.run_figure14(scale=TINY, schedulers=("PAS", "SPK3"))
        for row in rows:
            total = row["non_pal_pct"] + row["pal1_pct"] + row["pal2_pct"] + row["pal3_pct"]
            assert total == pytest.approx(100.0, abs=0.5)
        averages = figure14.average_high_flp(rows)
        assert averages["SPK3"] >= averages["PAS"]

    def test_figure12_series_and_reductions(self):
        data = figure12.run_figure12(trace_name="msnfs1", num_requests=60, num_chips=16)
        assert set(data["series"]) == {"VAS", "PAS", "SPK3"}
        assert all(len(series) == 60 for series in data["series"].values())
        assert data["latency_reduction"]["SPK3_vs_VAS"] > 0.0
        rows = figure12.summary_rows(data)
        assert len(rows) == 3


class TestSweepFigures:
    def test_figure15_spk3_beats_vas_on_average(self):
        rows = figure15.run_figure15(
            chip_counts=(16,),
            transfer_sizes_kb=(16, 64),
            schedulers=("VAS", "SPK3"),
            requests_per_point=8,
        )
        averages = figure15.average_utilization(rows)
        assert averages[(16, "SPK3")] > averages[(16, "VAS")]

    def test_figure16_transaction_reduction(self):
        rows = figure16.run_figure16(
            chip_counts=(16,),
            transfer_sizes_kb=(64,),
            schedulers=("VAS", "SPK3"),
            requests_per_point=8,
        )
        reductions = figure16.reduction_vs_vas(rows)
        assert reductions[(16, 64, "SPK3")] > 0.0

    def test_scenario_matrix_shapes_and_ranking(self):
        from repro.experiments import scenario_matrix
        from repro.scenarios.library import default_scenarios

        scenarios = default_scenarios(scale=0.2, seed=3)
        rows = scenario_matrix.run_scenario_matrix(
            scenarios,
            schedulers=("VAS", "SPK3"),
            device_counts=(1, 2),
            chips_per_device=16,
        )
        assert len(rows) == len(scenarios) * 2 * 2
        by_cell = {
            (row["scenario"], row["devices"], row["scheduler"]): row["bandwidth_mb_s"]
            for row in rows
        }
        # The paper's headline holds on every scenario at one device ...
        for scenario in scenarios:
            assert by_cell[(scenario.name, 1, "SPK3")] > by_cell[(scenario.name, 1, "VAS")]
        ranking = scenario_matrix.scheduler_ranking(rows)
        assert ranking[("steady", 1)][0] == "SPK3"
        # ... and the characterization table carries per-phase + overall rows.
        char_rows = scenario_matrix.characterization_rows(scenarios)
        assert sum(1 for row in char_rows if row["phase"] == "(overall)") == len(scenarios)

    def test_scenario_matrix_process_backend_matches_serial(self):
        from repro.experiments import scenario_matrix
        from repro.scenarios.library import default_scenarios

        scenarios = default_scenarios(scale=0.2, seed=3)
        kwargs = dict(schedulers=("VAS", "SPK3"), device_counts=(1, 2), chips_per_device=16)
        serial = scenario_matrix.run_scenario_matrix(
            scenarios, **kwargs, engine=ExecutionEngine("serial")
        )
        parallel = scenario_matrix.run_scenario_matrix(
            scenarios, **kwargs, engine=ExecutionEngine("process", max_workers=2)
        )
        assert serial == parallel

    def test_figure17_gc_hurts_and_spk3_stays_ahead(self):
        rows = figure17.run_figure17(
            chip_counts=(16,),
            transfer_sizes_kb=(32,),
            schedulers=("VAS", "SPK3"),
            requests_per_point=12,
        )
        degradation = figure17.gc_degradation(rows)
        assert all(0.0 < value < 1.0 for value in degradation.values())
        advantage = figure17.fragmented_advantage(rows)
        assert all(value >= 1.0 for value in advantage.values())
        fragmented = [row for row in rows if row["state"] == "fragmented"]
        assert all(row["gc_invocations"] > 0 for row in fragmented)
