"""Smoke tests for the experiment artifacts (small scale)."""

import pytest

from repro.experiments import ExperimentScale, figures
from repro.experiments.__main__ import main as cli_main
from repro.experiments.engine import ExecutionEngine
from repro.experiments.figures import ARTIFACTS
from repro.experiments.runner import default_workload_specs, paper_config
from repro.experiments.spec import SimJob, WorkloadSpec
from repro.workloads.datacenter import DATACENTER_TRACE_NAMES
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


class TestTable01:
    def test_rows_cover_all_traces(self):
        rows = ARTIFACTS["table01"].run(scale=TINY)
        assert len(rows) == 16
        assert {row["trace"] for row in rows} == set(DATACENTER_TRACE_NAMES)

    def test_measured_statistics_close_to_profile(self):
        rows = ARTIFACTS["table01"].run(
            scale=ExperimentScale(requests_per_trace=300), traces=("hm1",)
        )
        row = rows[0]
        assert abs(row["measured_read_fraction"] - row["target_read_fraction"]) < 0.1


class TestFigure01:
    def test_bandwidth_grows_sublinearly(self):
        rows = ARTIFACTS["figure01"].run(
            die_counts=(16, 64), transfer_sizes_kb=(16,), requests_per_point=8
        )
        assert len(rows) == 2
        summary = figures.stagnation_summary(rows)
        # 4x the dies must not give 4x the bandwidth (stagnation).
        assert summary[16] < 4.0

    def test_utilization_drops_with_more_dies(self):
        rows = ARTIFACTS["figure01"].run(
            die_counts=(16, 128), transfer_sizes_kb=(16,), requests_per_point=8
        )
        small, big = rows[0], rows[1]
        assert big["chip_utilization_pct"] < small["chip_utilization_pct"]
        assert big["idleness_pct"] > small["idleness_pct"]


class TestTraceDrivenFigures:
    @pytest.fixture(scope="class")
    def fig10_rows(self):
        return ARTIFACTS["figure10"].run(scale=TINY)

    def test_figure10_has_all_rows(self, fig10_rows):
        assert len(fig10_rows) == len(TINY.traces) * 5

    def test_figure10_spk3_beats_vas(self, fig10_rows):
        speedups = figures.speedups_over(fig10_rows, "VAS", "SPK3")
        assert all(ratio > 1.0 for ratio in speedups.values())

    def test_figure10_latency_reduction_positive(self, fig10_rows):
        reductions = figures.latency_reduction(fig10_rows, "VAS", "SPK3")
        assert all(value > 0.0 for value in reductions.values())

    def test_figure10_requires_the_vas_baseline(self):
        with pytest.raises(ValueError, match="VAS"):
            ARTIFACTS["figure10"].run(scale=TINY, schedulers=("PAS", "SPK3"))

    def test_figure06_process_backend_matches_serial(self):
        scale = ExperimentScale(
            requests_per_trace=60,
            requests_per_point=12,
            num_chips=16,
            traces=("cfs0", "msnfs1", "proj0"),
            seed=3,
        )
        serial = ARTIFACTS["figure06"].run(scale=scale, engine=ExecutionEngine("serial"))
        parallel = ARTIFACTS["figure06"].run(
            scale=scale, engine=ExecutionEngine("process", max_workers=2)
        )
        assert len(serial) == 3
        assert serial == parallel

    def test_figure06_utilization_ordering(self):
        rows = ARTIFACTS["figure06"].run(scale=TINY)
        for row in rows:
            assert row["utilization_potential_pct"] >= row["utilization_vas_pct"]
        averages = figures.utilization_averages(rows)
        assert averages["utilization_potential_pct"] > averages["utilization_vas_pct"]

    def test_figure11_idleness_shape(self):
        rows = ARTIFACTS["figure11"].run(scale=TINY, schedulers=("VAS", "SPK3"))
        reduction = figures.mean_reduction(
            rows, "inter_chip_idleness_pct", "VAS", "SPK3"
        )
        assert reduction > 0.0

    def test_figure13_fractions_sum_to_100(self):
        rows = ARTIFACTS["figure13"].run(scale=TINY, schedulers=("PAS", "SPK3"))
        for row in rows:
            total = (
                row["bus_operation_pct"]
                + row["bus_contention_pct"]
                + row["memory_operation_pct"]
                + row["system_idle_pct"]
            )
            assert total == pytest.approx(100.0, abs=0.5)

    def test_figure14_fractions_and_ordering(self):
        rows = ARTIFACTS["figure14"].run(scale=TINY, schedulers=("PAS", "SPK3"))
        for row in rows:
            total = row["non_pal_pct"] + row["pal1_pct"] + row["pal2_pct"] + row["pal3_pct"]
            assert total == pytest.approx(100.0, abs=0.5)
        averages = figures.column_means(rows, "high_flp_pct", "scheduler")
        assert averages["SPK3"] >= averages["PAS"]

    def test_figure12_series_and_reductions(self):
        data = ARTIFACTS["figure12"].run(
            scale=ExperimentScale(requests_per_trace=60, num_chips=16, traces=("msnfs1",))
        )
        assert set(data["series"]) == {"VAS", "PAS", "SPK3"}
        assert all(len(series) == 60 for series in data["series"].values())
        assert data["latency_reduction"]["SPK3_vs_VAS"] > 0.0
        rows = figures.latency_summary(data)
        assert len(rows) == 3


class TestSweepFigures:
    def test_figure15_spk3_beats_vas_on_average(self):
        rows = ARTIFACTS["figure15"].run(
            chip_counts=(16,),
            transfer_sizes_kb=(16, 64),
            schedulers=("VAS", "SPK3"),
            requests_per_point=8,
        )
        averages = figures.column_means(rows, "chip_utilization_pct", "num_chips", "scheduler")
        assert averages[(16, "SPK3")] > averages[(16, "VAS")]

    def test_figure16_transaction_reduction(self):
        rows = ARTIFACTS["figure16"].run(
            chip_counts=(16,),
            transfer_sizes_kb=(64,),
            schedulers=("VAS", "SPK3"),
            requests_per_point=8,
        )
        reductions = figures.reduction_vs_vas(rows)
        assert reductions[(16, 64, "SPK3")] > 0.0

    def test_scenario_matrix_shapes_and_ranking(self):
        from repro.experiments import scenario_matrix
        from repro.scenarios.library import default_scenarios

        scenarios = default_scenarios(scale=0.2, seed=3)
        rows = scenario_matrix.run_scenario_matrix(
            scenarios,
            schedulers=("VAS", "SPK3"),
            device_counts=(1, 2),
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
        kwargs = dict(schedulers=("VAS", "SPK3"), device_counts=(1, 2))
        serial = scenario_matrix.run_scenario_matrix(
            scenarios, **kwargs, engine=ExecutionEngine("serial")
        )
        parallel = scenario_matrix.run_scenario_matrix(
            scenarios, **kwargs, engine=ExecutionEngine("process", max_workers=2)
        )
        assert serial == parallel

    def test_figure17_gc_hurts_and_spk3_stays_ahead(self):
        rows = ARTIFACTS["figure17"].run(
            chip_counts=(16,),
            transfer_sizes_kb=(32,),
            schedulers=("VAS", "SPK3"),
            requests_per_point=12,
        )
        degradation = figures.gc_degradation(rows)
        assert all(0.0 < value < 1.0 for value in degradation.values())
        advantage = figures.fragmented_advantage(rows)
        assert all(value >= 1.0 for value in advantage.values())
        fragmented = [row for row in rows if row["state"] == "fragmented"]
        assert all(row["gc_invocations"] > 0 for row in fragmented)


class TestCli:
    def test_prints_the_artifact_table(self, capsys):
        cli_main(["table01"])
        out = capsys.readouterr().out
        assert out.startswith("Table 1: workload characteristics")
        assert all(name in out for name in DATACENTER_TRACE_NAMES)

    def test_unknown_artifact_rejected(self, capsys):
        with pytest.raises(SystemExit):
            cli_main(["figure99"])
        assert "invalid choice" in capsys.readouterr().err
