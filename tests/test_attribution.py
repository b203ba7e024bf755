"""Tests for attributed telemetry: provenance tags, health sampling, reports.

The contracts pinned here, in dependency order:

* stamping - the scenario engine tags every built request with its tenant
  and phase, transforms carry the tags, and non-scenario generators leave
  them ``None``;
* attribution - per-(tenant, phase) counts, bytes and pooled percentile
  inputs reconcile *exactly* with the aggregate stats on every tiny-suite
  scenario case, and tagging never perturbs the result digest;
* health sampling - the periodic series is bounded and digest-inert;
* run reports - markdown and HTML renderings carry the tenant table, SLO
  verdicts and health sparklines, and the CLI writes them end to end;
* plumbing - array results keep device-namespaced counter snapshots, the
  engine marks cache-hit jobs in the trace dir, and ``--progress`` prints
  a heartbeat.
"""

from __future__ import annotations

import html
import json
import re

import pytest

from repro.array.host import merge_device_results
from repro.experiments.engine import (
    ExecutionEngine,
    engine_from_cli,
)
from repro.experiments.spec import WorkloadSpec
from repro.metrics.attribution import (
    AttributionTracker,
    reconcile_attribution,
)
from repro.obs import (
    MAX_HEALTH_SAMPLES,
    HealthSampler,
    MemoryTraceSink,
    merge_counter_snapshots,
)
from repro.obs import health
from repro.obs.__main__ import main as obs_main
from repro.obs.export import SKIPPED_TRACE_SUFFIX
from repro.obs.report import (
    SLOThresholds,
    render_html,
    render_markdown,
    run_report,
    slo_verdicts,
    sparkline,
    write_report,
)
from repro.perf.suite import tiny_suite
from repro.scenarios.library import bursty_multitenant_scenario
from repro.scenarios.transforms import copy_request
from repro.sim.config import stable_fingerprint
from repro.sim.ssd import SSDSimulator
from repro.workloads.request import IOKind, IORequest

KB = 1024


def tiny_case(name):
    for case in tiny_suite():
        if case.name == name:
            return case
    raise AssertionError(f"no tiny-suite case named {name}")


def bursty_job():
    return tiny_case("tiny-bursty").jobs[0]


def strip_tags(requests):
    for io in requests:
        io.tenant = None
        io.phase_index = None
    return requests


class TestProvenanceStamping:
    def test_scenario_build_tags_every_request(self):
        scenario = bursty_multitenant_scenario(requests_per_tenant=8, seed=11)
        requests = scenario.build()
        assert requests
        assert all(io.tenant is not None for io in requests)
        assert all(io.phase_index is not None for io in requests)
        tenants = {io.tenant for io in requests}
        assert tenants == {"reader", "writer"}
        # Phase indices match positions in the scenario's phase list.
        assert {io.phase_index for io in requests} <= set(
            range(len(scenario.phases))
        )

    def test_copy_request_carries_tags(self):
        io = IORequest(
            kind=IOKind.READ,
            offset_bytes=0,
            size_bytes=4 * KB,
            arrival_ns=0,
            tenant="a",
            phase_index=2,
        )
        clone = copy_request(io, arrival_ns=99)
        assert (clone.tenant, clone.phase_index) == ("a", 2)
        retagged = copy_request(io, tenant="b", phase_index=0)
        assert (retagged.tenant, retagged.phase_index) == ("b", 0)

    def test_non_scenario_generators_leave_tags_none(self):
        spec = WorkloadSpec.random(
            "plain", num_requests=4, size_bytes=4 * KB, seed=3
        )
        assert all(io.tenant is None for io in spec.build())
        assert all(io.phase_index is None for io in spec.build())


class TestAttributionReconciliation:
    @pytest.mark.parametrize("case_name", sorted({c.name for c in tiny_suite()}))
    def test_reconciles_exactly_on_tiny_suite(self, case_name):
        for job in tiny_case(case_name).jobs:
            result = job.execute()
            if job.workload.generator == "scenario":
                assert result.attribution is not None
                assert reconcile_attribution(result) == []
            else:
                assert result.attribution is None
                assert reconcile_attribution(result)

    def test_scenario_cases_exist(self):
        generators = {
            job.workload.generator for case in tiny_suite() for job in case.jobs
        }
        assert "scenario" in generators  # the parametrization above has teeth

    def test_pooled_samples_equal_aggregate_population(self):
        result = bursty_job().execute()
        report = result.attribution
        assert report.untagged_ios == 0
        assert sorted(report.pooled_samples()) == sorted(result.latency.samples_ns)

    def test_counter_slices_ride_in_the_registry(self):
        result = bursty_job().execute()
        report = result.attribution
        for entry in report.tenant_totals():
            prefix = f"tenant.{entry.tenant}"
            assert result.counters[f"{prefix}.io.completed"] == entry.completed_ios
            assert result.counters[f"{prefix}.bytes.read"] == entry.read_bytes
            assert result.counters[f"{prefix}.bytes.written"] == entry.write_bytes
        tagged = sum(
            value
            for name, value in result.counters.items()
            if name.startswith("tenant.") and name.endswith(".io.completed")
        )
        assert tagged + report.untagged_ios == result.completed_ios

    def test_tenant_rollup_pools_phases(self):
        result = bursty_job().execute()
        report = result.attribution
        for tenant in report.tenants():
            pooled = report.by_tenant(tenant)
            slices = [e for e in report.entries if e.tenant == tenant]
            assert pooled.phase_index == -1
            assert pooled.completed_ios == sum(e.completed_ios for e in slices)
            assert pooled.total_bytes == sum(e.total_bytes for e in slices)
            assert pooled.latency.count == pooled.completed_ios
        with pytest.raises(KeyError):
            report.by_tenant("nobody")

    def test_untagged_remainder_derived_for_partial_tagging(self):
        tracker = AttributionTracker()
        tracker.record("a", 0, False, 4 * KB, now_ns=1_000, latency_ns=500)
        tracker.record("a", 0, True, 8 * KB, now_ns=2_000, latency_ns=700)
        report = tracker.finish(total_ios=5, total_bytes=64 * KB)
        assert report.untagged_ios == 3
        assert report.untagged_bytes == 64 * KB - 12 * KB
        (entry,) = report.entries
        assert (entry.reads, entry.writes) == (1, 1)
        assert (entry.read_bytes, entry.write_bytes) == (4 * KB, 8 * KB)

    def test_nothing_tagged_yields_no_report(self):
        assert AttributionTracker().finish(total_ios=7, total_bytes=1) is None


class TestAttributionDoesNotPerturb:
    def test_tagged_run_is_digest_identical_to_untagged(self):
        job = bursty_job()
        tagged = SSDSimulator(job.config, job.scheduler).run(
            job.workload.build(), workload_name="bursty"
        )
        untagged = SSDSimulator(job.config, job.scheduler).run(
            strip_tags(job.workload.build()), workload_name="bursty"
        )
        assert stable_fingerprint(tagged) == stable_fingerprint(untagged)
        assert tagged.attribution is not None
        assert untagged.attribution is None

    def test_health_sampled_run_is_digest_identical(self):
        job = bursty_job()
        plain = job.execute()
        sampled = SSDSimulator(
            job.config, job.scheduler, health_interval_ns=50_000
        ).run(job.workload.build(), workload_name=plain.workload)
        assert stable_fingerprint(sampled) == stable_fingerprint(plain)
        assert len(sampled.health) > 0
        assert plain.health == ()


class TestHealthSampler:
    def test_rejects_non_positive_knobs(self):
        with pytest.raises(ValueError):
            HealthSampler(0)

    def test_series_is_monotonic_and_gauges_sane(self):
        job = bursty_job()
        result = SSDSimulator(
            job.config, job.scheduler, health_interval_ns=50_000
        ).run(job.workload.build(), workload_name="bursty")
        samples = result.health
        assert len(samples) > 1
        times = [sample.t_ns for sample in samples]
        assert times == sorted(times)
        assert len(set(times)) == len(times)
        for sample in samples:
            assert sample.t_ns >= 50_000
            assert 0.0 <= sample.chip_busy_fraction <= 1.0
            geometry = job.config.geometry
            assert (
                sample.busy_chips
                <= geometry.num_channels * geometry.chips_per_channel
            )
            assert sample.min_free_blocks <= sample.total_free_blocks

    def test_retention_is_bounded_ring_buffer_style(self, monkeypatch):
        job = bursty_job()
        simulator = SSDSimulator(job.config, job.scheduler)
        full = HealthSampler(50_000)
        monkeypatch.setattr(health, "MAX_HEALTH_SAMPLES", 8)
        bounded = HealthSampler(50_000)
        for step in range(20):
            for sampler in (bounded, full):
                sampler.sample(simulator, step * 50_000)
        assert len(full.finish()) == 20 < MAX_HEALTH_SAMPLES
        assert bounded.finish() == full.finish()[-8:]  # oldest dropped first


class TestRunReports:
    def attributed_result(self):
        job = bursty_job()
        sink = MemoryTraceSink()
        simulator = SSDSimulator(
            job.config, job.scheduler, trace_sink=sink, health_interval_ns=50_000
        )
        return simulator.run(job.workload.build(), workload_name="bursty"), sink

    def test_markdown_report_carries_every_section(self):
        result, sink = self.attributed_result()
        text = render_markdown(
            run_report(result, slo=SLOThresholds(p99_us=0.001), sink=sink)
        )
        for tenant in result.attribution.tenants():
            assert f" {tenant} " in text
        assert "(all)" in text  # per-tenant roll-up rows
        assert "Reconciliation: per-tenant counts" in text
        assert "FAIL" in text  # sub-microsecond p99 ceiling cannot pass
        assert "## Health" in text
        assert "## Counters" in text
        assert "## Top spans" in text

    def test_html_report_carries_every_section(self):
        result, sink = self.attributed_result()
        text = render_html(run_report(result, slo=SLOThresholds(p99_us=1e9), sink=sink))
        assert text.startswith("<!DOCTYPE html>")
        for tenant in result.attribution.tenants():
            assert f"<td>{tenant}</td>" in text
        assert '<span class="pass">PASS</span>' in text  # generous ceiling passes
        assert "<svg" in text  # health sparklines are inline SVG
        assert "Reconciliation: per-tenant counts" in text

    def test_markdown_and_html_headings_match(self):
        result, sink = self.attributed_result()
        sections = run_report(result, slo=SLOThresholds(p99_us=1.0), sink=sink)
        markdown = re.findall(r"^#+ (.+)$", render_markdown(sections), re.M)
        page = re.findall(r"<h[12]>(.*?)</h[12]>", render_html(sections))
        assert len(markdown) == 6
        assert markdown == [html.unescape(heading) for heading in page]

    def test_markdown_tables_escape_pipes_in_tenant_names(self):
        job = bursty_job()
        requests = [
            copy_request(io, tenant="web|eu") if io.tenant == "reader" else io
            for io in job.workload.build()
        ]
        result = SSDSimulator(job.config, job.scheduler).run(requests, workload_name="w")
        assert "web|eu" in result.attribution.tenants()
        text = render_markdown(run_report(result, slo=SLOThresholds(p99_us=1.0)))
        assert "web\\|eu" in text

        def cells(line):
            return len(re.split(r"(?<!\\)\|", line)) - 2

        tables = re.findall(r"(?:^\|.*\n)+", text, re.M)
        assert len(tables) == 3  # tenants, SLO checks, tenant.* counters
        for table in tables:
            header, *rows = table.splitlines()
            assert all(cells(row) == cells(header) for row in rows), table

    def test_report_without_attribution_says_so(self):
        result = tiny_case("tiny-grid").jobs[0].execute()
        text = render_markdown(run_report(result))
        assert "No provenance tags recorded" in text
        assert slo_verdicts(result, SLOThresholds(p99_us=1.0)) == []

    def test_write_run_report_dispatches_on_suffix(self, tmp_path):
        result, _ = self.attributed_result()
        sections = run_report(result)
        html_path = write_report(tmp_path / "run.html", sections)
        md_path = write_report(tmp_path / "run.md", sections)
        txt_path = write_report(tmp_path / "run.txt", sections)
        assert html_path.read_text(encoding="utf-8").startswith("<!DOCTYPE html>")
        assert md_path.read_text(encoding="utf-8").startswith("# ")
        assert txt_path.read_text(encoding="utf-8") == md_path.read_text(encoding="utf-8")

    def test_slo_thresholds_check_each_configured_gauge(self):
        result, _ = self.attributed_result()
        slo = SLOThresholds(mean_us=1e9, p99_us=0.001)
        checks = slo_verdicts(result, slo)
        by_metric = {(c.tenant, c.metric): c for c in checks}
        for tenant in result.attribution.tenants():
            assert by_metric[(tenant, "mean")].ok
            assert not by_metric[(tenant, "p99")].ok
        assert not SLOThresholds()
        assert slo_verdicts(result, SLOThresholds()) == []

    def test_sparkline_shapes(self):
        assert sparkline([]) == ""
        assert sparkline([3, 3, 3]) == "▁▁▁"
        line = sparkline([0, 1, 2, 3, 4, 5, 6, 7])
        assert line == "▁▂▃▄▅▆▇█"

    def test_report_cli_writes_artifact(self, tmp_path):
        target = tmp_path / "bursty.md"
        code = obs_main(
            [
                "report",
                "--scenario",
                "bursty",
                "-o",
                str(target),
                "--chips",
                "8",
                "--slo-p99-us",
                "5000",
            ]
        )
        assert code == 0
        text = target.read_text(encoding="utf-8")
        assert "## Tenants" in text
        assert "## SLO checks" in text

    def test_report_cli_rejects_unknown_scenario(self, tmp_path, capsys):
        code = obs_main(
            ["report", "--scenario", "nope", "-o", str(tmp_path / "x.md")]
        )
        assert code == 2
        assert "unknown scenario" in capsys.readouterr().err


class TestArrayCounterSnapshots:
    def device_results(self):
        return [job.execute() for job in tiny_case("tiny-array").jobs]

    def test_merge_namespaces_per_device(self):
        results = self.device_results()
        merged = merge_device_results(
            results, scheduler="SPK3", workload="tiny-array-base", policy="striped"
        )
        for index, result in enumerate(results):
            for name, value in result.counters.items():
                assert merged.counters[f"dev{index}.{name}"] == value
        # Nothing beyond the namespaced per-device snapshots.
        assert len(merged.counters) == sum(len(r.counters) for r in results)

    def test_aggregate_counters_sum_across_devices(self):
        results = self.device_results()
        merged = merge_device_results(
            results, scheduler="SPK3", workload="tiny-array-base", policy="striped"
        )
        aggregate = merge_counter_snapshots([r.counters for r in merged.device_results])
        assert aggregate["io.completed"] == sum(
            r.counters["io.completed"] for r in results
        )
        assert aggregate["io.completed"] == merged.completed_ios


class TestEngineSkippedTraceMarker:
    def run_engine(self, tmp_path, trace_subdir, **kwargs):
        engine = ExecutionEngine(
            "serial",
            cache_dir=tmp_path / "cache",
            trace_dir=tmp_path / trace_subdir,
            **kwargs,
        )
        results = engine.run_jobs([bursty_job()])
        return engine, results

    def test_cache_hit_writes_skipped_marker(self, tmp_path):
        self.run_engine(tmp_path, "first")
        engine, results = self.run_engine(tmp_path, "second")
        assert engine.stats.cache_hits == 1
        markers = list((tmp_path / "second").glob(f"*{SKIPPED_TRACE_SUFFIX}"))
        assert len(markers) == 1
        marker = json.loads(markers[0].read_text(encoding="utf-8"))
        assert marker["status"] == "skipped-cache-hit"
        assert marker["job_fingerprint"] == bursty_job().fingerprint()
        assert marker["completed_ios"] == results[0].completed_ios

    def test_no_marker_when_trace_already_exists(self, tmp_path):
        self.run_engine(tmp_path, "traces")
        self.run_engine(tmp_path, "traces")  # cache hit, but trace is present
        directory = tmp_path / "traces"
        assert list(directory.glob("*.trace.json"))
        assert list(directory.glob(f"*{SKIPPED_TRACE_SUFFIX}")) == []


class TestProgressHeartbeat:
    def test_heartbeat_prints_per_job_lines(self, tmp_path, capsys):
        engine = ExecutionEngine("serial", progress=True)
        engine.run_jobs(list(tiny_case("tiny-array").jobs))
        err = capsys.readouterr().err
        lines = [line for line in err.splitlines() if line.startswith("[engine]")]
        assert len(lines) == 2
        assert "1/2" in lines[0] and "2/2" in lines[1]
        assert "events/s" in lines[0]
        assert "eta" in lines[0]

    def test_quiet_by_default(self, capsys):
        ExecutionEngine("serial").run_jobs([bursty_job()])
        assert "[engine]" not in capsys.readouterr().err

    def test_cli_flag_round_trips(self):
        engine = engine_from_cli("test", ["--progress"])
        assert engine.progress is True
        assert engine_from_cli("test", []).progress is False
