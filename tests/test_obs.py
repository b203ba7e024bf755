"""Tests for the observability package (``repro.obs``).

The contracts pinned here, in the order the package layers them:

* counters - the registry is a plain dict with aggregation semantics,
  and merging sums everything except the ``*.largest_batch`` maxima;
* tracing - a memory sink records spans, the null sink costs nothing,
  and a traced run's SimulationResult is digest-identical to an untraced
  run of the same job (tracing observes, never perturbs);
* windowed tails - the streaming per-window p50/p99/p999 series equals a
  brute-force full-history reference on every tiny-suite case;
* export - the Chrome-trace JSON validates, and its event count
  reconciles exactly with the counter registry;
* plumbing - ``--trace-dir`` artifacts from the engine, and the
  ``python -m repro.obs`` CLI.
"""

from __future__ import annotations

import json
from collections import Counter

import pytest

from repro.experiments.engine import ExecutionEngine
from repro.experiments.runner import (
    ExperimentScale,
    default_workload_specs,
    paper_config,
)
from repro.experiments.spec import ExperimentSpec
from repro.lifetime.state import DeviceState
from repro.obs import (
    NULL_SINK,
    MemoryTraceSink,
    chrome_trace_document,
    load_trace,
    merge_counter_snapshots,
    reference_tail_windows,
    span_event_count,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.__main__ import main as obs_main
from repro.obs.windows import format_tail_windows
from repro.perf.suite import tiny_suite
from repro.sim.config import SimulationConfig, stable_fingerprint
from repro.sim.ssd import SSDSimulator


def tiny_jobs():
    for case in tiny_suite():
        for job in case.jobs:
            yield case.name, job


def one_tiny_job(case_name="tiny-bursty"):
    for name, job in tiny_jobs():
        if name == case_name:
            return job
    raise AssertionError(f"no tiny-suite case named {case_name}")


def execute_traced(job):
    """Execute ``job`` with a fresh memory sink; return ``(result, sink)``."""
    sink = MemoryTraceSink()
    return job.execute(trace_sink=sink), sink


class TestCounterRegistry:
    """Counter snapshots: the sorted ``{name: int}`` dicts results carry, and their merge."""

    def test_merge_sums_and_sorts(self):
        merged = merge_counter_snapshots([{"b.second": 1, "a.first": 3}, {"b.second": 2}])
        assert merged == {"a.first": 3, "b.second": 3}
        assert list(merged) == ["a.first", "b.second"]

    def test_merge_sums_but_maxes_largest_batch(self):
        merged = merge_counter_snapshots(
            [
                {"events.processed": 10, "events.largest_batch": 4},
                {"events.processed": 7, "events.largest_batch": 9},
                {"events.processed": 1, "events.largest_batch": 2},
            ]
        )
        assert merged == {"events.processed": 18, "events.largest_batch": 9}

    def test_record_max_keeps_high_water_mark(self):
        merged = merge_counter_snapshots([{"events.largest_batch": 4}, {"events.largest_batch": 2}])
        assert merged == {"events.largest_batch": 4}
        result = one_tiny_job("tiny-grid").execute()
        assert result.counters["events.largest_batch"] == result.largest_event_batch >= 1

    def test_simulator_snapshot_is_sorted(self):
        result = one_tiny_job("tiny-grid").execute()
        assert list(result.counters) == sorted(result.counters)
        assert result.counters["io.completed"] == result.completed_ios


class TestTraceSinks:
    def test_null_sink_is_disabled_and_silent(self):
        assert NULL_SINK.enabled is False
        NULL_SINK.span("x", category="c", track="t", start_ns=0, duration_ns=1)
        NULL_SINK.instant("x", category="c", track="t", ts_ns=0)

    def test_memory_sink_records_and_ranks(self):
        sink = MemoryTraceSink()
        assert sink.enabled is True
        sink.span("short", category="c", track="t", start_ns=0, duration_ns=10)
        sink.span("long", category="c", track="t", start_ns=5, duration_ns=90)
        sink.instant("mark", category="c", track="t", ts_ns=7)
        assert sink.total_records == 3
        assert Counter(record.name for record in sink.records) == {
            "short": 1,
            "long": 1,
            "mark": 1,
        }
        longest = sink.longest(limit=1)
        assert [record.name for record in longest] == ["long"]


class TestWindowedTailsAgainstReference:
    @pytest.mark.parametrize(
        "case_name,job_index",
        [
            (case.name, index)
            for case in tiny_suite()
            for index in range(len(case.jobs))
        ],
    )
    def test_streaming_series_matches_full_history_reference(
        self, case_name, job_index
    ):
        case = {c.name: c for c in tiny_suite()}[case_name]
        result = case.jobs[job_index].execute()
        reference = reference_tail_windows(result.time_series)
        assert tuple(result.latency_windows) == tuple(reference)
        # Sanity: the windows partition all completions.
        assert sum(w.count for w in result.latency_windows) == result.completed_ios

    def test_format_tail_windows_renders_every_window(self):
        result = one_tiny_job().execute()
        table = format_tail_windows(result.latency_windows)
        assert len(table.splitlines()) == len(result.latency_windows) + 1


class TestTracingDoesNotPerturb:
    @pytest.mark.parametrize("case_name", sorted({c.name for c in tiny_suite()}))
    def test_traced_run_is_digest_identical(self, case_name):
        case = {c.name: c for c in tiny_suite()}[case_name]
        for job in case.jobs:
            plain = job.execute()
            traced, sink = execute_traced(job)
            assert stable_fingerprint(traced) == stable_fingerprint(plain)
            assert sink.total_records > 0


class TestSpanCounterReconciliation:
    @pytest.mark.parametrize(
        "case_name,job_index",
        [
            (case.name, index)
            for case in tiny_suite()
            for index in range(len(case.jobs))
        ],
    )
    def test_span_counts_reconcile_with_counters(self, case_name, job_index):
        case = {c.name: c for c in tiny_suite()}[case_name]
        result, sink = execute_traced(case.jobs[job_index])
        counts = Counter(record.name for record in sink.records)
        assert counts["io"] == result.counters["io.completed"]
        assert counts["txn"] == result.counters["transactions.host"]
        assert counts.get("gc", 0) == result.counters["transactions.gc"]
        assert counts.get("gc.trigger", 0) == result.counters["gc.triggers"]
        assert sink.total_records == result.counters["trace.spans"]

    def test_steady_state_aging_stays_out_of_the_trace(self):
        # Aging collections run before the clock starts; none reaches the sink.
        config = SimulationConfig.small(
            overprovisioning_fraction=0.15,
            device_state=DeviceState(steady_state=True, seed=3),
        )
        sink = MemoryTraceSink()
        simulator = SSDSimulator(config, "SPK3", trace_sink=sink)
        assert simulator.steady_state.gc_invocations > 0
        assert sink.total_records == 0
        assert simulator.gc.sink is sink

    def test_gc_case_emits_gc_spans(self):
        result, sink = execute_traced(one_tiny_job("tiny-gc"))
        counts = Counter(record.name for record in sink.records)
        assert result.counters["gc.triggers"] > 0
        assert counts["gc.trigger"] == result.counters["gc.triggers"]
        assert counts["gc"] == result.counters["transactions.gc"] > 0

    def test_untraced_run_still_reports_counters(self):
        result = one_tiny_job().execute()
        assert result.counters["trace.spans"] == 0
        assert result.counters["io.completed"] == result.completed_ios
        assert result.counters["events.processed"] == result.events_processed
        assert result.events_processed > 0
        assert result.event_batches > 0
        assert result.largest_event_batch >= 1


class TestChromeTraceExport:
    def test_document_validates_and_counts(self, tmp_path):
        result, sink = execute_traced(one_tiny_job())
        document = chrome_trace_document(sink, {"case": "tiny-bursty"})
        assert validate_chrome_trace(document) == []
        assert span_event_count(document) == sink.total_records
        path = write_chrome_trace(tmp_path / "out.trace.json", sink)
        loaded = load_trace(path)
        assert validate_chrome_trace(loaded) == []
        assert span_event_count(loaded) == sink.total_records

    def test_multi_sink_document_separates_processes(self):
        a, b = MemoryTraceSink(), MemoryTraceSink()
        a.span("x", category="c", track="t", start_ns=0, duration_ns=5)
        b.span("y", category="c", track="t", start_ns=0, duration_ns=5)
        document = chrome_trace_document([("job-a", a), ("job-b", b)])
        assert validate_chrome_trace(document) == []
        pids = {
            event["pid"]
            for event in document["traceEvents"]
            if event["ph"] in ("X", "i")
        }
        assert len(pids) == 2

    def test_validator_flags_malformed_documents(self):
        assert validate_chrome_trace({"traceEvents": "nope"})
        missing_keys = {
            "traceEvents": [{"ph": "X", "name": "n"}],
            "displayTimeUnit": "ns",
        }
        assert validate_chrome_trace(missing_keys)


class TestEngineTraceDir:
    def test_engine_writes_one_artifact_per_job(self, tmp_path):
        scale = ExperimentScale(
            requests_per_trace=24,
            requests_per_point=6,
            num_chips=16,
            traces=("cfs0",),
            seed=3,
        )
        spec = ExperimentSpec.matrix(
            "tiny-obs",
            default_workload_specs(scale).values(),
            ("SPK3",),
            paper_config(scale),
        )
        engine = ExecutionEngine("serial", trace_dir=tmp_path / "traces")
        plain = ExecutionEngine("serial").run(spec)
        traced = engine.run(spec)
        assert stable_fingerprint(traced) == stable_fingerprint(plain)
        artifacts = sorted((tmp_path / "traces").glob("*.trace.json"))
        assert len(artifacts) == len(spec.jobs)
        for path in artifacts:
            document = load_trace(path)
            assert validate_chrome_trace(document) == []
            assert span_event_count(document) > 0


class TestCli:
    def test_export_summarize_and_top_spans(self, tmp_path, capsys):
        out = tmp_path / "case.trace.json"
        assert (
            obs_main(["export", "--case", "tiny-grid", "--tiny", "-o", str(out)]) == 0
        )
        document = json.loads(out.read_text())
        assert validate_chrome_trace(document) == []
        assert span_event_count(document) > 0
        assert obs_main(["summarize", str(out)]) == 0
        summary = capsys.readouterr().out
        assert "counters:" in summary
        assert "io" in summary
        assert obs_main(["top-spans", str(out), "-n", "3"]) == 0
        top = capsys.readouterr().out
        assert len(top.strip().splitlines()) == 4

    def test_export_unknown_case_fails_cleanly(self, tmp_path):
        code = obs_main(
            ["export", "--case", "no-such", "--tiny", "-o", str(tmp_path / "x.json")]
        )
        assert code == 2


class TestTracedSimulatorWiring:
    def test_sink_propagates_to_components(self, test_config):
        sink = MemoryTraceSink()
        simulator = SSDSimulator(test_config, "SPK3", trace_sink=sink)
        assert simulator.sink is sink
        assert simulator._tracing is True
        assert simulator.gc.sink is sink
        assert all(c.sink is sink for c in simulator.controllers.values())

    def test_default_is_null_sink(self, test_config):
        simulator = SSDSimulator(test_config, "SPK3")
        assert simulator.sink is NULL_SINK
        assert simulator._tracing is False
