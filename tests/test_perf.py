"""Tests for the pinned-seed workload suites (``repro.perf``).

Covers the two contract surfaces:

* suite definitions: the canonical suite's shape and stable case
  fingerprints;
* bit-identity: every tiny and canonical case must reproduce the golden
  result digest in ``tests/data/perf_golden.json`` - any semantic drift in
  the simulator shows up here as a digest mismatch.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.perf.suite import PerfCase, canonical_suite, tiny_suite
from repro.sim.config import stable_fingerprint

GOLDEN_PATH = Path(__file__).parent / "data" / "perf_golden.json"


def case_fingerprint(case: PerfCase) -> str:
    """Content hash over every job of ``case``: its golden recipe key.

    A golden result digest applies only while the fingerprint matches -
    i.e. the workloads, configs and schedulers behind it are the same.
    """
    jobs = tuple(job.fingerprint() for job in case.jobs)
    return stable_fingerprint(("perf-case", case.name, jobs))


def result_digest(case: PerfCase) -> str:
    """Content digest over every SimulationResult of ``case``, in job order."""
    return stable_fingerprint(("perf-results", tuple(job.execute() for job in case.jobs)))


class TestSuiteDefinitions:
    def test_canonical_suite_shape(self):
        suite = canonical_suite()
        names = [case.name for case in suite]
        assert names == [
            "figure06",
            "transfer",
            "array4",
            "bursty",
            "aged",
            "gcheavy",
            "zoo",
        ]
        assert all(case.jobs for case in suite)

    def test_case_fingerprints_are_stable(self):
        first = {case.name: case_fingerprint(case) for case in canonical_suite()}
        second = {case.name: case_fingerprint(case) for case in canonical_suite()}
        assert first == second



class TestBitIdentity:
    """The optimized simulator must reproduce pre-optimization results."""

    @pytest.fixture(scope="class")
    def golden(self):
        return json.loads(GOLDEN_PATH.read_text())["cases"]

    def assert_matches_golden(self, golden, case: PerfCase) -> None:
        assert case.name in golden, f"golden file is missing case {case.name!r}"
        expected = golden[case.name]
        assert case_fingerprint(case) == expected["fingerprint"], (
            f"{case.name!r} workload recipe changed; bit-identity against the "
            "golden digests is no longer meaningful - re-record the goldens "
            "only together with an intentional semantics change"
        )
        assert result_digest(case) == expected["result_digest"], (
            f"simulation results of {case.name!r} diverged from the golden digest"
        )

    @pytest.mark.parametrize("case_name", [case.name for case in tiny_suite()])
    def test_tiny_case_matches_pre_optimization_golden(self, golden, case_name):
        case = {c.name: c for c in tiny_suite()}[case_name]
        self.assert_matches_golden(golden, case)

    @pytest.mark.parametrize("case_name", [case.name for case in canonical_suite()])
    def test_quick_case_matches_golden(self, golden, case_name):
        case = {c.name: c for c in canonical_suite()}[case_name]
        self.assert_matches_golden(golden, case)

    def test_every_golden_case_is_checked(self, golden):
        checked = {case.name for case in (*tiny_suite(), *canonical_suite())}
        assert set(golden) == checked

    def test_repeat_runs_are_deterministic(self):
        case = tiny_suite()[0]
        first = [job.execute() for job in case.jobs]
        second = [job.execute() for job in case.jobs]
        assert stable_fingerprint(first) == stable_fingerprint(second)
        assert [r.events_processed for r in first] == [r.events_processed for r in second]
