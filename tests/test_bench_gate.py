"""The same-host benchmark gate's decision rule (``tools/bench_gate.py``).

The gate itself runs the benchmark for minutes; these tests feed its
decision function synthetic run results instead.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

METRICS = [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "events_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
]


@pytest.fixture(scope="module")
def gate():
    path = REPO_ROOT / "tools" / "bench_gate.py"
    spec = importlib.util.spec_from_file_location("bench_gate", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules["bench_gate"] = module
    spec.loader.exec_module(module)
    return module


def run(wall_s, events_per_s=1000.0, *, correct=True, failed=0):
    return {
        "correct": correct,
        "attempted": 10,
        "failed": failed,
        "metrics": {
            "wall_s": {"value": wall_s, "unit": "s"},
            "events_per_s": {"value": events_per_s, "unit": "1/s"},
        },
    }


def verdicts(rows):
    return {row.metric: row.verdict for row in rows}


def test_within_bound_passes(gate):
    base = [run(w) for w in (1.0, 1.02, 0.98, 1.01, 0.99)]
    head = [run(w, 900.0) for w in (1.1, 1.12, 1.08, 1.11, 1.09)]
    rows, failures = gate.judge("w", METRICS, base, head)
    assert verdicts(rows) == {"wall_s": "ok", "events_per_s": "ok"}
    assert failures == []
    assert rows[0].base == 1.0 and rows[0].head == 1.1
    assert rows[0].iqr == pytest.approx(0.02)


def test_regression_past_bound_and_noise_fails(gate):
    base = [run(w) for w in (1.0, 1.02, 0.98, 1.01, 0.99)]
    head = [run(w, 500.0) for w in (1.5, 1.52, 1.48, 1.51, 1.49)]
    rows, failures = gate.judge("w", METRICS, base, head)
    assert verdicts(rows) == {"wall_s": "FAIL", "events_per_s": "FAIL"}
    assert failures == []


def test_gap_within_base_noise_is_unresolved(gate):
    # Base IQR 0.6 s: a 0.4 s (40%) slowdown is past the bound, not the noise.
    base = [run(w) for w in (0.6, 0.7, 1.0, 1.3, 1.4)]
    head = [run(w) for w in (1.4, 1.4, 1.4, 1.4, 1.4)]
    rows, failures = gate.judge("w", METRICS, base, head)
    assert verdicts(rows) == {"wall_s": "unresolved", "events_per_s": "ok"}
    assert failures == []


def test_incorrect_head_run_fails(gate):
    base = [run(1.0) for _ in range(5)]
    head = [run(1.0) for _ in range(4)] + [run(1.0, correct=False, failed=1)]
    rows, failures = gate.judge("w", METRICS, base, head)
    assert verdicts(rows) == {"wall_s": "ok", "events_per_s": "ok"}
    assert any('"correct": false' in failure for failure in failures)
    assert any("failed share" in failure for failure in failures)
