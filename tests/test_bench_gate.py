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


EVENTS = {"name": "events_per_s", "unit": "1/s", "better": "higher", "bound": 0.25}
WALL = {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25}


def paired(base_values, head_values):
    """Base and head runs of ``events_per_s``, pair ``i`` at index ``i``."""
    return [run(1.0, v) for v in base_values], [run(1.0, v) for v in head_values]


def test_claim_with_nine_of_ten_wins_past_the_iqr_is_a_gain(gate):
    base, head = paired(
        [100, 102, 98, 101, 99, 100, 103, 97, 100, 101],
        [120, 121, 119, 122, 118, 120, 121, 96, 123, 120],
    )
    claim = gate.judge_claim("paper-grid", EVENTS, base, head)
    assert (claim.wins, claim.pairs, claim.verdict) == (9, 10, "GAIN")
    assert claim.base[1] == 100.0 and claim.head[1] == 120.0
    assert "9/10" in claim.line() and claim.line().endswith("GAIN")
    winners = [winner for _, _, winner in claim.pair_results]
    assert winners == ["head"] * 7 + ["base"] + ["head"] * 2
    assert claim.table().splitlines()[8].split() == ["8", "97.0000", "96.0000", "base"]


def test_claim_with_eight_wins_is_not_met(gate):
    base, head = paired([100] * 10, [120] * 8 + [90, 90])
    claim = gate.judge_claim("paper-grid", EVENTS, base, head)
    assert (claim.wins, claim.verdict) == (8, "NOT MET")


def test_ties_count_for_neither_side(gate):
    base, head = paired([100] * 10, [130] * 9 + [100])
    claim = gate.judge_claim("paper-grid", EVENTS, base, head)
    assert (claim.wins, claim.verdict) == (9, "GAIN")
    assert claim.pair_results[-1] == (100, 100, "tie")
    base, head = paired([100] * 10, [130] * 8 + [100, 100])
    assert gate.judge_claim("paper-grid", EVENTS, base, head).wins == 8


def test_claim_gap_within_base_iqr_is_not_met(gate):
    # Every pair won, but the base runs alone spread wider than the gap.
    base, head = paired(
        [80, 120, 85, 115, 90, 110, 95, 105, 82, 118],
        [81, 121, 86, 116, 91, 111, 96, 106, 83, 119],
    )
    claim = gate.judge_claim("paper-grid", EVENTS, base, head)
    assert claim.wins == 10
    assert claim.verdict == "NOT MET"


def test_claim_on_a_lower_is_better_metric(gate):
    base = [run(w) for w in (3.5, 3.6, 3.4, 3.5, 3.55, 3.45, 3.5, 3.6, 3.4, 3.5)]
    head = [run(w) for w in (2.9, 2.8, 3.0, 2.9, 2.85, 2.95, 2.9, 2.8, 3.0, 2.9)]
    claim = gate.judge_claim("paper-grid", WALL, base, head)
    assert (claim.wins, claim.verdict) == (10, "GAIN")
    # The same runs the other way round: a slowdown is no gain.
    assert gate.judge_claim("paper-grid", WALL, head, base).verdict == "NOT MET"
