#!/usr/bin/env python3
"""Same-host benchmark gate: this tree (head) against a base tree.

Usage, from anywhere::

    python tools/bench_gate.py BASE_TREE

``BASE_TREE`` is a checkout of the commit to compare against (in CI, a
``git worktree`` of the pull request's base).  For every workload declared
in this tree's ``BENCHMARK.json`` the gate runs the benchmark command in
both trees, ``PAIRS`` times each, alternating base and head so slow spells
of a shared host hit both sides alike.  Every run has the same fixed
length (``RUN_ARGS``).  The last line of a run's output is its JSON result.

It prints one row per (workload, end-to-end metric): the base median, the
head median, the base inter-quartile range and a verdict.  A metric FAILs
when the head median is worse than the base median by more than the
metric's relative ``bound`` *and* by more than the base IQR; a gap past the
bound but within the IQR is "unresolved" - the base runs alone spread that
far.  A workload also FAILs when any head run reports ``"correct": false``
or a larger failed share than the base runs.  Exit status is 1 on any
FAIL, else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

HEAD_TREE = Path(__file__).resolve().parent.parent

#: Alternating (base, head) run pairs per workload.
PAIRS = 5
#: Arguments of every run after ``--workload NAME``.
RUN_ARGS = ("--seed", "7", "--seconds", "10", "--trace", "0")

#: Stand-in result of a run that crashed or printed no JSON line.
CRASHED = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}


@dataclass(frozen=True)
class Row:
    """One (workload, metric) line of the gate table."""

    workload: str
    metric: str
    unit: str
    base: float
    head: float
    iqr: float
    verdict: str


def run_once(command: Sequence[str], tree: Path, workload: str) -> dict:
    """Run the benchmark once in ``tree`` and return its JSON result."""
    proc = subprocess.run(
        [*command, "--workload", workload, *RUN_ARGS],
        cwd=tree,
        capture_output=True,
        text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0 and lines:
        try:
            return json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    print(f"{tree}: {workload} run failed\n{proc.stderr[-2000:]}", file=sys.stderr)
    return CRASHED


def failed_share(runs: List[dict]) -> float:
    """Failed operations over attempted ones, pooled across ``runs``."""
    attempted = sum(run["attempted"] for run in runs)
    return sum(run["failed"] for run in runs) / attempted if attempted else 0.0


def iqr(values: List[float]) -> float:
    """Inter-quartile range (0 for fewer than two values)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def judge(
    workload: str, metrics: List[dict], base_runs: List[dict], head_runs: List[dict]
) -> Tuple[List[Row], List[str]]:
    """The table rows of one workload and its correctness failures.

    ``metrics`` are the ``end_to_end`` entries of ``BENCHMARK.json``; the
    runs are the benchmark's JSON results.
    """
    failures = []
    if any(not run["correct"] for run in head_runs):
        failures.append(f"{workload}: a head run reports \"correct\": false")
    if failed_share(head_runs) > failed_share(base_runs):
        failures.append(f"{workload}: head failed share exceeds the base's")
    rows = []
    for entry in metrics:
        name = entry["name"]
        base = [run["metrics"][name]["value"] for run in base_runs if name in run["metrics"]]
        head = [run["metrics"][name]["value"] for run in head_runs if name in run["metrics"]]
        if not base or not head:
            failures.append(f"{workload}: no {'base' if not base else 'head'} value of {name}")
            continue
        base_median, head_median = statistics.median(base), statistics.median(head)
        spread = iqr(base)
        worse_by = head_median - base_median
        if entry["better"] == "higher":
            worse_by = -worse_by
        if worse_by <= entry["bound"] * abs(base_median):
            verdict = "ok"
        elif worse_by > spread:
            verdict = "FAIL"
        else:
            verdict = "unresolved"
        rows.append(Row(workload, name, entry["unit"], base_median, head_median, spread, verdict))
    return rows, failures


def format_table(rows: List[Row]) -> str:
    """Render the gate rows as a fixed-width table."""
    lines = [
        f"{'workload':<16}{'metric':<22}{'base median':>16}{'head median':>16}"
        f"{'base IQR':>14}  {'unit':<6}verdict"
    ]
    for row in rows:
        lines.append(
            f"{row.workload:<16}{row.metric:<22}{row.base:>16.4f}{row.head:>16.4f}"
            f"{row.iqr:>14.4f}  {row.unit:<6}{row.verdict}"
        )
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base_tree", type=Path, help="checkout of the commit to compare against")
    base_tree = parser.parse_args(argv).base_tree.resolve()
    if not (base_tree / "perfbench" / "run.py").is_file():
        parser.error(f"{base_tree} has no perfbench/run.py")
    declared = json.loads((HEAD_TREE / "BENCHMARK.json").read_text())

    rows: List[Row] = []
    failures: List[str] = []
    for workload in (entry["name"] for entry in declared["workloads"]):
        runs: Dict[str, List[dict]] = {"base": [], "head": []}
        for pair in range(PAIRS):
            order = ("base", "head") if pair % 2 == 0 else ("head", "base")
            for side in order:
                tree = base_tree if side == "base" else HEAD_TREE
                runs[side].append(run_once(declared["command"], tree, workload))
                print(f"{workload}: pair {pair + 1}/{PAIRS} {side} done", file=sys.stderr)
        workload_rows, workload_failures = judge(
            workload, declared["end_to_end"], runs["base"], runs["head"]
        )
        rows += workload_rows
        failures += workload_failures

    print(format_table(rows))
    failures += [f"{row.workload}: {row.metric} regressed" for row in rows if row.verdict == "FAIL"]
    for failure in failures:
        print(f"FAIL: {failure}")
    print("gate: FAIL" if failures else "gate: pass")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
