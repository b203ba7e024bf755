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

With ``--claim WORKLOAD:METRIC`` the gate runs that workload only, for
``--pairs`` alternating pairs (default 10), prints its table and then
judges the claimed gain: each pair is a win when the head run is better
than its base run (a tie counts for neither side); the claim is a GAIN when
the head wins at least nine tenths of the pairs *and* the medians differ by
more than the base IQR, else NOT MET (exit status 1).  ``--seed`` picks
the workload seed of every run (default 7), so a claim can be checked on a
seed the change was not written against.
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

#: Alternating (base, head) run pairs per workload, and per claim.
PAIRS = 5
CLAIM_PAIRS = 10
#: Share of pairs the head must win for a claimed gain.
CLAIM_WIN_SHARE = 0.9
#: Workload seed of every run unless ``--seed`` says otherwise.
SEED = 7
#: Arguments of every run after ``--workload NAME --seed N``.
RUN_ARGS = ("--seconds", "10", "--trace", "0")

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


def run_once(command: Sequence[str], tree: Path, workload: str, seed: int = SEED) -> dict:
    """Run the benchmark once in ``tree`` and return its JSON result."""
    proc = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed), *RUN_ARGS],
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


@dataclass(frozen=True)
class Claim:
    """The verdict on a claimed gain of one metric on one workload."""

    workload: str
    metric: str
    #: ``(Q1, median, Q3)`` of the base and of the head runs.
    base: Tuple[float, float, float]
    head: Tuple[float, float, float]
    verdict: str
    #: ``(base, head, winner)`` of every pair, in run order; the winner is
    #: ``"base"``, ``"head"`` or ``"tie"``.
    pair_results: Tuple[Tuple[float, float, str], ...]

    @property
    def wins(self) -> int:
        """Pairs the head won."""
        return sum(winner == "head" for _, _, winner in self.pair_results)

    @property
    def pairs(self) -> int:
        """Pairs with a value on both sides."""
        return len(self.pair_results)

    def table(self) -> str:
        """One row per pair: both values and which side won."""
        lines = [f"{'pair':<6}{'base':>16}{'head':>16}  winner"]
        for index, (base, head, winner) in enumerate(self.pair_results, start=1):
            lines.append(f"{index:<6}{base:>16.4f}{head:>16.4f}  {winner}")
        return "\n".join(lines)

    def line(self) -> str:
        """One printable summary: wins, medians and quartiles, verdict."""
        gap = self.head[1] - self.base[1]
        return (
            f"claim {self.workload}:{self.metric}: head won {self.wins}/{self.pairs} pairs; "
            f"base median {self.base[1]:.4f} (Q1 {self.base[0]:.4f}, Q3 {self.base[2]:.4f}), "
            f"head median {self.head[1]:.4f} (Q1 {self.head[0]:.4f}, Q3 {self.head[2]:.4f}), "
            f"gap {gap:+.4f} ({gap / self.base[1]:+.1%} of base) vs base IQR "
            f"{self.base[2] - self.base[0]:.4f}: {self.verdict}"
        )


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """``(Q1, median, Q3)``; all three equal the value for a single run."""
    if len(values) < 2:
        return (values[0],) * 3
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def judge_claim(
    workload: str, entry: dict, base_runs: List[dict], head_runs: List[dict]
) -> Claim:
    """Judge a claimed gain of ``entry``'s metric over paired runs.

    ``base_runs[i]`` and ``head_runs[i]`` form pair ``i``.  A pair is a win
    when its head value is better (``entry["better"]``); ties count for
    neither side.  GAIN needs at least :data:`CLAIM_WIN_SHARE` of the
    pairs won and a median gap larger than the base IQR.
    """
    name = entry["name"]
    sign = 1.0 if entry["better"] == "higher" else -1.0
    pair_results = []
    for base_run, head_run in zip(base_runs, head_runs):
        if name not in base_run["metrics"] or name not in head_run["metrics"]:
            continue
        base = base_run["metrics"][name]["value"]
        head = head_run["metrics"][name]["value"]
        gain = sign * (head - base)
        pair_results.append((base, head, "head" if gain > 0 else "base" if gain < 0 else "tie"))
    if not pair_results:
        return Claim(workload, name, (0.0,) * 3, (0.0,) * 3, "NOT MET", ())
    wins = sum(winner == "head" for _, _, winner in pair_results)
    base_q = quartiles([base for base, _, _ in pair_results])
    head_q = quartiles([head for _, head, _ in pair_results])
    gained = sign * (head_q[1] - base_q[1]) > base_q[2] - base_q[0]
    won = wins >= CLAIM_WIN_SHARE * len(pair_results)
    verdict = "GAIN" if gained and won else "NOT MET"
    return Claim(workload, name, base_q, head_q, verdict, tuple(pair_results))


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


def run_pairs(
    command: Sequence[str], base_tree: Path, workload: str, pairs: int, seed: int
) -> Dict[str, List[dict]]:
    """``pairs`` alternating (base, head) runs of one workload."""
    runs: Dict[str, List[dict]] = {"base": [], "head": []}
    for pair in range(pairs):
        order = ("base", "head") if pair % 2 == 0 else ("head", "base")
        for side in order:
            tree = base_tree if side == "base" else HEAD_TREE
            runs[side].append(run_once(command, tree, workload, seed))
            print(f"{workload}: pair {pair + 1}/{pairs} {side} done", file=sys.stderr)
    return runs


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base_tree", type=Path, help="checkout of the commit to compare against")
    parser.add_argument(
        "--claim", metavar="WORKLOAD:METRIC", help="judge a claimed gain on one workload"
    )
    parser.add_argument(
        "--pairs", type=int, help=f"run pairs (default {PAIRS}, {CLAIM_PAIRS} with --claim)"
    )
    parser.add_argument("--seed", type=int, default=SEED, help=f"workload seed (default {SEED})")
    args = parser.parse_args(argv)
    base_tree = args.base_tree.resolve()
    if not (base_tree / "perfbench" / "run.py").is_file():
        parser.error(f"{base_tree} has no perfbench/run.py")
    declared = json.loads((HEAD_TREE / "BENCHMARK.json").read_text())
    workloads = [entry["name"] for entry in declared["workloads"]]
    metrics = {entry["name"]: entry for entry in declared["end_to_end"]}
    claimed = None
    if args.claim is not None:
        workload, _, metric = args.claim.partition(":")
        if workload not in workloads or metric not in metrics:
            parser.error(f"--claim needs WORKLOAD:METRIC from BENCHMARK.json, got {args.claim!r}")
        workloads, claimed = [workload], metrics[metric]
    pairs = args.pairs or (CLAIM_PAIRS if claimed is not None else PAIRS)
    if pairs < 1:
        parser.error("--pairs must be at least 1")

    rows: List[Row] = []
    failures: List[str] = []
    claim: Optional[Claim] = None
    for workload in workloads:
        runs = run_pairs(declared["command"], base_tree, workload, pairs, args.seed)
        workload_rows, workload_failures = judge(
            workload, declared["end_to_end"], runs["base"], runs["head"]
        )
        rows += workload_rows
        failures += workload_failures
        if claimed is not None:
            claim = judge_claim(workload, claimed, runs["base"], runs["head"])

    print(format_table(rows))
    failures += [f"{row.workload}: {row.metric} regressed" for row in rows if row.verdict == "FAIL"]
    for failure in failures:
        print(f"FAIL: {failure}")
    print("gate: FAIL" if failures else "gate: pass")
    if claim is not None:
        print(claim.table())
        print(claim.line())
        if claim.verdict != "GAIN":
            return 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
