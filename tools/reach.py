#!/usr/bin/env python3
"""Production-reachability census: the ``src/`` functions no shipped entry point runs.

Usage, from anywhere::

    python tools/reach.py

Runs every command of :data:`ENTRY_POINTS` - each artifact of
``python -m repro.experiments``, the fleet sweep, every example, every
perfbench workload and every ``python -m repro.obs`` subcommand, between
them passing every documented flag - in its own subprocess under
``python -m cProfile``.  The commands share one temporary directory
holding copies of ``examples/``, ``perfbench/`` and ``BENCHMARK.json``, so
every file they write (caches, traces, reports) lands there and never in
the checkout.

The profiles are merged and matched against every function and method
defined under ``src/repro`` (nested functions included) by file and first
line: a profile keys a function by ``co_firstlineno``, which is the line of
its first decorator.  A function that no command ran reproduces nothing
unless it is excused in ``tools/api_budget.py``: by ``ALLOWLIST`` (names
only tests call) or by ``REACH_ALLOWLIST`` (names a caller exists for by
name, but no entry point runs, each with one of its closed set of reasons).

Prints the function count, the never-ran count and the never-ran lines.
The exit status is the number of never-ran functions not allowlisted plus
the ``REACH_ALLOWLIST`` entries that ran or name nothing, so CI can run it
bare.  It takes about five minutes on two cores.
"""

from __future__ import annotations

import ast
import os
import pstats
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Dict, List, Set, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent))

from api_budget import ALLOWLIST, REACH_ALLOWLIST, REPO_ROOT  # noqa: E402

#: What the census copies into its working directory: the scripts write
#: their outputs next to themselves.
COPIED = ("examples", "perfbench", "BENCHMARK.json")

_ARTIFACTS = (
    "table01",
    "figure01",
    "figure06",
    "figure10",
    "figure11",
    "figure12",
    "figure13",
    "figure14",
    "figure15",
    "figure16",
    "figure17",
    "array_scaling",
    "scenario_matrix",
    "steady_state",
)
_EXAMPLES = (
    "device_zoo_tour",
    "garbage_collection_study",
    "quickstart",
    "scenario_study",
    "scheduler_comparison",
    "tenant_report",
    "trace_tour",
    "utilization_sweep",
)
_CANONICAL_CASES = ("figure06", "transfer", "array4", "bursty", "aged", "gcheavy", "zoo")
_ENGINE_FLAGS = ("--cache-dir", "cache", "--trace-dir", "traces", "--progress")
_FLEET = ("-m", "repro.experiments.fleet_sweep")

#: The census commands, each the argument list after
#: ``python -m cProfile -o STATS``, in chains: a chain runs in order (a
#: later command reads what an earlier one wrote: a cached rerun, a trace
#: to summarize; the perfbench runs share one scratch directory), and
#: :data:`WORKERS` chains run at once.
CHAINS: Tuple[Tuple[Tuple[str, ...], ...], ...] = (
    *((("-m", "repro.experiments", artifact),) for artifact in _ARTIFACTS),
    *(
        (
            ("-m", "repro.experiments", artifact, *_ENGINE_FLAGS),
            # Served from the cache: each job's trace becomes a skip marker.
            ("-m", "repro.experiments", artifact, "--cache-dir", "cache", "--trace-dir", "traces"),
        )
        for artifact in ("figure17", "steady_state")
    ),
    *(
        (("-m", "repro.experiments", artifact, *_ENGINE_FLAGS),)
        for artifact in ("array_scaling", "scenario_matrix")
    ),
    (("-m", "repro.experiments", "figure12", "--backend", "process", "--workers", "2"),),
    (_FLEET,),
    ((*_FLEET, "--report", "fleet.md"),),
    ((*_FLEET, "--report", "fleet.html"),),
    ((*_FLEET, "--cache-dir", "cache"),),
    (
        (
            *_FLEET,
            "--sizes", "2",
            "--placements", "round-robin", "least-loaded",
            "--requests-per-tenant", "12",
            "--seed", "3",
        ),
    ),
    *(((f"examples/{example}.py",),) for example in _EXAMPLES),
    tuple(
        ("perfbench/run.py", "--workload", workload, "--seconds", "0")
        for workload in ("paper-grid", "aged-overwrite", "fleet-day")
    ),
    *(
        (("-m", "repro.obs", "export", "--case", case, "-o", f"{case}.trace.json"),)
        for case in _CANONICAL_CASES
        if case != "bursty"
    ),
    (
        ("-m", "repro.obs", "export", "--case", "bursty", "-o", "bursty.trace.json"),
        ("-m", "repro.obs", "summarize", "bursty.trace.json"),
        ("-m", "repro.obs", "top-spans", "bursty.trace.json", "-n", "5"),
    ),
    (("-m", "repro.obs", "export", "--case", "tiny-bursty", "--tiny", "-o", "tiny.trace.json"),),
    *(
        (("-m", "repro.obs", "report", "--scenario", scenario, "-o", f"{scenario}.{suffix}"),)
        for scenario in ("steady", "bursty", "diurnal")
        for suffix in ("html", "md")
    ),
    (
        (
            "-m", "repro.obs", "report", "--scenario", "bursty",
            "--chips", "16", "--slo-p99-us", "200000", "-o", "bursty.slo.html",
        ),
    ),
    (
        (
            "-m", "repro.obs", "report", "--scenario", "steady",
            "--scheduler", "VAS", "--chips", "8", "--seed", "3", "--health-interval-us", "100",
            "--slo-mean-us", "50000", "--slo-p99-us", "200000", "--slo-p999-us", "400000",
            "-o", "steady.slo.md",
        ),
    ),
)
ENTRY_POINTS = tuple(entry for chain in CHAINS for entry in chain)
#: Chains run at once: the machine's cores, at most two.
WORKERS = min(2, os.cpu_count() or 1)


def _first_line(node: ast.AST) -> int:
    """The line a profile keys ``node`` by: its first decorator's, else its own."""
    return min([node.lineno, *(decorator.lineno for decorator in node.decorator_list)])


def functions(root: Path = REPO_ROOT) -> Dict[Tuple[str, int], Tuple[str, int]]:
    """``(path, first line) -> (module:Qualified.name, lines)`` of every ``src/repro`` function."""
    found: Dict[Tuple[str, int], Tuple[str, int]] = {}

    def visit(body: List[ast.stmt], path: str, prefix: str) -> None:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = _first_line(node)
                found[(path, first)] = (f"{prefix}{node.name}", node.end_lineno - first + 1)
                visit(node.body, path, f"{prefix}{node.name}.")
            elif isinstance(node, ast.ClassDef):
                visit(node.body, path, f"{prefix}{node.name}.")
            else:
                # Functions defined under ``if``/``try``/``with`` still count.
                for field in ("body", "orelse", "finalbody", "handlers"):
                    nested = getattr(node, field, None)
                    if isinstance(nested, list):
                        visit(nested, path, prefix)

    for path in sorted((root / "src" / "repro").rglob("*.py")):
        module = ".".join(path.relative_to(root / "src").with_suffix("").parts)
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        visit(tree.body, str(path.resolve()), f"{module}:")
    return found


def _run_chain(chain: Tuple[Tuple[str, ...], ...], workdir: Path, stats_dir: Path) -> List[Path]:
    """Run one chain's entry points under cProfile in ``workdir``; their profiles."""
    profiles = []
    for entry in chain:
        profile = stats_dir / f"{ENTRY_POINTS.index(entry):03d}.prof"
        started = time.perf_counter()
        completed = subprocess.run(
            [sys.executable, "-m", "cProfile", "-o", str(profile), *entry],
            cwd=workdir,
            env=dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src")),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
        )
        if completed.returncode:
            raise RuntimeError(f"entry point failed: {' '.join(entry)}\n{completed.stderr}")
        print(f"ran {' '.join(entry)} ({time.perf_counter() - started:.1f} s)", file=sys.stderr)
        profiles.append(profile)
    return profiles


def run_entry_points(workdir: Path, stats_dir: Path) -> List[Path]:
    """Run every entry point under cProfile; the profile paths."""
    for name in COPIED:
        source = REPO_ROOT / name
        if source.is_dir():
            shutil.copytree(source, workdir / name, ignore=shutil.ignore_patterns("__pycache__"))
        else:
            shutil.copy(source, workdir / name)
    with ThreadPoolExecutor(WORKERS) as pool:
        futures = [pool.submit(_run_chain, chain, workdir, stats_dir) for chain in CHAINS]
        return [profile for future in futures for profile in future.result()]


def ran(profiles: List[Path]) -> Set[Tuple[str, int]]:
    """``(path, first line)`` of every function the profiles recorded."""
    keys: Set[Tuple[str, int]] = set()
    for profile in profiles:
        for filename, line, _ in pstats.Stats(str(profile)).stats:
            keys.add((filename, line))
    return keys


def main() -> int:
    started = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="reach-") as scratch:
        workdir, stats_dir = Path(scratch, "work"), Path(scratch, "stats")
        workdir.mkdir()
        stats_dir.mkdir()
        executed = ran(run_entry_points(workdir, stats_dir))
    defined = functions()
    never = {key: defined[key] for key in defined.keys() - executed}
    excused = ALLOWLIST | REACH_ALLOWLIST.keys()
    violations = sorted(name for name, _ in never.values() if name not in excused)
    never_names = {name for name, _ in never.values()}
    stale = sorted(name for name in REACH_ALLOWLIST if name not in never_names)
    print(
        f"functions: {len(defined)}; never ran: {len(never)} "
        f"({sum(lines for _, lines in never.values())} lines); "
        f"not allowlisted: {len(violations)}; stale allowlist entries: {len(stale)}; "
        f"{len(ENTRY_POINTS)} entry points in {time.perf_counter() - started:.0f} s"
    )
    for name in violations:
        print(f"NEVER RAN {name}", file=sys.stderr)
    for name in stale:
        print(f"STALE {name}", file=sys.stderr)
    return len(violations) + len(stale)


if __name__ == "__main__":
    sys.exit(main())
