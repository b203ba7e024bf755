"""Shared execution engine for the experiment suite.

:class:`ExecutionEngine` takes an :class:`~repro.experiments.spec.ExperimentSpec`
(or a bare job list), executes every job through a pluggable backend and
reassembles the results in declaration order:

* ``serial`` - run jobs one after another in this process (the default; what
  the old per-figure loops did, minus the copy-pasta).
* ``process`` - fan jobs out over a :class:`concurrent.futures.ProcessPoolExecutor`.
  Only the *specs* are pickled to workers; each worker regenerates its
  workload from the spec's seed, so traces never cross the process boundary
  and results are bit-identical to a serial run.

Independently of the backend, completed jobs can be memoized in an on-disk
cache keyed by the job's content fingerprint: re-running a figure with one
knob changed only re-simulates the affected cells.

Command-line entry points share the ``--backend/--workers/--cache-dir``
flags via :func:`add_engine_arguments` / :func:`engine_from_cli`::

    PYTHONPATH=src python -m repro.experiments figure10 --backend process --workers 8
"""

from __future__ import annotations

import argparse
import copy
import functools
import os
import pickle
import sys
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.metrics.report import SimulationResult
from repro.experiments.spec import ExperimentSpec, SimJob, WorkloadSpec
from repro.workloads.request import IORequest

BACKENDS = ("serial", "process")


def _execute_job(job: SimJob, trace_dir: Optional[str] = None) -> SimulationResult:
    """Top-level job runner (must be picklable for the process backend).

    With ``trace_dir`` set, the job runs with a memory trace sink and its
    Chrome-trace JSON (named by the job fingerprint) is written into the
    directory.  The result is value-identical to an untraced run.
    """
    if trace_dir is None:
        return job.execute()
    from repro.obs.export import write_job_trace
    from repro.obs.trace import MemoryTraceSink

    sink = MemoryTraceSink()
    result = job.execute(trace_sink=sink)
    write_job_trace(trace_dir, job, sink, result)
    return result


def _build_workload(spec: WorkloadSpec) -> List[IORequest]:
    """Top-level workload builder (picklable for the process backend)."""
    return spec.build()


@dataclass
class EngineStats:
    """What the engine did during its lifetime (for tests and reporting)."""

    jobs_submitted: int = 0
    jobs_executed: int = 0
    cache_hits: int = 0
    cache_stores: int = 0


class ResultCache:
    """Content-addressed on-disk memo of completed simulation jobs.

    One pickle file per job fingerprint.  Writes go through a temp file +
    atomic rename so a killed run never leaves a truncated entry; unreadable
    entries are treated as misses and overwritten.
    """

    def __init__(self, directory: Union[str, Path]) -> None:
        self.directory = Path(directory)
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
        # A plain file at the path raises FileExistsError; a plain file
        # *along* the path (e.g. cache-dir under an existing file) raises
        # NotADirectoryError on POSIX and FileExistsError elsewhere.
        except (FileExistsError, NotADirectoryError) as exc:
            raise ValueError(
                f"cache dir {self.directory} is not usable as a directory"
            ) from exc

    def _path(self, fingerprint: str) -> Path:
        return self.directory / f"{fingerprint}.pkl"

    def load(self, fingerprint: str) -> Optional[SimulationResult]:
        """Return the cached result, or ``None`` on a miss."""
        path = self._path(fingerprint)
        if not path.exists():
            return None
        try:
            with path.open("rb") as handle:
                return pickle.load(handle)
        except Exception:
            return None

    def store(self, fingerprint: str, result: SimulationResult) -> None:
        """Persist one result atomically."""
        path = self._path(fingerprint)
        fd, tmp_name = tempfile.mkstemp(dir=str(self.directory), suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(result, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp_name, path)
        except Exception:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise


class _ProgressHeartbeat:
    """Prints one ``[engine]`` line per completed job (events/sec, ETA)."""

    def __init__(self, total: int, cache_hits: int) -> None:
        self.total = total
        self.done = 0
        self.events = 0
        self.started = time.monotonic()
        if cache_hits:
            print(
                f"[engine] {cache_hits} cache hit(s); executing {total} job(s)",
                file=sys.stderr,
                flush=True,
            )

    def tick(self, result: SimulationResult) -> None:
        """Account one completed job and print the heartbeat line."""
        self.done += 1
        self.events += result.events_processed
        elapsed = max(time.monotonic() - self.started, 1e-9)
        rate = self.events / elapsed
        eta = elapsed / self.done * (self.total - self.done)
        print(
            f"[engine] {self.done}/{self.total} jobs "
            f"({result.workload} [{result.scheduler}]) "
            f"{rate:,.0f} events/s elapsed {elapsed:.1f}s eta {eta:.1f}s",
            file=sys.stderr,
            flush=True,
        )


class ExecutionEngine:
    """Executes experiment specs through a pluggable, cache-aware backend."""

    def __init__(
        self,
        backend: str = "serial",
        *,
        max_workers: Optional[int] = None,
        cache_dir: Optional[Union[str, Path]] = None,
        trace_dir: Optional[Union[str, Path]] = None,
        progress: bool = False,
    ) -> None:
        if backend not in BACKENDS:
            raise ValueError(f"unknown backend {backend!r}; expected one of {BACKENDS}")
        if max_workers is not None and max_workers <= 0:
            raise ValueError("max_workers must be positive (or None for CPU count)")
        self.backend = backend
        self.max_workers = max_workers
        self.cache = ResultCache(cache_dir) if cache_dir is not None else None
        # With a trace dir, every executed job also records a per-job
        # Chrome-trace telemetry artifact (named by the job fingerprint).
        # Cache hits are served without re-tracing - tracing requires an
        # actual execution.
        self.trace_dir = Path(trace_dir) if trace_dir is not None else None
        if self.trace_dir is not None:
            self.trace_dir.mkdir(parents=True, exist_ok=True)
        # With progress on, run_jobs prints a per-completion heartbeat
        # (jobs done, events/sec, ETA) to stderr - the long-sweep watchdog.
        self.progress = progress
        self.stats = EngineStats()

    @property
    def _job_executor(self):
        """The per-job execution function (trace-aware when configured)."""
        if self.trace_dir is not None:
            return functools.partial(_execute_job, trace_dir=str(self.trace_dir))
        return _execute_job

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, spec: ExperimentSpec) -> Dict[Tuple[Any, ...], SimulationResult]:
        """Run a whole experiment; results keyed by each job's ``key``.

        The mapping is assembled in job declaration order, so iterating it is
        deterministic regardless of backend or completion order.
        """
        results = self.run_jobs(spec.jobs)
        return {job.key: result for job, result in zip(spec.jobs, results)}

    def run_jobs(self, jobs: Sequence[SimJob]) -> List[SimulationResult]:
        """Run jobs (cache-first), returning results in job order.

        Jobs in one batch that share a content fingerprint are simulated
        once: duplicates are detected up front (the process backend would
        otherwise run them all before the first result lands in the cache)
        and every duplicate index receives the one computed result.
        """
        self.stats.jobs_submitted += len(jobs)
        hits_before = self.stats.cache_hits
        results: List[Optional[SimulationResult]] = [None] * len(jobs)
        fingerprints = [job.fingerprint() for job in jobs]
        pending: Dict[str, List[int]] = {}
        for index, job in enumerate(jobs):
            fingerprint = fingerprints[index]
            if fingerprint in pending:
                pending[fingerprint].append(index)
                continue
            if self.cache is not None:
                cached = self.cache.load(fingerprint)
                if cached is not None:
                    results[index] = cached
                    self.stats.cache_hits += 1
                    if self.trace_dir is not None:
                        # Cache hits skip execution, so no trace artifact
                        # exists for them; leave an explicit marker so
                        # trace-dir reconciliation never misreads a hit as
                        # lost spans.
                        from repro.obs.export import write_skipped_trace_marker

                        write_skipped_trace_marker(self.trace_dir, fingerprint, cached)
                    continue
            pending[fingerprint] = [index]

        # Results are cached as each job completes (not after the whole
        # batch), so an interrupted long sweep keeps the work it finished.
        representatives = [indices[0] for indices in pending.values()]
        heartbeat = (
            _ProgressHeartbeat(len(representatives), self.stats.cache_hits - hits_before)
            if self.progress and jobs
            else None
        )
        for index, result in self._execute_indexed(
            [jobs[i] for i in representatives], self._job_executor, representatives
        ):
            for duplicate in pending[fingerprints[index]]:
                # Deep-copy for the duplicates so cold-path results are
                # independent objects, exactly like cache-hit duplicates
                # (each unpickled separately) - callers may post-process
                # their cells in place.
                results[duplicate] = result if duplicate == index else copy.deepcopy(result)
            self.stats.jobs_executed += 1
            if self.cache is not None:
                self.cache.store(fingerprints[index], result)
                self.stats.cache_stores += 1
            if heartbeat is not None:
                heartbeat.tick(result)
        return results  # type: ignore[return-value]

    def build_workloads(self, specs: Sequence[WorkloadSpec]) -> Dict[str, List[IORequest]]:
        """Materialise workload specs (through the backend), keyed by name.

        Table 1 (a pure-workload experiment) uses this to route trace
        generation through the same serial/process machinery.
        """
        names = [spec.name for spec in specs]
        if len(set(names)) != len(names):
            raise ValueError("workload specs have duplicate names; results would collide")
        built = self._execute(list(specs), _build_workload)
        return {spec.name: workload for spec, workload in zip(specs, built)}

    # ------------------------------------------------------------------
    # Backends
    # ------------------------------------------------------------------
    def _execute(self, items: List[Any], fn) -> List[Any]:
        """Run ``fn`` over ``items`` through the backend, in item order."""
        results: List[Any] = [None] * len(items)
        for index, result in self._execute_indexed(items, fn, list(range(len(items)))):
            results[index] = result
        return results

    def _execute_indexed(self, items: List[Any], fn, labels: List[int]):
        """Yield ``(label, fn(item))`` pairs as each item completes.

        Single dispatch point for backend selection: ``labels`` carries the
        caller's index for each item so completion order never matters.
        """
        if not items:
            return
        if self.backend == "serial" or len(items) == 1:
            for label, item in zip(labels, items):
                yield label, fn(item)
            return
        max_workers = self.max_workers or min(len(items), os.cpu_count() or 1)
        with ProcessPoolExecutor(max_workers=max_workers) as pool:
            futures = {pool.submit(fn, item): label for label, item in zip(labels, items)}
            for future in as_completed(futures):
                yield futures[future], future.result()


# ----------------------------------------------------------------------
# Command-line plumbing shared by the experiments CLI, the fleet sweep and the examples
# ----------------------------------------------------------------------
def add_engine_arguments(parser: argparse.ArgumentParser) -> argparse.ArgumentParser:
    """Attach the standard ``--backend/--workers/--cache-dir`` flags."""
    parser.add_argument(
        "--backend",
        choices=BACKENDS,
        default="serial",
        help="job execution backend (process = parallel over CPU cores)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes for --backend process (default: CPU count)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="directory memoizing completed jobs by content fingerprint",
    )
    parser.add_argument(
        "--trace-dir",
        default=None,
        help="directory receiving one Chrome-trace telemetry artifact per "
        "executed job (open the .trace.json files at ui.perfetto.dev)",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="print a per-job heartbeat (jobs done, events/sec, ETA) to stderr",
    )
    return parser


def engine_from_args(args: argparse.Namespace) -> ExecutionEngine:
    """Build an engine from a parsed :func:`add_engine_arguments` namespace."""
    return ExecutionEngine(
        args.backend,
        max_workers=args.workers,
        cache_dir=args.cache_dir,
        trace_dir=args.trace_dir,
        progress=args.progress,
    )


def engine_from_cli(description: str, argv: Optional[Sequence[str]] = None) -> ExecutionEngine:
    """Parse the standard engine flags and return the configured engine."""
    parser = argparse.ArgumentParser(description=description)
    add_engine_arguments(parser)
    return engine_from_args(parser.parse_args(argv))
