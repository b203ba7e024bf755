"""On-disk checkpoint store keyed by ``(fingerprint, events_processed)``.

The store is the persistence side of long-horizon runs: the engine (or any
caller) periodically snapshots a job's simulator and files the checkpoint
under the job's content fingerprint and the event count it was taken at.
A re-run of the same job (same fingerprint - so the same workload, device
and policies, byte for byte) picks up from the latest checkpoint instead of
restarting; any change to the job yields a different fingerprint and
naturally ignores stale checkpoints.

Writes are atomic (temp file + rename), mirroring
:class:`~repro.experiments.engine.ResultCache`.
"""

from __future__ import annotations

import os
import re
import tempfile
from pathlib import Path
from typing import List, Optional, Tuple, Union

from repro.checkpoint.snapshot import CheckpointError, SimulatorCheckpoint
from repro.metrics.report import SimulationResult
from repro.sim.ssd import SSDSimulator

_NAME_RE = re.compile(r"^(?P<fingerprint>[0-9a-f]{64})\.(?P<events>\d{12})\.ckpt$")


class CheckpointStore:
    """A directory of simulator checkpoints, keyed ``(fingerprint, T)``."""

    def __init__(self, directory: Union[str, Path]) -> None:
        self.directory = Path(directory)
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
        except (FileExistsError, NotADirectoryError) as exc:
            raise ValueError(
                f"checkpoint dir {self.directory} is not usable as a directory"
            ) from exc

    # ------------------------------------------------------------------
    # Keys
    # ------------------------------------------------------------------
    def path(self, fingerprint: str, events_processed: int) -> Path:
        """The file one ``(fingerprint, T)`` checkpoint lives at."""
        return self.directory / f"{fingerprint}.{events_processed:012d}.ckpt"

    def events_available(self, fingerprint: str) -> List[int]:
        """Every ``T`` a checkpoint exists for under ``fingerprint``, ascending."""
        events: List[int] = []
        for entry in self.directory.glob(f"{fingerprint}.*.ckpt"):
            match = _NAME_RE.match(entry.name)
            if match and match.group("fingerprint") == fingerprint:
                events.append(int(match.group("events")))
        return sorted(events)

    def fingerprints(self) -> List[str]:
        """Every fingerprint with at least one stored checkpoint, sorted."""
        seen = set()
        for entry in self.directory.glob("*.ckpt"):
            match = _NAME_RE.match(entry.name)
            if match:
                seen.add(match.group("fingerprint"))
        return sorted(seen)

    # ------------------------------------------------------------------
    # Save / load
    # ------------------------------------------------------------------
    def save(self, fingerprint: str, checkpoint: SimulatorCheckpoint) -> Path:
        """File one checkpoint atomically under ``(fingerprint, T)``."""
        path = self.path(fingerprint, checkpoint.events_processed)
        fd, tmp_name = tempfile.mkstemp(dir=str(self.directory), suffix=".tmp")
        os.close(fd)
        try:
            checkpoint.save(tmp_name)
            os.replace(tmp_name, path)
        except Exception:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        return path

    def load(self, fingerprint: str, events_processed: int) -> SimulatorCheckpoint:
        """Load one exact ``(fingerprint, T)`` checkpoint."""
        path = self.path(fingerprint, events_processed)
        if not path.exists():
            raise CheckpointError(f"no checkpoint at {path}")
        return SimulatorCheckpoint.load(path)

    def latest(self, fingerprint: str) -> Optional[Tuple[int, SimulatorCheckpoint]]:
        """The highest-``T`` checkpoint for a fingerprint, or ``None``.

        An unreadable/corrupt latest checkpoint falls back to the next
        older one (and so on), so a torn write never wedges a resume.
        """
        for events in reversed(self.events_available(fingerprint)):
            try:
                return events, SimulatorCheckpoint.load(self.path(fingerprint, events))
            except CheckpointError:
                continue
        return None

    def discard(self, fingerprint: str) -> int:
        """Delete every checkpoint of one fingerprint; returns the count."""
        removed = 0
        for events in self.events_available(fingerprint):
            try:
                self.path(fingerprint, events).unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def __len__(self) -> int:
        return sum(1 for entry in self.directory.glob("*.ckpt") if _NAME_RE.match(entry.name))


def run_job_checkpointed(
    job,
    store: CheckpointStore,
    *,
    every_events: int,
    keep_checkpoints: bool = False,
    trace_dir: Optional[Union[str, Path]] = None,
) -> SimulationResult:
    """Run one engine job with periodic persistent checkpoints.

    Resumes from the store's latest checkpoint for ``job.fingerprint()`` if
    one exists, then alternates "advance ``every_events`` events" with
    "persist a checkpoint" until the run completes.  Results are
    bit-identical to ``job.execute()`` - the digest-identity contract of
    :mod:`repro.checkpoint.snapshot` - so the engine treats this as a
    drop-in job executor (see ``ExecutionEngine(checkpoint_dir=...)``).

    With ``trace_dir`` set, fresh runs attach a memory trace sink; the sink
    rides inside every checkpoint (resumed runs continue accumulating spans
    where they left off) and the completed run's Chrome-trace artifact is
    written into the directory.

    Completed jobs discard their checkpoints by default (the engine's
    result cache memoizes the finished result; keeping the trail of
    snapshots would only cost disk), unless ``keep_checkpoints``.
    """
    if every_events <= 0:
        raise ValueError("every_events must be positive")
    fingerprint = job.fingerprint()
    resumed = store.latest(fingerprint)
    if resumed is not None:
        _, checkpoint = resumed
        simulator = SSDSimulator.resume(checkpoint)
        result = simulator.run_to_completion(
            max_events=simulator.events.processed + every_events
        )
    else:
        sink = None
        if trace_dir is not None:
            from repro.obs.trace import MemoryTraceSink

            sink = MemoryTraceSink()
        workload = job.workload.build()
        simulator = job.simulator(sink)
        result = simulator.run(
            workload, workload_name=job.workload.name, max_events=every_events
        )
    while result is None:
        store.save(fingerprint, simulator.checkpoint())
        result = simulator.run_to_completion(
            max_events=simulator.events.processed + every_events
        )
    if trace_dir is not None and simulator.sink.enabled:
        from repro.obs.export import write_job_trace

        write_job_trace(trace_dir, job, simulator.sink, result)
    if not keep_checkpoints:
        store.discard(fingerprint)
    return result
