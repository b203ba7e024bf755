"""Versioned, schema-checked snapshots of full simulator state.

A checkpoint is the complete state of a *paused* :class:`~repro.sim.ssd.
SSDSimulator` run: the FTL map with its base-layout overlay, every
plane/block counter and wear figure, GC state and backlog, the event heap,
the device queue and scheduler internals, the metrics accumulators, and the
not-yet-admitted tail of the workload.  All of it is serialized as **one**
object graph (a single pickle), because the components cross-reference each
other heavily - a ``MemoryRequest`` sitting in the event heap must be the
*same object* the controller and the tag tables hold, or the resumed run
diverges.  Per-component serialization would silently break that sharing.

On top of the payload sits a small, versioned envelope
(:class:`SimulatorCheckpoint`): format version, the config fingerprint the
state was computed under, run-progress metadata, and a SHA-256 of the
payload bytes.  :func:`restore_simulator` refuses anything that fails the
schema - wrong version, corrupted payload, unknown or missing state fields,
mistyped components - with a :class:`CheckpointError` naming the problem.

The contract the test suite enforces: ``run-to-completion`` and
``run(max_events=T) -> checkpoint() -> resume() -> run_to_completion()``
produce :class:`SimulationResult`s with identical ``stable_fingerprint``
digests.
"""

from __future__ import annotations

import hashlib
import pickle
from dataclasses import dataclass
from pathlib import Path
from typing import Union

from repro.core.scheduler import SchedulerBase
from repro.flash.controller import FlashController
from repro.ftl.callbacks import ReaddressingCallback
from repro.ftl.garbage_collector import GarbageCollector
from repro.ftl.mapping import PageMapFTL
from repro.metrics.collector import MetricsCollector
from repro.nvmhc.dma import DmaEngine
from repro.nvmhc.queue import DeviceQueue
from repro.obs.health import HealthSampler
from repro.obs.trace import TraceSink
from repro.sim.config import SimulationConfig
from repro.sim.events import EventQueue

#: Bump when the snapshot layout changes incompatibly; old checkpoints are
#: rejected (a stale resume silently diverging would be far worse than a
#: rerun).  Version 2 added the observability state (``sink``/``_tracing``):
#: a traced run's span history rides inside the snapshot and resumes intact.
#: Version 3 added the health sampler (``_health``) and the attribution
#: tracker inside the metrics collector: a health-sampled, attributed run
#: resumes with its series and slices intact.
CHECKPOINT_VERSION = 3


class CheckpointError(Exception):
    """A checkpoint could not be captured, validated or restored."""


def _is_optional(kind):
    def check(value):
        return value is None or isinstance(value, kind)

    return check


#: Field-by-field schema of the serialized state: every attribute of a
#: paused ``SSDSimulator`` and the predicate its restored value must pass.
#: ``capture_checkpoint`` asserts this map covers the simulator's ``__dict__``
#: exactly, so growing the simulator a new attribute without teaching the
#: schema about it is an immediate, loud error - not a silently-partial
#: snapshot.
_STATE_SCHEMA = {
    "config": lambda v: isinstance(v, SimulationConfig),
    "geometry": lambda v: v is not None,
    "timing": lambda v: v is not None,
    "chips": lambda v: isinstance(v, dict),
    "channels": lambda v: isinstance(v, dict),
    "controllers": lambda v: isinstance(v, dict)
    and all(isinstance(c, FlashController) for c in v.values()),
    "ftl": lambda v: isinstance(v, PageMapFTL),
    "gc": lambda v: isinstance(v, GarbageCollector),
    "queue": lambda v: isinstance(v, DeviceQueue),
    "dma": lambda v: isinstance(v, DmaEngine),
    "scheduler": lambda v: isinstance(v, SchedulerBase),
    "callback": lambda v: isinstance(v, ReaddressingCallback),
    "sink": lambda v: isinstance(v, TraceSink),
    "_tracing": lambda v: isinstance(v, bool),
    "_health": _is_optional(HealthSampler),
    "metrics": lambda v: isinstance(v, MetricsCollector),
    "events": lambda v: isinstance(v, EventQueue),
    "now_ns": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "_tags_by_io": lambda v: isinstance(v, dict),
    "_gc_backlog": lambda v: isinstance(v, dict),
    "_decision_pending": lambda v: isinstance(v, set),
    "_requests_composed": lambda v: isinstance(v, int),
    "_workload_size": lambda v: isinstance(v, int),
    "_pending": lambda v: isinstance(v, list),
    "_pending_index": lambda v: isinstance(v, int),
    "_workload_name": lambda v: isinstance(v, str),
    "_run_active": lambda v: v is True,
    "precondition": _is_optional(object),
    "steady_state": _is_optional(object),
    "_ftl_baseline": lambda v: v is not None,
    "_gc_baseline": lambda v: v is not None,
}


@dataclass(frozen=True)
class SimulatorCheckpoint:
    """One snapshot of a paused simulator run.

    ``payload`` is the pickled single-graph state dict; the remaining fields
    are the validated envelope.  ``config_fingerprint`` ties the snapshot to
    the exact device/policy configuration it was computed under - the
    checkpoint store keys on ``(config fingerprint or job fingerprint, T)``.
    """

    version: int
    config_fingerprint: str
    scheduler: str
    workload_name: str
    events_processed: int
    now_ns: int
    pending_arrivals: int
    payload: bytes
    payload_sha256: str

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, path: Union[str, Path]) -> Path:
        """Write the checkpoint to ``path`` (envelope + payload, one file)."""
        path = Path(path)
        document = {
            "format": "repro-simulator-checkpoint",
            "version": self.version,
            "config_fingerprint": self.config_fingerprint,
            "scheduler": self.scheduler,
            "workload_name": self.workload_name,
            "events_processed": self.events_processed,
            "now_ns": self.now_ns,
            "pending_arrivals": self.pending_arrivals,
            "payload": self.payload,
            "payload_sha256": self.payload_sha256,
        }
        with path.open("wb") as handle:
            pickle.dump(document, handle, protocol=pickle.HIGHEST_PROTOCOL)
        return path

    @classmethod
    def load(cls, path: Union[str, Path]) -> "SimulatorCheckpoint":
        """Read a checkpoint written by :meth:`save`, validating its envelope."""
        path = Path(path)
        try:
            with path.open("rb") as handle:
                document = pickle.load(handle)
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError) as exc:
            raise CheckpointError(f"unreadable checkpoint file {path}: {exc}") from exc
        if not isinstance(document, dict) or document.get("format") != "repro-simulator-checkpoint":
            raise CheckpointError(f"{path} is not a simulator checkpoint file")
        expected = {
            "format",
            "version",
            "config_fingerprint",
            "scheduler",
            "workload_name",
            "events_processed",
            "now_ns",
            "pending_arrivals",
            "payload",
            "payload_sha256",
        }
        if set(document) != expected:
            unknown = sorted(set(document) - expected)
            missing = sorted(expected - set(document))
            raise CheckpointError(
                f"{path}: malformed checkpoint envelope "
                f"(unknown fields: {unknown}, missing fields: {missing})"
            )
        document.pop("format")
        return cls(**document)


def capture_checkpoint(simulator) -> SimulatorCheckpoint:
    """Snapshot a paused simulator run (the body of ``SSDSimulator.checkpoint``)."""
    if not getattr(simulator, "_run_active", False):
        raise CheckpointError(
            "checkpoint() requires a paused in-progress run: call "
            "run(max_events=...) and checkpoint after it returns None"
        )
    state = dict(simulator.__dict__)
    schema_fields = set(_STATE_SCHEMA)
    actual_fields = set(state)
    if schema_fields != actual_fields:
        extra = sorted(actual_fields - schema_fields)
        missing = sorted(schema_fields - actual_fields)
        raise CheckpointError(
            "simulator state no longer matches the checkpoint schema "
            f"(unschematized attributes: {extra}, absent attributes: {missing}); "
            "update repro.checkpoint.snapshot._STATE_SCHEMA and bump "
            "CHECKPOINT_VERSION"
        )
    # Store only the not-yet-admitted tail of the arrival list; already
    # admitted requests live on in the queue/tag/metrics state.  The index
    # restarts at zero on restore.
    state["_pending"] = simulator._pending[simulator._pending_index :]
    state["_pending_index"] = 0
    try:
        payload = pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as exc:
        raise CheckpointError(f"simulator state failed to serialize: {exc}") from exc
    return SimulatorCheckpoint(
        version=CHECKPOINT_VERSION,
        config_fingerprint=simulator.config.fingerprint(),
        scheduler=simulator.scheduler.name,
        workload_name=simulator._workload_name,
        events_processed=simulator.events.processed,
        now_ns=simulator.now_ns,
        pending_arrivals=len(state["_pending"]),
        payload=payload,
        payload_sha256=hashlib.sha256(payload).hexdigest(),
    )


def restore_simulator(cls, checkpoint: SimulatorCheckpoint):
    """Rebuild a paused simulator from a checkpoint (``SSDSimulator.resume``).

    Validation order: envelope version, payload digest, then the state dict
    field-by-field against :data:`_STATE_SCHEMA` (unknown and missing fields
    both rejected).  Only a fully-validated state is installed.
    """
    if not isinstance(checkpoint, SimulatorCheckpoint):
        raise CheckpointError(
            f"expected a SimulatorCheckpoint, got {type(checkpoint).__name__}"
        )
    if checkpoint.version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint version {checkpoint.version} is not supported "
            f"(this build reads version {CHECKPOINT_VERSION}); rerun the job"
        )
    digest = hashlib.sha256(checkpoint.payload).hexdigest()
    if digest != checkpoint.payload_sha256:
        raise CheckpointError(
            "checkpoint payload is corrupted (SHA-256 mismatch: "
            f"stored {checkpoint.payload_sha256[:12]}..., computed {digest[:12]}...)"
        )
    try:
        state = pickle.loads(checkpoint.payload)
    except Exception as exc:
        raise CheckpointError(f"checkpoint payload failed to deserialize: {exc}") from exc
    if not isinstance(state, dict):
        raise CheckpointError(
            f"checkpoint payload must be a state dict, got {type(state).__name__}"
        )
    unknown = sorted(set(state) - set(_STATE_SCHEMA))
    missing = sorted(set(_STATE_SCHEMA) - set(state))
    if unknown or missing:
        raise CheckpointError(
            f"checkpoint state does not match schema version {CHECKPOINT_VERSION} "
            f"(unknown fields: {unknown}, missing fields: {missing})"
        )
    for name, predicate in _STATE_SCHEMA.items():
        if not predicate(state[name]):
            raise CheckpointError(
                f"checkpoint field {name!r} failed its schema check "
                f"(got {type(state[name]).__name__})"
            )
    if state["config"].fingerprint() != checkpoint.config_fingerprint:
        raise CheckpointError(
            "checkpoint config does not match its envelope fingerprint "
            "(payload/envelope mismatch)"
        )
    simulator = cls.__new__(cls)
    simulator.__dict__.update(state)
    return simulator
