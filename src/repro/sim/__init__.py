"""Synchronous non-blocking gossip simulation engine (the paper's model)."""

from repro.sim.engine import Delivery, Engine, NodeContext, NodeProtocol
from repro.sim.invariants import (
    CrashedSilenceChecker,
    DeliveryLatencyChecker,
    InvariantChecker,
    MonotoneKnowledgeChecker,
    SingleInitiationChecker,
    SymmetricMergeChecker,
    checked,
    checking_enabled,
    default_checkers,
)
from repro.sim.failures import (
    CompositeFailure,
    CrashSchedule,
    EdgeOutage,
    FailureModel,
    MessageLoss,
    NoFailures,
)
from repro.sim.metrics import DisseminationResult, EngineMetrics
from repro.sim.programs import Command, ProgramProtocol, contact, contact_and_wait, wait
from repro.sim.runner import (
    all_to_all_complete,
    broadcast_complete,
    local_broadcast_complete,
    run_until_complete,
)
from repro.obs.recorder import Recorder
from repro.obs.telemetry import PhaseTiming, RunTelemetry
from repro.sim.state import Note, Payload, VectorState
from repro.sim.stream import StreamReport, run_streamed_all_to_all
from repro.sim.vector import (
    ENGINE_BACKENDS,
    ObliviousCohort,
    ObliviousProtocol,
    VectorEngine,
    VectorProgram,
    current_engine_backend,
    engine_backend,
    resolve_engine_backend,
)

__all__ = [
    "Command",
    "CompositeFailure",
    "ENGINE_BACKENDS",
    "ObliviousCohort",
    "ObliviousProtocol",
    "VectorEngine",
    "VectorProgram",
    "VectorState",
    "current_engine_backend",
    "engine_backend",
    "resolve_engine_backend",
    "CrashSchedule",
    "CrashedSilenceChecker",
    "Delivery",
    "DeliveryLatencyChecker",
    "DisseminationResult",
    "EdgeOutage",
    "Engine",
    "EngineMetrics",
    "FailureModel",
    "InvariantChecker",
    "MessageLoss",
    "MonotoneKnowledgeChecker",
    "NoFailures",
    "NodeContext",
    "NodeProtocol",
    "Note",
    "Payload",
    "PhaseTiming",
    "ProgramProtocol",
    "Recorder",
    "RunTelemetry",
    "SingleInitiationChecker",
    "StreamReport",
    "SymmetricMergeChecker",
    "all_to_all_complete",
    "broadcast_complete",
    "checked",
    "checking_enabled",
    "contact",
    "contact_and_wait",
    "default_checkers",
    "local_broadcast_complete",
    "run_streamed_all_to_all",
    "run_until_complete",
    "wait",
]
