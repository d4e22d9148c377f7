"""Differential testing: run one protocol on both engines, compare everything.

The production :class:`~repro.sim.engine.Engine` and the naive
:class:`~repro.testing.reference.ReferenceEngine` realize the same model
independently.  :func:`run_differential` drives both in **lockstep** over
the same graph with freshly built (hence identically seeded) protocol
instances, comparing per-node rumor sets after every round, and reports
the first divergence — so an engine bug is localized to the exact round it
first changed observable knowledge, not just to a final mismatch.

``make_factory``/``make_state`` are zero-argument builders called once per
engine: protocol instances and network states are stateful, so each engine
needs its own copies, constructed identically.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Optional

from repro.errors import SimulationError
from repro.graphs.latency_graph import LatencyGraph, Node
from repro.sim.engine import Engine, ProtocolFactory
from repro.sim.state import VectorState
from repro.testing.reference import ReferenceEngine, ReferenceNetworkState

__all__ = [
    "DifferentialReport",
    "assert_engines_agree",
    "run_differential",
]

@dataclasses.dataclass(frozen=True)
class DifferentialReport:
    """Outcome of one lockstep differential run.

    Attributes
    ----------
    rounds, reference_rounds:
        Completion round of each engine (``None`` when the run was cut off
        by ``max_rounds`` before that engine completed).
    mismatches:
        Human-readable divergence descriptions, earliest first; empty means
        the engines agreed on every compared observable.
    """

    rounds: Optional[int]
    reference_rounds: Optional[int]
    mismatches: tuple[str, ...]

    @property
    def equivalent(self) -> bool:
        """Whether the two engines agreed on everything compared."""
        return not self.mismatches


def _knowledge_mismatches(
    graph: LatencyGraph,
    round_number: int,
    state: VectorState,
    reference: ReferenceNetworkState,
) -> list[str]:
    out = []
    for node in graph.nodes():
        mine, theirs = state.rumors(node), reference.rumors(node)
        if mine != theirs:
            extra = sorted(mine - theirs, key=repr)
            missing = sorted(theirs - mine, key=repr)
            out.append(
                f"round {round_number}: node {node!r} knowledge diverged "
                f"(engine-only {extra[:3]!r}, reference-only {missing[:3]!r})"
            )
    return out


def run_differential(
    graph: LatencyGraph,
    make_factory: Callable[[], ProtocolFactory],
    make_state: Optional[Callable[[], VectorState]] = None,
    make_reference_state: Optional[
        Callable[[], VectorState | ReferenceNetworkState]
    ] = None,
    predicate: Optional[Callable] = None,
    latencies_known: bool = False,
    fresh_snapshots: bool = False,
    make_failure_model: Optional[Callable] = None,
    max_incoming_per_round: Optional[int] = None,
    max_rounds: int = 100_000,
    engine_cls: Callable = Engine,
    reference_cls: Callable = ReferenceEngine,
    backend: Optional[str] = None,
) -> DifferentialReport:
    """Run both engines in lockstep and compare knowledge, rounds, metrics.

    Parameters
    ----------
    graph:
        The network, shared by both engines (it is never mutated).
    make_factory:
        Zero-argument builder returning a fresh protocol factory; called
        once per engine so the two runs start from identical protocol
        state and RNG streams.
    make_state:
        Optional zero-argument builder for the initial
        :class:`VectorState` (e.g. seeding the source rumor); called once
        per engine.  Defaults to each engine's own default state, which
        cross-tests the bitset-backed production state against the
        set-backed reference state for free.
    make_reference_state:
        Optional separate state builder for the reference engine; defaults
        to ``make_state``.  Pass a
        :class:`~repro.testing.reference.ReferenceNetworkState` builder to
        pit the production state against the oracle on a seeded initial
        state.
    predicate:
        Completion condition evaluated against each engine (e.g.
        ``broadcast_complete(rumor)``).  Defaults to ``all_done()``.
    make_failure_model:
        Optional zero-argument builder for a
        :class:`~repro.sim.failures.FailureModel`; called once per engine
        (models may hold RNG state, so each engine needs its own copy).
    max_incoming_per_round:
        Responder-capacity cap forwarded to both engines.
    max_rounds:
        Lockstep budget; engines still incomplete at the budget get
        ``None`` as their completion round (reported as a mismatch only if
        the two disagree).
    engine_cls, reference_cls:
        The two implementations to compare (overridable so the suite can
        prove a deliberately broken engine *is* caught).
    backend:
        Engine-backend name for the candidate side; overrides
        ``engine_cls`` via :func:`~repro.sim.vector.resolve_engine_backend`
        (e.g. ``backend="vector"`` pits the array backend against the
        reference oracle).
    """
    if backend is not None:
        from repro.sim.vector import resolve_engine_backend

        engine_cls = resolve_engine_backend(backend)
    if make_reference_state is None:
        make_reference_state = make_state
    engines = []
    for cls, build_state in ((engine_cls, make_state), (reference_cls, make_reference_state)):
        engines.append(
            cls(
                graph,
                make_factory(),
                state=build_state() if build_state is not None else None,
                latencies_known=latencies_known,
                fresh_snapshots=fresh_snapshots,
                failure_model=make_failure_model() if make_failure_model is not None else None,
                max_incoming_per_round=max_incoming_per_round,
            )
        )
    engine, reference = engines

    def is_complete(candidate) -> bool:
        if predicate is not None:
            return bool(predicate(candidate))
        return candidate.all_done()

    completed: list[Optional[int]] = [None, None]
    mismatches: list[str] = []
    for round_number in range(max_rounds + 1):
        for i, candidate in enumerate(engines):
            if completed[i] is None and is_complete(candidate):
                completed[i] = candidate.round
        if all(done is not None for done in completed):
            break
        diverged = _knowledge_mismatches(
            graph, round_number, engine.state, reference.state
        )
        if diverged:
            mismatches.extend(diverged)
            break
        # Step only engines that have not completed: a completed engine's
        # protocols may keep exchanging (push--pull never stops on its
        # own), which is irrelevant to the quantities being compared.
        for i, candidate in enumerate(engines):
            if completed[i] is None:
                candidate.step()

    if completed[0] != completed[1]:
        mismatches.append(
            f"completion rounds diverged: engine={completed[0]} "
            f"reference={completed[1]}"
        )
    if not mismatches:
        mismatches.extend(
            _knowledge_mismatches(graph, engine.round, engine.state, reference.state)
        )
        if engine.metrics != reference.metrics:
            mismatches.append(
                f"metrics diverged: engine={engine.metrics} "
                f"reference={reference.metrics}"
            )
    return DifferentialReport(
        rounds=completed[0],
        reference_rounds=completed[1],
        mismatches=tuple(mismatches),
    )


def assert_engines_agree(report: DifferentialReport) -> DifferentialReport:
    """Raise :class:`SimulationError` if a differential run diverged."""
    if not report.equivalent:
        raise SimulationError(
            "Engine and ReferenceEngine diverged:\n  "
            + "\n  ".join(report.mismatches)
        )
    return report
