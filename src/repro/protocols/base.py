"""Shared protocol plumbing: per-node RNG streams and multi-phase execution.

Composite algorithms (EID, General EID, Path Discovery) run several protocol
*phases* back to back over the same :class:`~repro.sim.state.VectorState` —
for example "log n rounds of D-DTG, then RR Broadcast on the spanner".
:class:`PhaseRunner` owns that state, accumulates the total round count
across phases, and (optionally) watches for the first round at which a
completion predicate holds so benchmarks can report *time to completion*
separately from *time to protocol termination*.

Phase-chained vector execution
------------------------------
Each phase's engine comes from the runner's engine factory.  Under the
``vector`` backend that is :func:`~repro.sim.vector.vector_backend`, the
one route: it asks :func:`~repro.sim.vector.vector_refusal` about one
unstarted probe protocol of the phase and the run's options, and

* a phase it does not refuse runs on
  :class:`~repro.sim.vector.VectorEngine` — the rumor state stays one
  :class:`~repro.sim.state.VectorState` object between phases (a phase
  that grows the rumor universe widens it in place);
* a refused phase (ping-only latency discovery, an ℓ-DTG phase in a run
  whose recorder, checkers, failure model or incoming cap rule out its
  lockstep plan, or any phase of a per-exchange run) runs on the scalar
  :class:`~repro.sim.engine.Engine` *over the same state* — both
  engines read and write the one rumor state, so the handoff is
  bit-identical in both directions.

The runner reads each phase's backend label and refusal off its engine:
:attr:`PhaseRunner.phases` (``PhaseTiming.backend``),
:attr:`PhaseRunner.phase_fallbacks`, and the ``sim_phase_backend``
labeled counter attribute every phase, so mixed runs are diagnosable
from ``repro profile`` / ``repro report``.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.errors import SimulationError
from repro.graphs.latency_graph import LatencyGraph, Node
from repro.obs.metrics import default_registry
from repro.obs.profile import span
from repro.obs.recorder import Recorder
from repro.obs.telemetry import PhaseTiming
from repro.sim.engine import Engine, NodeProtocol
from repro.sim.state import VectorState
from repro.sim.streams import SeedStream, seed_key
from repro.sim.vector import resolve_engine_backend

__all__ = ["per_node_rng_factory", "PhaseRunner"]


def per_node_rng_factory(seed: int) -> Callable[[Node], SeedStream]:
    """Deterministic independent RNG streams, one per node.

    Node ``v``'s stream is ``random.Random(f"{seed}:{v!r}")``, so results
    do not depend on node iteration order.  Each call returns a fresh
    :class:`~repro.sim.streams.SeedStream` handle at the start of that
    stream: it behaves as the ``Random`` and builds it on first use, so
    the vector engine's array paths can draw a whole cohort's picks from
    words computed in bulk from the seed strings and never build the
    ``Random`` at all (see :mod:`repro.sim.streams`).
    """

    def make(node: Node) -> SeedStream:
        return SeedStream(seed_key(seed, node))

    return make


class PhaseRunner:
    """Runs protocol phases sequentially over one shared network state.

    Parameters
    ----------
    graph:
        The network.
    state:
        Shared knowledge; a fresh one is created (and self-rumors seeded)
        when omitted.
    watch:
        Optional predicate over the state; :attr:`first_complete_round` is
        the cumulative round count when it first held.
    engine_factory:
        Engine constructor used for every phase; defaults to the engine
        backend named by ``backend``.  Differential tests substitute
        :class:`~repro.testing.reference.ReferenceEngine` here to run
        whole composite protocols against the naive model.  Each phase
        records the engine's ``backend`` label (``"scalar"`` for an
        engine without one) and its ``refusal``.
    recorder:
        Optional :class:`~repro.obs.recorder.Recorder` threaded into every
        phase's engine.  Passed as an extra ``recorder=`` keyword only
        when set, so factories that do not know about recording (e.g. the
        reference engine) keep working untouched.
    backend:
        Engine backend name used when ``engine_factory`` is omitted;
        ``None`` defers to the ambient
        :func:`~repro.sim.vector.engine_backend` scope (scalar by
        default).  Under the ``vector`` backend each phase is routed on
        its own: a phase the array round can replay runs on
        :class:`~repro.sim.vector.VectorEngine`, anything else on the
        scalar engine over the same state (see module docstring).
    engine_kwargs:
        Extra keyword arguments (e.g. ``failure_model``,
        ``max_incoming_per_round``) forwarded to every phase's engine
        construction.
    """

    def __init__(
        self,
        graph: LatencyGraph,
        state: Optional[VectorState] = None,
        watch: Optional[Callable[[VectorState], bool]] = None,
        engine_factory: Optional[Callable[..., Engine]] = None,
        recorder: Optional[Recorder] = None,
        backend: Optional[str] = None,
        engine_kwargs: Optional[dict] = None,
    ) -> None:
        self.graph = graph
        self.engine_factory = (
            engine_factory
            if engine_factory is not None
            else resolve_engine_backend(backend)
        )
        self.recorder = recorder
        self.engine_kwargs = dict(engine_kwargs) if engine_kwargs else {}
        if state is None:
            state = VectorState(graph.nodes())
            state.seed_self_rumors()
        self.state = state
        self.total_rounds = 0
        self.total_exchanges = 0
        self.total_messages = 0
        #: Per-phase logical cost and wall clock, in execution order.
        self.phases: list[PhaseTiming] = []
        #: Per-phase refusal reason of the ``vector`` backend (``None``
        #: for phases it did not refuse, or that another factory ran),
        #: parallel to :attr:`phases`.
        self.phase_fallbacks: list[Optional[str]] = []
        self.first_complete_round: Optional[int] = None
        self._watch = watch
        if watch is not None and watch(self.state):
            self.first_complete_round = 0

    def run_phase(
        self,
        protocol_factory: Callable[[Node], NodeProtocol],
        latencies_known: bool = True,
        max_rounds: int = 1_000_000,
        name: str = "phase",
        until: Optional[Callable[[VectorState], bool]] = None,
    ) -> Engine:
        """Run one phase until every node's protocol is done.

        ``until`` is an optional completion gate over the shared state —
        e.g. "every node knows ≥ m rumors" via
        :func:`~repro.sim.runner.min_rumors_complete` — that ends the
        phase early, checked between rounds exactly like the scalar
        loop would (a phase may park on its round budget first).

        Returns the finished engine so callers can inspect protocol
        instances (e.g. collect measured latencies after discovery).
        """
        extra = dict(self.engine_kwargs)
        if self.recorder is not None:
            extra["recorder"] = self.recorder
        engine = self.engine_factory(
            self.graph,
            protocol_factory,
            state=self.state,
            latencies_known=latencies_known,
            **extra,
        )
        with span(f"phase.{name}") as timer:
            while not engine.all_done():
                if until is not None and until(self.state):
                    break
                if engine.round >= max_rounds:
                    raise SimulationError(
                        f"{name} exceeded max_rounds={max_rounds} within one phase"
                    )
                engine.step()
                self.total_rounds += 1
                if (
                    self._watch is not None
                    and self.first_complete_round is None
                    and self._watch(self.state)
                ):
                    self.first_complete_round = self.total_rounds
        backend = getattr(engine, "backend", "scalar")
        refusal = getattr(engine, "refusal", None)
        self.phases.append(
            PhaseTiming(
                name=name,
                rounds=engine.round,
                exchanges=engine.metrics.exchanges,
                seconds=timer.seconds,
                backend=backend,
            )
        )
        self.phase_fallbacks.append(refusal[1] if refusal else None)
        nodes = self.graph.nodes()
        lookup = getattr(engine, "protocol", None)
        protocol_name = (
            type(lookup(nodes[0])).__name__
            if nodes and lookup is not None
            else "unknown"
        )
        default_registry().counter(
            "sim_phase_backend",
            "protocol phases executed per engine backend (with fallback reason)",
        ).inc(
            backend=backend,
            protocol=protocol_name,
            reason=refusal[0] if refusal else "eligible",
        )
        self.total_exchanges += engine.metrics.exchanges
        self.total_messages += engine.metrics.messages
        engine.finish_checks()
        return engine
