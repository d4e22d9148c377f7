"""High-level run helpers: completion predicates and result packaging.

The paper measures three flavors of dissemination:

* **one-to-all broadcast** — a designated source's rumor must reach everyone;
* **all-to-all dissemination** — every node's rumor must reach everyone;
* **(ℓ-)local broadcast** — every node's rumor must reach all its neighbors
  connected by edges of latency ``<= ℓ``.

Each helper builds the matching completion predicate, runs the engine until
it holds (or a round budget runs out) and returns a
:class:`~repro.sim.metrics.DisseminationResult`.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.errors import SimulationError
from repro.graphs.latency_graph import LatencyGraph, Node
from repro.obs.metrics import default_registry
from repro.obs.telemetry import RunTelemetry
from repro.sim.engine import Engine
from repro.sim.metrics import DisseminationResult

__all__ = [
    "broadcast_complete",
    "all_to_all_complete",
    "local_broadcast_complete",
    "min_rumors_complete",
    "run_until_complete",
]


def broadcast_complete(rumor) -> Callable[[Engine], bool]:
    """Predicate: every node knows ``rumor``."""

    def predicate(engine: Engine) -> bool:
        # O(1) quick reject via the coverage counter; the exact per-node
        # check only runs once enough nodes know the rumor (the state may
        # track nodes outside the graph, so the counter alone is not proof).
        state = engine.state
        if state.count_knowing(rumor) < engine.graph.num_nodes:
            return False
        return state.knows_every(engine.graph.nodes(), (rumor,))

    return predicate


def all_to_all_complete() -> Callable[[Engine], bool]:
    """Predicate: every node knows every node's id-rumor."""

    def predicate(engine: Engine) -> bool:
        nodes = engine.graph.nodes()
        state = engine.state
        # O(n) popcount quick reject: a node knowing fewer rumors than
        # there are nodes certainly misses someone's id-rumor.
        n = len(nodes)
        for node in nodes:
            if state.rumor_count(node) < n:
                return False
        return state.knows_every(nodes, nodes)

    return predicate


def min_rumors_complete(m: int):
    """State predicate: every node knows at least ``m`` rumors.

    A multi-rumor completion gate for phase-chained runs — pass it as
    ``PhaseRunner.run_phase(..., until=min_rumors_complete(m))`` to end a
    phase as soon as universal coverage of ``m`` rumors is reached,
    whatever those rumors are.  Takes the *state* (not the engine), like
    ``PhaseRunner``'s ``watch``; reads the state's one-pass
    ``min_rumor_count()``.
    """
    if m < 0:
        raise SimulationError(f"min_rumors_complete needs m >= 0, got {m}")

    def predicate(state) -> bool:
        return state.min_rumor_count() >= m

    return predicate


def local_broadcast_complete(max_latency: Optional[int] = None) -> Callable[[Engine], bool]:
    """Predicate: every node knows the id-rumor of each (ℓ-)neighbor.

    With ``max_latency`` given, only neighbors over edges of latency
    ``<= max_latency`` count (the ℓ-local broadcast of Section 5.1).

    Knowledge only grows, so the predicate keeps a frontier of the
    (node, ℓ-neighbor) pairs not yet known and drops each pair the first
    time it is: a run costs one ``knows`` call per pair plus one per call
    of the predicate, instead of a walk over every edge each round.  The
    frontier is rebuilt whenever the predicate sees another state or
    graph.
    """
    frontier: list[tuple[Node, Node]] = []
    seen_state = seen_graph = None

    def predicate(engine: Engine) -> bool:
        nonlocal seen_state, seen_graph
        state, graph = engine.state, engine.graph
        if state is not seen_state or graph is not seen_graph:
            seen_state, seen_graph = state, graph
            frontier[:] = [
                (node, neighbor)
                for node in reversed(graph.nodes())
                for neighbor, latency in graph.neighbor_latencies(node).items()
                if max_latency is None or latency <= max_latency
            ]
        knows = state.knows
        while frontier:
            if not knows(*frontier[-1]):
                return False
            frontier.pop()
        return True

    return predicate


def run_until_complete(
    engine: Engine,
    predicate: Callable[[Engine], bool],
    protocol_name: str,
    max_rounds: int = 1_000_000,
    track_progress: Optional[Callable[[Engine], int]] = None,
    allow_incomplete: bool = False,
    telemetry: bool = False,
) -> DisseminationResult:
    """Run ``engine`` until ``predicate`` holds; package the result.

    Parameters
    ----------
    engine:
        A freshly constructed (or phase-chained) engine.
    predicate:
        Completion condition, checked before every round.
    protocol_name:
        Label stored in the result.
    max_rounds:
        Round budget.
    track_progress:
        Optional per-round progress measure (e.g. informed-node count);
        recorded into ``informed_history``.
    allow_incomplete:
        If ``True``, exhausting the budget returns an incomplete result
        instead of raising :class:`~repro.errors.SimulationError`.
    telemetry:
        If ``True``, attach a :class:`~repro.obs.telemetry.RunTelemetry`
        to the result: the coverage curve (``track_progress`` samples, if
        any) plus the end-of-round in-flight backlog curve.  Telemetry is
        a ``compare=False`` field, so a telemetry-on result still compares
        equal to the telemetry-off run of the same seed.
    """
    history: list[int] = []
    in_flight: list[int] = []
    complete = True
    while not predicate(engine):
        if engine.round >= max_rounds:
            if allow_incomplete:
                complete = False
                break
            raise SimulationError(
                f"{protocol_name} exceeded max_rounds={max_rounds}"
            )
        if track_progress is not None:
            history.append(track_progress(engine))
        engine.step()
        if telemetry:
            in_flight.append(engine.pending_exchanges())
    if track_progress is not None:
        history.append(track_progress(engine))
    engine.finish_checks()
    run_telemetry = None
    if telemetry:
        run_telemetry = RunTelemetry(
            coverage_curve=tuple(history) if track_progress is not None else None,
            in_flight_curve=tuple(in_flight),
        )
    # Coarse per-run metrics: clock-free, so serial and REPRO_JOBS=N runs
    # of the same seeds report identical totals after the worker merge.
    registry = default_registry()
    registry.counter("sim_runs_total", "completed run_until_complete calls").inc(
        protocol=protocol_name
    )
    registry.counter("sim_rounds_total", "simulated rounds across all runs").inc(
        engine.round, protocol=protocol_name
    )
    registry.counter(
        "sim_exchanges_total", "completed exchanges across all runs"
    ).inc(engine.metrics.exchanges, protocol=protocol_name)
    state = getattr(engine, "state", None)
    state_nbytes = getattr(state, "state_nbytes", None)
    if state_nbytes is not None:
        layout = getattr(state, "layout", "unknown")
        registry.gauge(
            "sim_state_bytes", "peak rumor-state storage bytes per layout"
        ).set_max(state_nbytes(), layout=layout, protocol=protocol_name)
        registry.gauge(
            "sim_state_layout", "state layouts used, 1 per (layout, protocol)"
        ).set(1, layout=layout, protocol=protocol_name)
    return DisseminationResult(
        rounds=engine.round,
        complete=complete,
        exchanges=engine.metrics.exchanges,
        messages=engine.metrics.messages,
        protocol=protocol_name,
        informed_history=tuple(history) if track_progress is not None else None,
        blocked_initiations=engine.metrics.blocked_initiations,
        telemetry=run_telemetry,
    )
