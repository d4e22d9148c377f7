"""Differential suite for the vector backend's ℓ-DTG plan.

In a plain run ℓ-DTG (Algorithm 5) is in lockstep, so the vector engine
replays it as one more selection cohort: link-or-stop decisions from one
column test at each iteration boundary, then fixed push/pull/pull/push
exchanges every ``ℓ`` rounds.  That replay must be indistinguishable
from running the per-node generator programs: round by round, the vector
run must match both the scalar :class:`~repro.sim.engine.Engine` and the
naive :class:`~repro.testing.ReferenceEngine` — knowledge, every engine
counter, termination — and the protocol instances it hands back must
carry the same ``iterations_used`` and ``measured_latencies``.  The
matrix crosses ``ℓ`` (1 and the largest latency), run tags, and
graph-read and measured fast lists.

A sabotaged fast list (an edge slower than ``ℓ``) breaks the lockstep;
the plan must refuse to continue rather than diverge quietly.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ProtocolError, SimulationError
from repro.graphs.generators import erdos_renyi
from repro.graphs.latency_graph import LatencyGraph
from repro.graphs.latency_models import uniform_latency
from repro.protocols.base import PhaseRunner
from repro.protocols.discovery import run_latency_discovery
from repro.protocols.dtg import LDTGProtocol, ldtg_factory
from repro.sim.engine import Engine
from repro.sim.state import VectorState
from repro.sim.vector import VectorEngine
from repro.testing import (
    ReferenceEngine,
    ReferenceNetworkState,
    connected_latency_graphs,
)


def _observe(engine, graph):
    """Everything the two backends must agree on after a round."""
    metrics = engine.metrics
    nodes = graph.nodes()
    return {
        "round": engine.round,
        "done": engine.all_done(),
        "exchanges": metrics.exchanges,
        "messages": metrics.messages,
        "rumor_tokens_sent": metrics.rumor_tokens_sent,
        "max_payload_rumors": metrics.max_payload_rumors,
        "activated_edges": set(metrics.activated_edges),
        "rumors": {v: set(engine.state.rumors(v)) for v in nodes},
        "iterations_used": {v: engine.protocol(v).iterations_used for v in nodes},
        "measured_latencies": {
            v: list(engine.protocol(v).measured_latencies.items()) for v in nodes
        },
    }


def _engines(graph, factory, latencies_known):
    scalar_state = VectorState(graph.nodes())
    scalar_state.seed_self_rumors()
    reference_state = ReferenceNetworkState(graph.nodes())
    reference_state.seed_self_rumors()
    vector_state = VectorState(graph.nodes())
    vector_state.seed_self_rumors()
    kwargs = {"latencies_known": latencies_known}
    return (
        Engine(graph, factory, state=scalar_state, **kwargs),
        ReferenceEngine(graph, factory, state=reference_state, **kwargs),
        VectorEngine(graph, factory, state=vector_state, **kwargs),
    )


@given(
    graph=connected_latency_graphs(min_nodes=2, max_nodes=12),
    use_max_ell=st.booleans(),
    run_tag=st.sampled_from([None, "t"]),
    measured=st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_vector_dtg_matches_scalar_and_reference(graph, use_max_ell, run_tag, measured):
    ell = max(1, graph.max_latency()) if use_max_ell else 1
    table = None
    if measured:
        table = run_latency_discovery(graph, window=max(1, graph.max_latency()))
    factory = ldtg_factory(graph, ell, measured=table, run_tag=run_tag)
    _assert_agree_every_round(graph, factory, latencies_known=not measured)


@pytest.mark.parametrize("ell", [1, 2, 4])
def test_multi_iteration_exchange_order(ell):
    # Denser, larger graphs run several iterations, where the order of the
    # push/pull sequences over the linked list becomes observable in the
    # payload counters and the knowledge timeline.
    graph = erdos_renyi(
        40, 0.25, latency_model=uniform_latency(1, 4), rng=random.Random(ell)
    )
    factory = ldtg_factory(graph, ell, run_tag="order")
    _assert_agree_every_round(graph, factory, latencies_known=True)


def _assert_agree_every_round(graph, factory, latencies_known):
    scalar, reference, vector = _engines(graph, factory, latencies_known)
    assert vector._plans, "the ℓ-DTG phase must run as a vector plan"
    for _ in range(100_000):
        expected = _observe(scalar, graph)
        assert _observe(reference, graph) == expected
        assert _observe(vector, graph) == expected
        if expected["done"]:
            break
        scalar.step()
        reference.step()
        vector.step()
    else:  # pragma: no cover - ℓ-DTG always terminates
        pytest.fail("ℓ-DTG did not terminate")
    assert vector.pending_exchanges() == scalar.pending_exchanges()


def test_all_dtg_engine_runs_the_scalar_round_count():
    graph = LatencyGraph()
    for u, v, latency in [(0, 1, 1), (1, 2, 2), (2, 3, 1), (3, 0, 2), (0, 2, 1)]:
        graph.add_edge(u, v, latency)
    factory = ldtg_factory(graph, 2, run_tag="r")
    scalar, _, vector = _engines(graph, factory, latencies_known=True)
    assert not vector.all_done()
    assert vector.run() == scalar.run() > 0
    assert vector.metrics.exchanges == scalar.metrics.exchanges


def test_isolated_members_stop_after_one_round():
    # Nobody has a fast neighbor: every member stops at round 0's
    # boundary, exactly when its scalar generator returns.
    graph = LatencyGraph()
    graph.add_edge("a", "b", 5)
    factory = ldtg_factory(graph, 1)
    scalar, _, vector = _engines(graph, factory, latencies_known=True)
    assert vector.run() == scalar.run() == 1
    assert vector.metrics.exchanges == 0


def test_slow_fast_list_breaks_lockstep_loudly():
    # "b" is listed as a fast neighbor of "a", but the edge is slower than
    # ℓ: the first exchange cannot deliver before iteration 2 starts.
    graph = LatencyGraph()
    graph.add_edge("a", "b", 5)
    make = {"a": ["b"], "b": []}
    factory = lambda node: LDTGProtocol(1, fast_neighbors=make[node])  # noqa: E731
    state = VectorState(graph.nodes())
    engine = VectorEngine(graph, factory, state=state)
    with pytest.raises(SimulationError, match="lockstep broken at round 4"):
        engine.run()
    # The scalar program silently re-walks its linked list instead.
    Engine(graph, factory).run()


def test_non_neighbor_in_fast_list_is_rejected_at_construction():
    graph = LatencyGraph()
    graph.add_edge("a", "b", 1)
    graph.add_edge("b", "c", 1)
    make = {"a": ["c"], "b": [], "c": []}
    with pytest.raises(ProtocolError, match="non-neighbor"):
        VectorEngine(graph, lambda node: LDTGProtocol(1, fast_neighbors=make[node]))


def test_phase_runner_dtg_rides_vector_end_to_end():
    graph = LatencyGraph()
    for u, v, latency in [(0, 1, 1), (1, 2, 3), (2, 3, 1), (3, 4, 2), (4, 0, 1)]:
        graph.add_edge(u, v, latency)
    scalar = PhaseRunner(graph)
    vector = PhaseRunner(graph, backend="vector")
    for runner in (scalar, vector):
        for step, ell in enumerate([1, 3]):
            runner.run_phase(
                ldtg_factory(graph, ell, run_tag=f"s{step}"), latencies_known=True
            )
    assert [p.backend for p in vector.phases] == ["vector", "vector"]
    assert [(p.rounds, p.exchanges) for p in vector.phases] == [
        (p.rounds, p.exchanges) for p in scalar.phases
    ]
    for node in graph.nodes():
        assert set(vector.state.rumors(node)) == set(scalar.state.rumors(node))
