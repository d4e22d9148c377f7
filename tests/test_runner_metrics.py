"""Tests for the run helpers, completion predicates, and result records."""

import types

import pytest

from repro.errors import SimulationError
from repro.graphs import generators
from repro.graphs.latency_graph import LatencyGraph
from repro.protocols.base import per_node_rng_factory
from repro.protocols.push_pull import PushPullProtocol
from repro.sim.engine import Engine, NodeProtocol
from repro.sim.metrics import DisseminationResult
from repro.sim.runner import (
    all_to_all_complete,
    broadcast_complete,
    local_broadcast_complete,
    run_until_complete,
)
from repro.sim.state import NetworkState
from repro.sim.vector import VectorState


class Idle(NodeProtocol):
    def on_round(self, ctx):
        return None


def push_pull_engine(graph, state=None, seed=0):
    make_rng = per_node_rng_factory(seed)
    return Engine(
        graph,
        lambda node: PushPullProtocol(make_rng(node)),
        state=state,
    )


class TestPredicates:
    def test_broadcast_complete(self):
        g = generators.path(3)
        state = NetworkState(g.nodes())
        engine = Engine(g, lambda v: Idle(), state=state)
        predicate = broadcast_complete("r")
        assert not predicate(engine)
        for node in g.nodes():
            state.add_rumor(node, "r")
        assert predicate(engine)

    @pytest.mark.parametrize("state_cls", [NetworkState, VectorState])
    def test_broadcast_complete_ignores_extra_state_nodes(self, state_cls):
        """The coverage counter reaches n through a node outside the
        graph; the exact check must still see the graph node that does
        not know the rumor."""
        g = generators.path(3)
        state = state_cls([*g.nodes(), "outsider"])
        for node in ["outsider", *g.nodes()[1:]]:
            state.add_rumor(node, "r")
        engine = types.SimpleNamespace(graph=g, state=state)
        assert state.count_knowing("r") == g.num_nodes
        assert not broadcast_complete("r")(engine)
        state.add_rumor(g.nodes()[0], "r")
        assert broadcast_complete("r")(engine)

    def test_all_to_all_complete(self):
        g = generators.path(3)
        state = NetworkState(g.nodes())
        state.seed_self_rumors()
        engine = Engine(g, lambda v: Idle(), state=state)
        predicate = all_to_all_complete()
        assert not predicate(engine)
        for node in g.nodes():
            for other in g.nodes():
                state.add_rumor(node, other)
        assert predicate(engine)

    def test_local_broadcast_complete_unfiltered(self):
        g = LatencyGraph(edges=[(0, 1, 1), (1, 2, 9)])
        state = NetworkState(g.nodes())
        state.seed_self_rumors()
        engine = Engine(g, lambda v: Idle(), state=state)
        predicate = local_broadcast_complete()
        assert not predicate(engine)
        state.add_rumor(0, 1)
        state.add_rumor(1, 0)
        state.add_rumor(1, 2)
        state.add_rumor(2, 1)
        assert predicate(engine)

    def test_local_broadcast_latency_filter(self):
        g = LatencyGraph(edges=[(0, 1, 1), (1, 2, 9)])
        state = NetworkState(g.nodes())
        state.seed_self_rumors()
        state.add_rumor(0, 1)
        state.add_rumor(1, 0)
        engine = Engine(g, lambda v: Idle(), state=state)
        # With threshold 1 the slow pair (1, 2) is exempt.
        assert local_broadcast_complete(1)(engine)
        assert not local_broadcast_complete(9)(engine)


class TestRunUntilComplete:
    def test_already_complete_runs_zero_rounds(self):
        g = generators.path(3)
        engine = push_pull_engine(g)
        result = run_until_complete(engine, lambda e: True, "noop")
        assert result.rounds == 0
        assert result.complete

    def test_raises_on_budget_by_default(self):
        g = generators.path(3)
        engine = Engine(g, lambda v: Idle())
        with pytest.raises(SimulationError):
            run_until_complete(engine, lambda e: False, "never", max_rounds=4)

    def test_allow_incomplete_result(self):
        g = generators.path(3)
        engine = Engine(g, lambda v: Idle())
        result = run_until_complete(
            engine, lambda e: False, "never", max_rounds=4, allow_incomplete=True
        )
        assert not result.complete
        assert result.rounds == 4

    def test_progress_includes_final_state(self):
        g = generators.clique(6)
        state = NetworkState(g.nodes())
        state.add_rumor(0, "r")
        engine = push_pull_engine(g, state=state, seed=2)
        result = run_until_complete(
            engine,
            broadcast_complete("r"),
            "pp",
            track_progress=lambda e: e.state.count_knowing("r"),
        )
        assert result.informed_history[-1] == 6
        assert len(result.informed_history) == result.rounds + 1

    def test_no_tracking_means_no_history(self):
        g = generators.clique(4)
        state = NetworkState(g.nodes())
        state.add_rumor(0, "r")
        engine = push_pull_engine(g, state=state, seed=3)
        result = run_until_complete(engine, broadcast_complete("r"), "pp")
        assert result.informed_history is None


class TestDisseminationResult:
    def test_str_complete(self):
        result = DisseminationResult(
            rounds=5, complete=True, exchanges=10, messages=20, protocol="x"
        )
        assert "complete" in str(result)
        assert "5 rounds" in str(result)

    def test_str_incomplete(self):
        result = DisseminationResult(
            rounds=5, complete=False, exchanges=10, messages=20, protocol="x"
        )
        assert "INCOMPLETE" in str(result)


class TestEngineMetricsAccounting:
    def test_messages_twice_exchanges(self):
        g = generators.clique(5)
        engine = push_pull_engine(g, seed=4)
        for _ in range(6):
            engine.step()
        assert engine.metrics.messages == 2 * engine.metrics.exchanges

    def test_activated_edges_subset_of_graph(self):
        g = generators.grid(3, 3)
        engine = push_pull_engine(g, seed=5)
        for _ in range(10):
            engine.step()
        for u, v in engine.metrics.activated_edges:
            assert g.has_edge(u, v)

    def test_rounds_tracked(self):
        g = generators.path(3)
        engine = push_pull_engine(g)
        for _ in range(7):
            engine.step()
        assert engine.metrics.rounds == 7
        assert engine.round == 7
