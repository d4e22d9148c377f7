"""Tests for the run helpers, completion predicates, and result records."""

import random
import types

import pytest

from repro.errors import SimulationError
from repro.graphs import generators
from repro.graphs.latency_graph import LatencyGraph
from repro.obs.metrics import default_registry, reset_metrics
from repro.protocols.base import per_node_rng_factory
from repro.protocols.push_pull import PushPullProtocol, run_push_pull
from repro.sim.engine import Engine, NodeProtocol
from repro.sim.metrics import DisseminationResult
from repro.sim.runner import (
    all_to_all_complete,
    broadcast_complete,
    local_broadcast_complete,
    run_until_complete,
)
from repro.sim.state import VectorState
from repro.testing.reference import ReferenceNetworkState


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
        state = VectorState(g.nodes())
        engine = Engine(g, lambda v: Idle(), state=state)
        predicate = broadcast_complete("r")
        assert not predicate(engine)
        for node in g.nodes():
            state.add_rumor(node, "r")
        assert predicate(engine)

    @pytest.mark.parametrize("state_cls", [VectorState, ReferenceNetworkState])
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
        state = VectorState(g.nodes())
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
        state = VectorState(g.nodes())
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
        state = VectorState(g.nodes())
        state.seed_self_rumors()
        state.add_rumor(0, 1)
        state.add_rumor(1, 0)
        engine = Engine(g, lambda v: Idle(), state=state)
        # With threshold 1 the slow pair (1, 2) is exempt.
        assert local_broadcast_complete(1)(engine)
        assert not local_broadcast_complete(9)(engine)

    def test_local_broadcast_stays_within_knows_budget(self, monkeypatch):
        """Over a Lemma 3 reduction run the predicate asks ``knows`` at
        most once per ℓ-pair plus once per call: known pairs leave its
        frontier instead of being re-walked every round."""
        from repro.graphs.gadgets import guessing_gadget, random_target
        from repro.lowerbounds import reduction

        knows_calls = predicate_calls = 0

        class CountingState(VectorState):
            __slots__ = ()

            def knows(self, node, rumor):
                nonlocal knows_calls
                knows_calls += 1
                return super().knows(node, rumor)

        def counted(max_latency=None):
            inner = local_broadcast_complete(max_latency)

            def predicate(engine):
                nonlocal predicate_calls
                predicate_calls += 1
                return inner(engine)

            return predicate

        monkeypatch.setattr(reduction, "VectorState", CountingState)
        monkeypatch.setattr(reduction, "local_broadcast_complete", counted)
        gadget = guessing_gadget(6, random_target(6, 0.4, random.Random(2)))
        make_rng = per_node_rng_factory(2)
        outcome = reduction.simulate_gossip_as_guessing(
            gadget, lambda node: PushPullProtocol(make_rng(node))
        )
        graph, fast = gadget.graph, gadget.fast_latency
        pairs = sum(
            1
            for node in graph.nodes()
            for latency in graph.neighbor_latencies(node).values()
            if latency <= fast
        )
        assert outcome.gossip_complete and outcome.gossip_rounds > 1
        assert knows_calls <= pairs + predicate_calls

    def test_local_broadcast_predicate_follows_a_new_engine(self):
        """One predicate object asked about a second engine (a new state)
        rebuilds its frontier rather than trusting the first one's."""
        g = LatencyGraph(edges=[(0, 1, 1), (1, 2, 1)])
        predicate = local_broadcast_complete()
        done = VectorState(g.nodes())
        done.seed_self_rumors()
        for u, v in [(0, 1), (1, 0), (1, 2), (2, 1)]:
            done.add_rumor(u, v)
        assert predicate(Engine(g, lambda v: Idle(), state=done))
        fresh = VectorState(g.nodes())
        fresh.seed_self_rumors()
        assert not predicate(Engine(g, lambda v: Idle(), state=fresh))
        fresh.add_rumor(0, 1)
        fresh.add_rumor(1, 0)
        fresh.add_rumor(1, 2)
        assert not predicate(Engine(g, lambda v: Idle(), state=fresh))
        fresh.add_rumor(2, 1)
        assert predicate(Engine(g, lambda v: Idle(), state=fresh))


class TestRunUntilComplete:
    def test_scalar_push_pull_reports_dense_layout(self):
        """The scalar engine runs over the one rumor state, so its
        ``sim_state_layout`` gauge reads ``dense`` like the vector one."""
        reset_metrics()
        try:
            run_push_pull(generators.clique(8), seed=1, backend="scalar")
            cells = default_registry().collect()["sim_state_layout"]["values"]
            assert {cell["labels"]["layout"] for cell in cells} == {"dense"}
        finally:
            reset_metrics()

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
        state = VectorState(g.nodes())
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
        state = VectorState(g.nodes())
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
