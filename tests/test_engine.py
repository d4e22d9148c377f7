"""Tests for the synchronous non-blocking engine (the paper's model)."""

from typing import Optional

import pytest

from repro.errors import ProtocolError, SimulationError
from repro.graphs.latency_graph import LatencyGraph
from repro.sim.engine import Delivery, Engine, NodeContext, NodeProtocol
from repro.sim.state import VectorState


class Idle(NodeProtocol):
    def on_round(self, ctx):
        return None


class ContactOnce(NodeProtocol):
    """Contact a fixed neighbor in round 0, then idle; log deliveries."""

    def __init__(self, target: Optional[int]):
        self.target = target
        self.deliveries: list[Delivery] = []

    def on_round(self, ctx):
        if ctx.round == 0:
            return self.target
        return None

    def on_deliver(self, ctx, delivery):
        self.deliveries.append(delivery)


def pair_graph(latency: int = 3) -> LatencyGraph:
    return LatencyGraph(edges=[(0, 1, latency)])


class TestExchangeSemantics:
    def test_delivery_after_latency(self):
        engine = Engine(pair_graph(3), lambda v: ContactOnce(1 if v == 0 else None))
        for _ in range(3):
            engine.step()
        assert engine.protocol(0).deliveries == []
        engine.step()  # round 3: delivery due
        deliveries = engine.protocol(0).deliveries
        assert len(deliveries) == 1
        assert deliveries[0].measured_latency == 3
        assert deliveries[0].initiated_by_me

    def test_both_endpoints_get_delivery(self):
        engine = Engine(pair_graph(1), lambda v: ContactOnce(1 if v == 0 else None))
        engine.step()
        engine.step()
        assert len(engine.protocol(0).deliveries) == 1
        assert len(engine.protocol(1).deliveries) == 1
        assert not engine.protocol(1).deliveries[0].initiated_by_me

    def test_knowledge_merged_both_ways(self):
        state = VectorState([0, 1])
        state.add_rumor(0, "a")
        state.add_rumor(1, "b")
        engine = Engine(
            pair_graph(2),
            lambda v: ContactOnce(1 if v == 0 else None),
            state=state,
        )
        engine.step()
        engine.step()
        assert not state.knows(1, "a")  # not delivered yet
        engine.step()
        assert state.knows(1, "a")
        assert state.knows(0, "b")

    def test_snapshot_taken_at_initiation(self):
        state = VectorState([0, 1])
        engine = Engine(
            pair_graph(3),
            lambda v: ContactOnce(1 if v == 0 else None),
            state=state,
        )
        engine.step()  # round 0: exchange initiated with empty knowledge
        state.add_rumor(0, "late")  # learned after initiation
        for _ in range(3):
            engine.step()
        assert not state.knows(1, "late")

    def test_fresh_snapshot_mode_ships_delivery_time_state(self):
        state = VectorState([0, 1])
        engine = Engine(
            pair_graph(3),
            lambda v: ContactOnce(1 if v == 0 else None),
            state=state,
            fresh_snapshots=True,
        )
        engine.step()
        state.add_rumor(0, "late")
        for _ in range(3):
            engine.step()
        assert state.knows(1, "late")

    def test_non_blocking_multiple_in_flight(self):
        class EveryRound(NodeProtocol):
            def on_round(self, ctx):
                return 1 if ctx.node == 0 else None

        engine = Engine(pair_graph(5), lambda v: EveryRound())
        for _ in range(3):
            engine.step()
        assert engine.pending_exchanges() == 3

    def test_contact_non_neighbor_rejected(self):
        g = LatencyGraph(edges=[(0, 1, 1)])
        g.add_node(2)
        engine = Engine(g, lambda v: ContactOnce(2 if v == 0 else None))
        with pytest.raises(ProtocolError):
            engine.step()

    def test_last_initiations_recorded(self):
        engine = Engine(pair_graph(1), lambda v: ContactOnce(1 if v == 0 else None))
        engine.step()
        assert engine.last_initiations == [(0, 1)]
        engine.step()
        assert engine.last_initiations == []

    def test_activated_edges_canonical_by_dense_id(self):
        # Node 10 interned before node 2: the canonical edge must follow
        # insertion (dense-id) order, not value or repr order.
        g = LatencyGraph(edges=[(10, 2, 1)])
        engine = Engine(g, lambda v: ContactOnce(10 if v == 2 else None))
        engine.step()
        assert engine.metrics.activated_edges == {(10, 2)}

    def test_blocking_ledger_drops_settled_entries(self):
        engine = Engine(
            pair_graph(2),
            lambda v: ContactOnce(1 if v == 0 else None),
            enforce_blocking=True,
        )
        engine.step()
        assert engine._in_flight_initiations == {0: 1}
        engine.step()
        engine.step()  # delivery settles the exchange
        assert engine._in_flight_initiations == {}  # no zero-count residue

    def test_blocking_ledger_untouched_when_not_enforcing(self):
        engine = Engine(pair_graph(2), lambda v: ContactOnce(1 if v == 0 else None))
        engine.step()
        assert engine._in_flight_initiations == {}


class TestLatencyVisibility:
    def test_unknown_latencies_blocked(self):
        engine = Engine(pair_graph(4), lambda v: Idle())
        ctx = NodeContext(engine, 0)
        with pytest.raises(ProtocolError):
            ctx.latency_to(1)
        with pytest.raises(ProtocolError):
            ctx.known_latencies()

    def test_known_latencies_visible(self):
        engine = Engine(pair_graph(4), lambda v: Idle(), latencies_known=True)
        ctx = NodeContext(engine, 0)
        assert ctx.latency_to(1) == 4
        assert ctx.known_latencies() == {1: 4}

    def test_measured_latency_matches_edge(self):
        engine = Engine(pair_graph(7), lambda v: ContactOnce(1 if v == 0 else None))
        for _ in range(8):
            engine.step()
        assert engine.protocol(0).deliveries[0].measured_latency == 7


class TestRunLoop:
    def test_run_until_all_done(self):
        class DoneAfter(NodeProtocol):
            def on_round(self, ctx):
                return None

            def is_done(self, ctx):
                return ctx.round >= 5

        engine = Engine(pair_graph(), lambda v: DoneAfter())
        rounds = engine.run()
        assert rounds == 5

    def test_run_custom_predicate(self):
        engine = Engine(pair_graph(), lambda v: Idle())
        rounds = engine.run(until=lambda e: e.round >= 3)
        assert rounds == 3

    def test_max_rounds_raises(self):
        engine = Engine(pair_graph(), lambda v: Idle())
        with pytest.raises(SimulationError):
            engine.run(max_rounds=10)

    def test_done_nodes_stop_initiating_but_respond(self):
        state = VectorState([0, 1])
        state.add_rumor(1, "from-done")

        class DoneImmediately(NodeProtocol):
            def on_round(self, ctx):  # pragma: no cover - never called
                raise AssertionError("done node must not act")

            def is_done(self, ctx):
                return True

        def factory(v):
            return ContactOnce(1) if v == 0 else DoneImmediately()

        engine = Engine(pair_graph(1), factory, state=state)
        engine.step()
        engine.step()
        assert state.knows(0, "from-done")

    def test_metrics_counts(self):
        engine = Engine(pair_graph(1), lambda v: ContactOnce(1 if v == 0 else None))
        engine.step()
        assert engine.metrics.exchanges == 1
        assert engine.metrics.messages == 2
        assert len(engine.metrics.activated_edges) == 1


class TestDeterminism:
    def test_identical_runs_identical_state(self):
        from repro.protocols.push_pull import run_push_pull
        from repro.graphs import generators

        g = generators.ring_of_cliques(4, 4, inter_latency=3)
        a = run_push_pull(g, source=0, seed=11)
        b = run_push_pull(g, source=0, seed=11)
        assert a.rounds == b.rounds
        assert a.exchanges == b.exchanges

    def test_different_seeds_usually_differ(self):
        from repro.protocols.push_pull import run_push_pull
        from repro.graphs import generators

        g = generators.ring_of_cliques(4, 4, inter_latency=3)
        results = {run_push_pull(g, source=0, seed=s).exchanges for s in range(5)}
        assert len(results) > 1
