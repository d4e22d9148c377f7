"""Differential tests: Engine vs ReferenceEngine on random weighted graphs.

Property-based: for random connected latency graphs, random seeds, and the
main protocols, the production engine and the naive reference engine must
agree on completion rounds, per-node knowledge, and metrics.  A last test
proves the harness has teeth by feeding it a deliberately broken engine.
"""


import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.graphs.generators import ring_of_cliques
from repro.protocols.base import per_node_rng_factory
from repro.protocols.eid import run_eid, run_general_eid
from repro.protocols.flooding import FloodingProtocol
from repro.protocols.push_pull import PushPullProtocol
from repro.sim.engine import Engine, NodeProtocol
from repro.sim.failures import MessageLoss
from repro.sim.runner import broadcast_complete
from repro.sim.state import VectorState
from repro.testing import (
    ReferenceEngine,
    assert_engines_agree,
    connected_latency_graphs,
    crash_schedules,
    engine_configs,
    large_dense_graphs,
    run_differential,
    seeds,
)


def broadcast_setup(graph):
    source = graph.nodes()[0]
    rumor = ("rumor", source)

    def make_state():
        state = VectorState(graph.nodes())
        state.add_rumor(source, rumor)
        return state

    return rumor, make_state


class TestPushPullDifferential:
    @given(connected_latency_graphs(), seeds())
    @settings(max_examples=25, deadline=None)
    def test_engines_agree(self, graph, seed):
        rumor, make_state = broadcast_setup(graph)

        def make_factory():
            make_rng = per_node_rng_factory(seed)
            return lambda node: PushPullProtocol(make_rng(node))

        report = run_differential(
            graph,
            make_factory=make_factory,
            make_state=make_state,
            predicate=broadcast_complete(rumor),
            max_rounds=5_000,
        )
        assert_engines_agree(report)
        assert report.rounds is not None


class TestFloodingDifferential:
    @given(connected_latency_graphs())
    @settings(max_examples=25, deadline=None)
    def test_engines_agree(self, graph):
        rumor, make_state = broadcast_setup(graph)
        report = run_differential(
            graph,
            make_factory=lambda: (lambda node: FloodingProtocol(None)),
            make_state=make_state,
            predicate=broadcast_complete(rumor),
            max_rounds=5_000,
        )
        assert_engines_agree(report)

    @given(connected_latency_graphs(max_nodes=8))
    @settings(max_examples=15, deadline=None)
    def test_push_only_engines_agree(self, graph):
        rumor, make_state = broadcast_setup(graph)
        report = run_differential(
            graph,
            make_factory=lambda: (lambda node: FloodingProtocol(rumor)),
            make_state=make_state,
            predicate=broadcast_complete(rumor),
            max_rounds=20_000,
        )
        assert_engines_agree(report)


class TestEIDDifferential:
    """EID runs whole multi-phase pipelines; compare the composite reports."""

    @given(connected_latency_graphs(max_nodes=8, max_latency=4), seeds(100))
    @settings(max_examples=8, deadline=None)
    def test_eid_reports_identical(self, graph, seed):
        diameter = max(1, graph.weighted_diameter())
        fast = run_eid(graph, diameter, seed=seed)
        slow = run_eid(graph, diameter, seed=seed, engine_factory=ReferenceEngine)
        assert fast.rounds == slow.rounds
        assert fast.exchanges == slow.exchanges
        assert fast.diameter_estimate == slow.diameter_estimate

    @given(seeds(100))
    @settings(max_examples=3, deadline=None)
    def test_general_eid_reports_identical(self, seed):
        graph = ring_of_cliques(3, 4, inter_latency=5)
        fast = run_general_eid(graph, seed=seed)
        slow = run_general_eid(graph, seed=seed, engine_factory=ReferenceEngine)
        assert fast == slow


class OffByOneDelivery(Engine):
    """Broken engine: every exchange delivers one round early."""

    def _initiate(self, initiator, responder):
        before = self.pending_exchanges()
        super()._initiate(initiator, responder)
        if self.pending_exchanges() == before:
            return  # the exchange was dropped (lost/rejected), nothing queued
        # The newest exchange is the one with the highest sequence number;
        # move it one delivery bucket earlier.
        round_key, exchange = max(
            ((r, bucket[-1]) for r, bucket in self._in_flight.items() if bucket),
            key=lambda item: item[1].sequence,
        )
        self._in_flight[round_key].pop()
        if not self._in_flight[round_key]:
            del self._in_flight[round_key]
        exchange.delivers_at -= 1
        self._in_flight.setdefault(exchange.delivers_at, []).append(exchange)


class TestHarnessHasTeeth:
    def test_broken_engine_is_caught(self):
        graph = ring_of_cliques(4, 5, inter_latency=7)
        rumor, make_state = broadcast_setup(graph)

        def make_factory():
            make_rng = per_node_rng_factory(3)
            return lambda node: PushPullProtocol(make_rng(node))

        report = run_differential(
            graph,
            make_factory=make_factory,
            make_state=make_state,
            predicate=broadcast_complete(rumor),
            engine_cls=OffByOneDelivery,
        )
        assert not report.equivalent
        with pytest.raises(SimulationError, match="diverged"):
            assert_engines_agree(report)

    def test_reference_engine_rejects_bad_cap(self):
        graph = ring_of_cliques(3, 3)
        with pytest.raises(SimulationError):
            ReferenceEngine(
                graph, lambda node: FloodingProtocol(None), max_incoming_per_round=0
            )


class RoundRobinPinger(NodeProtocol):
    """Ping-only protocol: each node cycles its neighbors for a few rounds.

    ``sends_payload = False`` makes every exchange a pure ping, and
    ``is_done`` flips to True mid-run while pings are still in flight —
    exercising the optimized engine's done-node parking and wakeup.
    """

    sends_payload = False

    def __init__(self, node, graph, rounds=12):
        self._neighbors = sorted(graph.neighbors(node), key=repr)
        self._budget = rounds
        self._sent = 0

    def on_round(self, ctx):
        if self._sent >= self._budget:
            return None
        target = self._neighbors[self._sent % len(self._neighbors)]
        self._sent += 1
        return target

    def is_done(self, ctx):
        return self._sent >= self._budget


class TestConfigVariantDifferential:
    """Differential runs over the model-variant configuration space."""

    @given(connected_latency_graphs(max_nodes=12), seeds(), engine_configs())
    @settings(max_examples=20, deadline=None)
    def test_fresh_snapshots_and_cap_agree(self, graph, seed, config):
        rumor, make_state = broadcast_setup(graph)

        def make_factory():
            make_rng = per_node_rng_factory(seed)
            return lambda node: PushPullProtocol(make_rng(node))

        report = run_differential(
            graph,
            make_factory=make_factory,
            make_state=make_state,
            predicate=broadcast_complete(rumor),
            fresh_snapshots=config["fresh_snapshots"],
            max_incoming_per_round=config["max_incoming_per_round"],
            max_rounds=5_000,
        )
        assert_engines_agree(report)

    @given(large_dense_graphs(max_nodes=25), seeds(100))
    @settings(max_examples=8, deadline=None)
    def test_larger_denser_graphs_agree(self, graph, seed):
        rumor, make_state = broadcast_setup(graph)

        def make_factory():
            make_rng = per_node_rng_factory(seed)
            return lambda node: PushPullProtocol(make_rng(node))

        report = run_differential(
            graph,
            make_factory=make_factory,
            make_state=make_state,
            predicate=broadcast_complete(rumor),
            max_rounds=5_000,
        )
        assert_engines_agree(report)
        assert report.rounds is not None

    @given(large_dense_graphs(min_nodes=8, max_nodes=16), seeds(100), st.data())
    @settings(max_examples=8, deadline=None)
    def test_crash_schedules_agree(self, graph, seed, data):
        rumor, make_state = broadcast_setup(graph)
        source = graph.nodes()[0]
        crashes = data.draw(crash_schedules(graph.nodes(), protect=[source]))

        def make_factory():
            make_rng = per_node_rng_factory(seed)
            return lambda node: PushPullProtocol(make_rng(node))

        report = run_differential(
            graph,
            make_factory=make_factory,
            make_state=make_state,
            predicate=lambda engine: engine.round >= 25,
            make_failure_model=lambda: crashes,  # stateless: sharable
        )
        assert_engines_agree(report)

    @given(connected_latency_graphs(max_nodes=10), seeds(100))
    @settings(max_examples=10, deadline=None)
    def test_message_loss_agree(self, graph, seed):
        rumor, make_state = broadcast_setup(graph)

        def make_factory():
            make_rng = per_node_rng_factory(seed)
            return lambda node: PushPullProtocol(make_rng(node))

        report = run_differential(
            graph,
            make_factory=make_factory,
            make_state=make_state,
            predicate=lambda engine: engine.round >= 25,
            # RNG-stateful: each engine must consume its own stream.
            make_failure_model=lambda: MessageLoss(p=0.3, seed=seed),
        )
        assert_engines_agree(report)

    @given(connected_latency_graphs(max_nodes=10), seeds(100))
    @settings(max_examples=15, deadline=None)
    def test_ping_only_agree(self, graph, seed):
        report = run_differential(
            graph,
            make_factory=lambda: (lambda node: RoundRobinPinger(node, graph)),
            max_rounds=5_000,
        )
        assert_engines_agree(report)
        assert report.rounds is not None
