"""Tests for failure injection and the restricted engine models."""

import random

import pytest

from repro.errors import SimulationError
from repro.graphs import generators
from repro.graphs.latency_graph import LatencyGraph
from repro.protocols.base import per_node_rng_factory
from repro.protocols.push_pull import PushPullProtocol
from repro.protocols.robustness import (
    run_push_pull_under_failures,
    run_spanner_pipeline_under_failures,
)
from repro.sim.engine import Engine, NodeProtocol
from repro.sim.failures import (
    CompositeFailure,
    CrashSchedule,
    EdgeOutage,
    MessageLoss,
    NoFailures,
)
from repro.sim.runner import broadcast_complete
from repro.sim.state import VectorState


class ContactForever(NodeProtocol):
    def __init__(self, target):
        self.target = target
        self.deliveries = 0

    def on_round(self, ctx):
        return self.target

    def on_deliver(self, ctx, delivery):
        self.deliveries += 1


class TestFailureModels:
    def test_no_failures(self):
        model = NoFailures()
        assert not model.node_crashed(0, 100)
        assert not model.exchange_lost(0, 1, 100)

    def test_message_loss_extremes(self):
        never = MessageLoss(0.0)
        always = MessageLoss(1.0)
        assert not any(never.exchange_lost(0, 1, r) for r in range(50))
        assert all(always.exchange_lost(0, 1, r) for r in range(50))

    def test_message_loss_rejects_bad_p(self):
        with pytest.raises(SimulationError):
            MessageLoss(1.5)

    def test_message_loss_rate(self):
        model = MessageLoss(0.3, seed=1)
        losses = sum(model.exchange_lost(0, 1, r) for r in range(2000))
        assert 0.25 < losses / 2000 < 0.35

    def test_crash_schedule(self):
        model = CrashSchedule({5: 10})
        assert not model.node_crashed(5, 9)
        assert model.node_crashed(5, 10)
        assert model.node_crashed(5, 99)
        assert not model.node_crashed(6, 99)

    def test_crash_schedule_rejects_negative(self):
        with pytest.raises(SimulationError):
            CrashSchedule({0: -1})

    def test_random_crashes_protects(self):
        rng = random.Random(0)
        model = CrashSchedule.random_crashes(
            range(10), count=5, by_round=3, rng=rng, protect=[0]
        )
        assert not model.node_crashed(0, 100)
        crashed = sum(model.node_crashed(v, 100) for v in range(10))
        assert crashed == 5

    def test_random_crashes_too_many(self):
        with pytest.raises(SimulationError):
            CrashSchedule.random_crashes(range(3), 4, 1, random.Random(0))

    def test_edge_outage_window(self):
        model = EdgeOutage({(0, 1): [(5, 10)]})
        assert not model.exchange_lost(0, 1, 4)
        assert model.exchange_lost(0, 1, 5)
        assert model.exchange_lost(1, 0, 9)  # unordered edge key
        assert not model.exchange_lost(0, 1, 10)

    def test_edge_outage_rejects_bad_interval(self):
        with pytest.raises(SimulationError):
            EdgeOutage({(0, 1): [(5, 5)]})

    def test_composite(self):
        model = CompositeFailure([CrashSchedule({1: 0}), MessageLoss(0.0)])
        assert model.node_crashed(1, 0)
        assert not model.node_crashed(2, 0)
        assert not model.exchange_lost(0, 2, 0)


class TestEngineWithFailures:
    def test_lost_exchange_never_delivers(self):
        g = LatencyGraph(edges=[(0, 1, 1)])
        engine = Engine(
            g,
            lambda v: ContactForever(1 if v == 0 else None),
            failure_model=MessageLoss(1.0),
        )
        for _ in range(10):
            engine.step()
        assert engine.protocol(0).deliveries == 0
        assert engine.metrics.lost_exchanges == 10
        assert engine.metrics.exchanges == 0

    def test_crashed_node_does_not_initiate(self):
        g = LatencyGraph(edges=[(0, 1, 1)])
        engine = Engine(
            g,
            lambda v: ContactForever(1 if v == 0 else 0),
            failure_model=CrashSchedule({0: 0}),
        )
        engine.step()
        assert all(u != 0 for u, _ in engine.last_initiations)

    def test_crashed_responder_voids_exchange(self):
        g = LatencyGraph(edges=[(0, 1, 5)])
        state = VectorState([0, 1])
        state.add_rumor(0, "x")
        engine = Engine(
            g,
            lambda v: ContactForever(1 if v == 0 else None),
            state=state,
            failure_model=CrashSchedule({1: 2}),  # crashes mid-flight
        )
        for _ in range(8):
            engine.step()
        assert not state.knows(1, "x")
        assert engine.protocol(0).deliveries == 0

    def test_crashed_initiator_still_informs_responder(self):
        g = LatencyGraph(edges=[(0, 1, 5)])
        state = VectorState([0, 1])
        state.add_rumor(0, "x")

        def factory(v):
            return ContactForever(1) if v == 0 else ContactForever(None)

        engine = Engine(
            g, factory, state=state, failure_model=CrashSchedule({0: 2})
        )
        for _ in range(8):
            engine.step()
        # The round-0 request was in flight; node 1 still receives it.
        assert state.knows(1, "x")
        assert engine.protocol(1).deliveries >= 1
        assert engine.protocol(0).deliveries == 0

    def test_push_pull_completes_under_moderate_loss(self):
        g = generators.clique(12)
        result = run_push_pull_under_failures(
            g, MessageLoss(0.3, seed=2), source=0, seed=2
        )
        assert result.complete
        assert result.lost_exchanges > 0

    def test_push_pull_routes_around_crashes(self):
        g = generators.clique(12)
        crashes = CrashSchedule.random_crashes(
            g.nodes(), 4, by_round=2, rng=random.Random(3), protect=[0]
        )
        result = run_push_pull_under_failures(g, crashes, source=0, seed=3)
        assert result.complete
        assert result.survivors == 8

    def test_spanner_pipeline_no_failures_completes(self):
        g = generators.ring_of_cliques(3, 4, inter_latency=2, rng=random.Random(0))
        result = run_spanner_pipeline_under_failures(g, None, source=0, seed=0)
        assert result.complete

    def test_spanner_pipeline_brittle_under_adversarial_crashes(self):
        # Sever one node's spanner neighborhood: it stays richly connected
        # in G (push--pull reaches it) but the pipeline cannot.
        from repro.protocols.robustness import spanner_cut_crashes

        g = generators.ring_of_cliques(5, 6, inter_latency=4, rng=random.Random(0))
        crashes, victim, crash_count = spanner_cut_crashes(g, seed=0, source=0)
        assert crash_count >= 1
        sp = run_spanner_pipeline_under_failures(g, crashes, source=0, seed=0)
        pp = run_push_pull_under_failures(
            g, crashes, source=0, seed=0, max_rounds=5000
        )
        assert sp.coverage < 1.0
        assert pp.coverage == 1.0

    def test_spanner_pipeline_survives_random_crashes(self):
        # Random crashes rarely hurt: the spanner has Ω(n log n) edges.
        g = generators.ring_of_cliques(5, 6, inter_latency=4, rng=random.Random(0))
        crashes = CrashSchedule.random_crashes(
            g.nodes(), 3, by_round=2, rng=random.Random(1), protect=[0]
        )
        sp = run_spanner_pipeline_under_failures(g, crashes, source=0, seed=1)
        assert sp.coverage >= 0.9


class TestBoundedInDegree:
    def test_cap_validation(self):
        g = LatencyGraph(edges=[(0, 1, 1)])
        with pytest.raises(SimulationError):
            Engine(g, lambda v: ContactForever(None), max_incoming_per_round=0)

    def test_star_congestion(self):
        star = generators.star(16)

        def run(cap):
            rumor = ("rumor", 0)
            state = VectorState(star.nodes())
            state.add_rumor(0, rumor)
            make_rng = per_node_rng_factory(4)
            engine = Engine(
                star,
                lambda node: PushPullProtocol(make_rng(node)),
                state=state,
                max_incoming_per_round=cap,
            )
            done = broadcast_complete(rumor)
            while not done(engine) and engine.round < 1000:
                engine.step()
            return engine

        unbounded = run(None)
        capped = run(1)
        assert capped.round > unbounded.round
        assert capped.metrics.rejected_initiations > 0
        assert unbounded.metrics.rejected_initiations == 0

    def test_cap_still_completes(self):
        g = generators.random_regular(16, 4, rng=random.Random(5))
        rumor = ("rumor", 0)
        state = VectorState(g.nodes())
        state.add_rumor(0, rumor)
        make_rng = per_node_rng_factory(5)
        engine = Engine(
            g,
            lambda node: PushPullProtocol(make_rng(node)),
            state=state,
            max_incoming_per_round=1,
        )
        done = broadcast_complete(rumor)
        while not done(engine) and engine.round < 5000:
            engine.step()
        assert done(engine)


class TestMessageAccounting:
    def test_tokens_counted(self):
        g = LatencyGraph(edges=[(0, 1, 1)])
        state = VectorState([0, 1])
        state.add_rumor(0, "a")
        state.add_rumor(0, "b")
        state.add_rumor(1, "c")
        engine = Engine(
            g, lambda v: ContactForever(1 if v == 0 else None), state=state
        )
        engine.step()
        assert engine.metrics.rumor_tokens_sent == 3  # {a,b} + {c}
        assert engine.metrics.max_payload_rumors == 2

    def test_ping_exchanges_count_zero_tokens(self):
        from repro.protocols.discovery import LatencyDiscoveryProtocol

        g = LatencyGraph(edges=[(0, 1, 1)])
        state = VectorState([0, 1])
        state.add_rumor(0, "a")
        engine = Engine(g, lambda v: LatencyDiscoveryProtocol(2), state=state)
        for _ in range(5):
            engine.step()
        assert engine.metrics.rumor_tokens_sent == 0
