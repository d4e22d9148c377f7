"""Determinism oracle: same seed, same inputs — bit-identical results.

Every protocol runner in ``src/repro/protocols/`` is executed twice with
identical arguments; any field-level difference means hidden global state
or iteration-order dependence (which would silently poison every
seed-averaged experiment table).  The replay half re-executes a recorded
obs event stream and demands an identical stream and metrics — the
deliveries' learned-rumor deltas included, so it also sees knowledge.
"""

import dataclasses

import pytest

from repro.errors import SimulationError
from repro.graphs.generators import clique, ring_of_cliques, star
from repro.obs import InitiationEvent, Recorder, event_to_json
from repro.protocols.aggregation import run_aggregate
from repro.protocols.base import per_node_rng_factory
from repro.protocols.discovery import run_general_eid_unknown_latencies
from repro.protocols.discovery import LatencyDiscoveryProtocol
from repro.protocols.dtg import run_ldtg
from repro.protocols.eid import run_eid, run_general_eid
from repro.protocols.flooding import run_flooding
from repro.protocols.path_discovery import run_path_discovery
from repro.protocols.push_pull import PushPullProtocol, run_push_pull
from repro.protocols.robustness import (
    run_push_pull_under_failures,
    run_spanner_pipeline_under_failures,
)
from repro.protocols.unified import run_unified
from repro.sim.engine import Engine
from repro.sim.failures import MessageLoss
from repro.sim.runner import broadcast_complete
from repro.sim.state import VectorState
from repro.testing import record_and_replay, replay


def small_graph():
    return ring_of_cliques(3, 4, inter_latency=5)


class TestRunnersDeterministic:
    """Run each protocol twice with the same seed; results must be equal."""

    def test_push_pull(self):
        graph = small_graph()
        a = run_push_pull(graph, seed=7, track_progress=True)
        b = run_push_pull(graph, seed=7, track_progress=True)
        assert a == b

    def test_flooding(self):
        graph = small_graph()
        assert run_flooding(graph) == run_flooding(graph)

    def test_ldtg(self):
        graph = small_graph()
        assert run_ldtg(graph, 5) == run_ldtg(graph, 5)

    def test_eid(self):
        graph = small_graph()
        diameter = graph.weighted_diameter()
        a = run_eid(graph, diameter, seed=3)
        b = run_eid(graph, diameter, seed=3)
        # The spanner field holds object references; compare the scalars.
        assert (a.rounds, a.exchanges, a.diameter_estimate) == (
            b.rounds,
            b.exchanges,
            b.diameter_estimate,
        )

    def test_general_eid(self):
        graph = small_graph()
        assert run_general_eid(graph, seed=3) == run_general_eid(graph, seed=3)

    def test_general_eid_unknown_latencies(self):
        graph = small_graph()
        a = run_general_eid_unknown_latencies(graph, seed=3)
        b = run_general_eid_unknown_latencies(graph, seed=3)
        assert a == b

    def test_path_discovery(self):
        graph = ring_of_cliques(3, 3, inter_latency=3)
        assert run_path_discovery(graph) == run_path_discovery(graph)

    def test_unified(self):
        graph = small_graph()
        a = run_unified(graph, latencies_known=True, seed=2)
        b = run_unified(graph, latencies_known=True, seed=2)
        assert dataclasses.astuple(a) == dataclasses.astuple(b)

    def test_aggregate(self):
        graph = small_graph()
        values = {node: hash(repr(node)) % 100 for node in graph.nodes()}
        a = run_aggregate(graph, values, op="max", seed=5)
        b = run_aggregate(graph, values, op="max", seed=5)
        assert a == b

    def test_push_pull_under_failures(self):
        graph = clique(10)
        a = run_push_pull_under_failures(graph, MessageLoss(p=0.2, seed=4), seed=1)
        b = run_push_pull_under_failures(graph, MessageLoss(p=0.2, seed=4), seed=1)
        assert a == b

    def test_spanner_pipeline_under_failures(self):
        graph = small_graph()
        a = run_spanner_pipeline_under_failures(graph, None, seed=1)
        b = run_spanner_pipeline_under_failures(graph, None, seed=1)
        assert a == b


class TestReplayOracle:
    def test_record_and_replay_push_pull(self):
        graph = small_graph()
        source = graph.nodes()[0]
        rumor = ("rumor", source)

        def make_state():
            state = VectorState(graph.nodes())
            state.add_rumor(source, rumor)
            return state

        def make_factory():
            make_rng = per_node_rng_factory(9)
            return lambda node: PushPullProtocol(make_rng(node))

        report = record_and_replay(
            graph,
            make_factory=make_factory,
            make_state=make_state,
            predicate=broadcast_complete(rumor),
        )
        assert report.rounds > 0
        assert report.events  # the replayed schedule really ran

    def test_replay_reproduces_metrics_bit_identically(self):
        graph = small_graph()
        events, engine = _recorded_push_pull(graph, rounds=30)
        report = replay(
            events,
            graph,
            rounds=30,
            state=_self_rumors(graph),
            expected_metrics=engine.metrics,
        )
        assert report.metrics == engine.metrics
        assert report.rounds == 30

    def test_replay_from_wrong_initial_state_diverges(self):
        """The oracle sees knowledge: the first delivery merges differently."""
        graph = small_graph()
        events, _ = _recorded_push_pull(graph, rounds=20)
        wrong = VectorState(graph.nodes())
        wrong.add_rumor(graph.nodes()[0], "only rumor")
        with pytest.raises(SimulationError, match="replay diverged") as error:
            replay(events, graph, rounds=20, state=wrong)
        first_delivery = next(event for event in events if event.kind == "deliver")
        recorded = f"a (round {first_delivery.round}): {event_to_json(first_delivery)}"
        assert recorded in str(error.value)

    def test_replay_capped_in_degree_reproduces_rejections(self):
        graph = small_graph()
        events, engine = _recorded_push_pull(graph, rounds=20, max_incoming_per_round=1)
        assert any(event.kind == "rejected" for event in events)
        report = replay(
            events,
            graph,
            rounds=20,
            state=_self_rumors(graph),
            expected_metrics=engine.metrics,
        )
        assert [e for e in report.events if e.kind == "rejected"] == [
            e for e in events if e.kind == "rejected"
        ]

    def test_record_and_replay_latency_discovery_with_wakeups(self):
        """Ping schedules replay as pings; wakeups stay out of the comparison."""
        graph = star(6)
        recorder = Recorder.in_memory()
        engine = Engine(
            graph, lambda node: LatencyDiscoveryProtocol(1), recorder=recorder
        )
        engine.run()
        assert recorder.events_of("wakeup")
        report = replay(
            recorder.events, graph, rounds=engine.round, expected_metrics=engine.metrics
        )
        assert all(e.ping for e in report.events if e.kind == "initiate")
        report = record_and_replay(
            graph, make_factory=lambda: (lambda node: LatencyDiscoveryProtocol(1))
        )
        assert report.rounds == engine.round

    def test_two_initiations_in_one_round_is_invalid(self):
        graph = clique(3)
        events = [
            InitiationEvent(round=0, initiator=0, responder=1, latency=1),
            InitiationEvent(round=0, initiator=0, responder=2, latency=1),
        ]
        with pytest.raises(SimulationError, match="two initiations by 0 in round 0"):
            replay(events, graph, rounds=1)


def _self_rumors(graph):
    state = VectorState(graph.nodes())
    state.seed_self_rumors()
    return state


def _recorded_push_pull(graph, rounds, **engine_kwargs):
    """A recorded push--pull run from self-rumors: ``(events, engine)``."""
    recorder = Recorder.in_memory()
    make_rng = per_node_rng_factory(4)
    engine = Engine(
        graph,
        lambda node: PushPullProtocol(make_rng(node)),
        state=_self_rumors(graph),
        recorder=recorder,
        **engine_kwargs,
    )
    for _ in range(rounds):
        engine.step()
    return recorder.events, engine
