"""Tests for recorded event streams as traces, and their ASCII timeline."""

from repro.graphs import generators
from repro.graphs.latency_graph import LatencyGraph
from repro.obs import Recorder, Trace
from repro.protocols.base import per_node_rng_factory
from repro.protocols.discovery import LatencyDiscoveryProtocol
from repro.protocols.push_pull import PushPullProtocol
from repro.sim.engine import Engine
from repro.sim.failures import CrashSchedule
from repro.sim.invariants import default_checkers
from repro.sim.runner import broadcast_complete
from repro.sim.state import VectorState


def traced_push_pull(graph, rounds=10, seed=0, **engine_kwargs):
    recorder = Recorder.in_memory()
    make_rng = per_node_rng_factory(seed)
    engine = Engine(
        graph,
        lambda node: PushPullProtocol(make_rng(node)),
        recorder=recorder,
        **engine_kwargs,
    )
    for _ in range(rounds):
        engine.step()
    return Trace.from_events(recorder.events), engine


class TestRecorder:
    def test_initiations_logged_per_round(self):
        g = generators.clique(5)
        trace, engine = traced_push_pull(g, rounds=4)
        # Every node initiates every round on a clique.
        assert len(trace.filter(kind="initiate")) == 5 * 4

    def test_deliveries_logged_for_both_endpoints(self):
        g = LatencyGraph(edges=[(0, 1, 1)])
        trace, _ = traced_push_pull(g, rounds=3)
        deliveries = trace.filter(kind="deliver")
        assert len(deliveries) > 0
        # Each delivery names both endpoints, both of which merged.
        for record in deliveries:
            assert {record["initiator"], record["responder"]} == {0, 1}
            assert record["initiator_alive"]

    def test_per_node_filters(self):
        g = generators.clique(4)
        trace, _ = traced_push_pull(g, rounds=3)
        initiations = trace.filter(kind="initiate")
        by_node = initiations.group_by("initiator")
        assert len(by_node[0]) == 3
        assert sum(len(by_node[v]) for v in g.nodes()) == len(initiations)

    def test_model_invariants_hold(self):
        # The checkers raise SimulationError on a second initiation in
        # one round (I1) or a delivery before its edge latency (I2).
        g = generators.ring_of_cliques(3, 4, inter_latency=3)
        trace, engine = traced_push_pull(g, rounds=15, checkers=default_checkers())
        engine.finish_checks()
        assert trace.filter(kind="deliver")

    def test_per_round_activity(self):
        g = generators.clique(6)
        trace, _ = traced_push_pull(g, rounds=3)
        by_round = trace.filter(kind="initiate").group_by("round")
        assert {r: len(sub) for r, sub in by_round.items()} == {0: 6, 1: 6, 2: 6}

    def test_wrap_preserves_ping_semantics(self):
        g = LatencyGraph(edges=[(0, 1, 1)])
        state = VectorState([0, 1])
        state.add_rumor(0, "x")
        recorder = Recorder.in_memory()
        engine = Engine(
            g, lambda node: LatencyDiscoveryProtocol(2), state=state, recorder=recorder
        )
        for _ in range(5):
            engine.step()
        # Probes stayed pings: no rumor crossed despite recorded exchanges.
        assert not state.knows(1, "x")
        initiations = recorder.events_of("initiate")
        assert initiations and all(event.ping for event in initiations)
        deliveries = recorder.events_of("deliver")
        assert deliveries and all(
            event.learned_by_initiator == event.learned_by_responder == 0
            for event in deliveries
        )

    def test_wrapped_protocol_terminates_normally(self):
        g = LatencyGraph(edges=[(0, 1, 1)])
        engine = Engine(
            g, lambda node: LatencyDiscoveryProtocol(2), recorder=Recorder.in_memory()
        )
        rounds = engine.run(max_rounds=100)
        assert rounds < 100


class TestTimeline:
    def test_renders_marks(self):
        g = LatencyGraph(edges=[(0, 1, 2)])
        trace, _ = traced_push_pull(g, rounds=5)
        text = trace.timeline(g.nodes())
        assert "round" in text
        assert ">" in text or "#" in text

    def test_exact_timeline_of_latency_discovery(self):
        # Attempts ('>'), merges ('*'), both ('#') and idle ('.') cells on
        # string nodes; the horizon ends at the last marked round even
        # though the engine stepped on to round 11.
        g = LatencyGraph(edges=[("a", "b", 1), ("b", "c", 3), ("a", "c", 2)])
        state = VectorState(g.nodes())
        state.seed_self_rumors()
        recorder = Recorder.in_memory()
        engine = Engine(
            g, lambda node: LatencyDiscoveryProtocol(3), state=state, recorder=recorder
        )
        for _ in range(12):
            engine.step()
        trace = Trace.from_events(recorder.events)
        assert trace.timeline(g.nodes()) == (
            "round 01234\n"
            "'a' >#**.\n"
            "'b' >#..*\n"
            "'c' >>***"
        )
        assert trace.timeline(["c", "a"], width=4) == "round 0123\n'c' >>**\n'a' >#**"

    def test_exact_timeline_under_crashes(self):
        # A crashed initiator merges nothing, so its late deliveries mark
        # only the responder; a crashed node neither initiates nor merges.
        g = generators.clique(6)
        trace, _ = traced_push_pull(
            g, rounds=10, seed=2, failure_model=CrashSchedule({0: 2, 3: 4})
        )
        assert trace.timeline(g.nodes()) == (
            "round 0123456789\n"
            "0 >#........\n"
            "1 >#>#>>>#>#\n"
            "2 >#########\n"
            "3 >###......\n"
            "4 >#########\n"
            "5 >#####>###"
        )

    def test_timeline_of_a_loaded_jsonl_stream(self, tmp_path):
        g = generators.ring_of_cliques(3, 4, inter_latency=3)
        path = tmp_path / "run.jsonl"
        make_rng = per_node_rng_factory(4)
        with Recorder.to_jsonl(path) as recorder:
            engine = Engine(
                g, lambda node: PushPullProtocol(make_rng(node)), recorder=recorder
            )
            for _ in range(15):
                engine.step()
        live, _ = traced_push_pull(g, rounds=15, seed=4)
        assert Trace.load(path).timeline(g.nodes()) == live.timeline(g.nodes())

    def test_empty_trace_renders(self):
        assert Trace([]).timeline([0, 1]) == "round 0\n0 .\n1 ."

    def test_width_truncation(self):
        g = generators.clique(4)
        trace, _ = traced_push_pull(g, rounds=100)
        text = trace.timeline(g.nodes(), width=20)
        body = text.splitlines()[1]
        # label + space + at most 20 cells
        assert len(body.split(" ")[-1]) <= 20
        header = trace.timeline(g.nodes(), max_rounds=7).splitlines()[0]
        assert header == "round 0123456"


class TestTraceWithCompletion:
    def test_broadcast_trace_end_to_end(self):
        g = generators.clique(8)
        rumor = ("rumor", 0)
        state = VectorState(g.nodes())
        state.add_rumor(0, rumor)
        recorder = Recorder.in_memory()
        make_rng = per_node_rng_factory(3)
        engine = Engine(
            g,
            lambda node: PushPullProtocol(make_rng(node)),
            state=state,
            checkers=default_checkers(),
            recorder=recorder,
        )
        done = broadcast_complete(rumor)
        while not done(engine):
            engine.step()
        engine.finish_checks()
        trace = Trace.from_events(recorder.events)
        assert len(trace.filter(kind="initiate")) == 8 * engine.round
        assert trace.coverage_curve()[-1] == 8
