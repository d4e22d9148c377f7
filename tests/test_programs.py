"""Tests for the generator-based ProgramProtocol layer."""

import pytest

from repro.errors import ProtocolError
from repro.graphs.latency_graph import LatencyGraph
from repro.sim.engine import Engine
from repro.sim.programs import ProgramProtocol, contact, contact_and_wait, wait
from repro.sim.state import VectorState


class Recorder(ProgramProtocol):
    """Runs a scripted program and records yields' results."""

    def __init__(self, script):
        super().__init__()
        self._script = script
        self.results = []
        self.finish_round = None

    def program(self, ctx):
        for command in self._script:
            result = yield command
            self.results.append((ctx.round, result))
        self.finish_round = ctx.round


class Passive(ProgramProtocol):
    def program(self, ctx):
        return
        yield  # pragma: no cover


def run_pair(script, latency=3, rounds=20):
    graph = LatencyGraph(edges=[(0, 1, latency)])
    protocols = {}

    def factory(node):
        protocols[node] = Recorder(script) if node == 0 else Passive()
        return protocols[node]

    engine = Engine(graph, factory)
    for _ in range(rounds):
        if engine.all_done():
            break
        engine.step()
    return engine, protocols[0]


class TestCommands:
    def test_wait_consumes_rounds(self):
        engine, recorder = run_pair([wait(4), wait(2)])
        # wait(4) issued at round 0 resumes at round 4; wait(2) resumes at 6.
        assert recorder.finish_round == 6

    def test_contact_is_nonblocking(self):
        engine, recorder = run_pair([contact(1), contact(1), contact(1)], latency=9)
        # One initiation per round: finishes after 3 rounds despite latency 9.
        assert recorder.finish_round == 3
        assert engine.metrics.exchanges == 3

    def test_contact_and_wait_blocks_until_delivery(self):
        engine, recorder = run_pair([contact_and_wait(1)], latency=5)
        round_resumed, delivery = recorder.results[0]
        assert round_resumed == 5
        assert delivery is not None
        assert delivery.measured_latency == 5

    def test_contact_and_wait_fixed_duration(self):
        engine, recorder = run_pair([contact_and_wait(1, rounds=7)], latency=3)
        round_resumed, delivery = recorder.results[0]
        assert round_resumed == 7  # waits the full 7, not just the latency
        assert delivery is not None  # the reply arrived inside the window
        assert delivery.measured_latency == 3

    def test_fixed_duration_shorter_than_latency_gives_none(self):
        engine, recorder = run_pair([contact_and_wait(1, rounds=2)], latency=5)
        round_resumed, delivery = recorder.results[0]
        assert round_resumed == 2
        assert delivery is None

    def test_validation(self):
        with pytest.raises(ProtocolError):
            wait(0)
        with pytest.raises(ProtocolError):
            contact_and_wait(1, rounds=0)

    def test_bad_yield_rejected(self):
        class Bad(ProgramProtocol):
            def program(self, ctx):
                yield "nonsense"

        graph = LatencyGraph(edges=[(0, 1, 1)])
        engine = Engine(graph, lambda v: Bad())
        with pytest.raises(ProtocolError):
            engine.step()


class TestLifecycle:
    def test_done_after_generator_returns(self):
        engine, recorder = run_pair([wait(1)])
        assert engine.all_done()

    def test_empty_program_done_immediately(self):
        graph = LatencyGraph(edges=[(0, 1, 1)])
        engine = Engine(graph, lambda v: Passive())
        engine.step()
        assert engine.all_done()

    def test_measured_latencies_recorded(self):
        engine, recorder = run_pair([contact_and_wait(1)], latency=4)
        assert recorder.measured_latencies == {1: 4}

    def test_measured_latency_keeps_minimum(self):
        engine, recorder = run_pair(
            [contact_and_wait(1), contact_and_wait(1)], latency=4
        )
        assert recorder.measured_latencies == {1: 4}

    def test_knowledge_flows_during_program(self):
        graph = LatencyGraph(edges=[(0, 1, 2)])
        state = VectorState([0, 1])
        state.add_rumor(1, "secret")

        captured = {}

        class Asker(ProgramProtocol):
            def program(self, ctx):
                yield contact_and_wait(1)
                captured["knows"] = ctx.state.knows(0, "secret")

        def factory(node):
            return Asker() if node == 0 else Passive()

        engine = Engine(graph, factory, state=state)
        for _ in range(5):
            engine.step()
        assert captured["knows"] is True

    def test_sequential_contact_and_waits_interleave_correctly(self):
        graph = LatencyGraph(edges=[(0, 1, 2), (0, 2, 3)])

        class TwoStep(ProgramProtocol):
            def __init__(self):
                super().__init__()
                self.seen = []

            def program(self, ctx):
                d1 = yield contact_and_wait(1)
                self.seen.append((ctx.round, d1.peer))
                d2 = yield contact_and_wait(2)
                self.seen.append((ctx.round, d2.peer))

        protocols = {}

        def factory(node):
            protocols[node] = TwoStep() if node == 0 else Passive()
            return protocols[node]

        engine = Engine(graph, factory)
        for _ in range(10):
            engine.step()
        assert protocols[0].seen == [(2, 1), (5, 2)]
