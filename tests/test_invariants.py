"""Tests for the model-invariant checkers (src/repro/sim/invariants.py).

Two halves: clean runs must pass with all checkers attached (and the
checkers read exactly the recorder's event stream), and each deliberately
broken engine mutation must be caught by the matching checker with a
round-stamped message.
"""

import json

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.graphs.generators import clique, ring_of_cliques, star
from repro.graphs.latency_models import constant_latency
from repro.obs import MemorySink, Recorder
from repro.obs.events import Event
from repro.protocols.base import per_node_rng_factory
from repro.protocols.discovery import LatencyDiscoveryProtocol
from repro.protocols.push_pull import PushPullProtocol, run_push_pull
from repro.protocols.flooding import run_flooding
from repro.sim.engine import _CHECKER_LOG_SIZE, Engine
from repro.sim.failures import CompositeFailure, CrashSchedule, MessageLoss
from repro.sim.invariants import (
    CrashedSilenceChecker,
    DeliveryLatencyChecker,
    InvariantChecker,
    MonotoneKnowledgeChecker,
    SingleInitiationChecker,
    SymmetricMergeChecker,
    checked,
    checking_enabled,
    default_checkers,
)
from repro.sim.runner import broadcast_complete
from repro.sim.state import Payload, VectorState


def make_push_pull_engine(graph, seed=0, engine_cls=Engine, **kwargs):
    source = graph.nodes()[0]
    rumor = ("rumor", source)
    state = VectorState(graph.nodes())
    state.add_rumor(source, rumor)
    make_rng = per_node_rng_factory(seed)
    engine = engine_cls(
        graph,
        lambda node: PushPullProtocol(make_rng(node)),
        state=state,
        **kwargs,
    )
    return engine, rumor


# ---------------------------------------------------------------------------
# Clean runs: all checkers, zero violations
# ---------------------------------------------------------------------------

class TestCleanRuns:
    def test_push_pull_checked_matches_unchecked(self):
        graph = ring_of_cliques(4, 5, inter_latency=7)
        plain, rumor = make_push_pull_engine(graph, seed=3)
        rounds_plain = plain.run(until=broadcast_complete(rumor))
        checked_engine, rumor = make_push_pull_engine(
            graph, seed=3, checkers=default_checkers()
        )
        rounds_checked = checked_engine.run(until=broadcast_complete(rumor))
        assert rounds_checked == rounds_plain
        assert checked_engine.metrics == plain.metrics

    def test_checked_run_with_message_loss(self):
        graph = clique(10)
        engine, rumor = make_push_pull_engine(
            graph,
            seed=1,
            failure_model=MessageLoss(p=0.3, seed=5),
            checkers=default_checkers(),
        )
        engine.run(until=broadcast_complete(rumor), max_rounds=5_000)

    def test_checked_run_with_crashes(self):
        graph = clique(10)
        crashed = graph.nodes()[-1]
        engine, rumor = make_push_pull_engine(
            graph,
            seed=2,
            failure_model=CrashSchedule({crashed: 3}),
            checkers=default_checkers(),
        )

        def survivors_know(engine_):
            return all(
                engine_.state.knows(node, rumor)
                for node in graph.nodes()
                if node != crashed
            )

        engine.run(until=survivors_know, max_rounds=5_000)

    def test_checked_scope_auto_attaches(self):
        graph = star(8)
        assert not checking_enabled()
        with checked():
            assert checking_enabled()
            engine, _ = make_push_pull_engine(graph)
            assert len(engine._checkers) == len(default_checkers())
            # Explicit empty tuple forces checking off even inside the scope.
            off, _ = make_push_pull_engine(graph, checkers=())
            assert off._checkers == ()
        assert not checking_enabled()
        engine, _ = make_push_pull_engine(graph)
        assert engine._checkers == ()

    def test_checked_scope_protocol_runners_pass(self):
        graph = ring_of_cliques(3, 4, inter_latency=5)
        with checked():
            result = run_push_pull(graph, seed=0)
            assert result.complete
            assert run_flooding(graph).complete

    def test_checker_reads_the_recorders_stream(self):
        """A checker receives exactly the recorder's events: same objects,
        same order, every kind the run emits."""

        class Collector(InvariantChecker):
            def __init__(self):
                self.events = []

            def write(self, event):
                self.events.append(event)

        graph = star(6)
        collector = Collector()
        recorder = Recorder(MemorySink())
        engine = Engine(
            graph,
            lambda node: LatencyDiscoveryProtocol(1),
            failure_model=CompositeFailure(
                [CrashSchedule({graph.nodes()[-1]: 2}), MessageLoss(p=0.2, seed=1)]
            ),
            max_incoming_per_round=1,
            checkers=[collector],
            recorder=recorder,
        )
        for _ in range(30):
            engine.step()
        engine.finish_checks()
        # The pick: this seed makes the run emit every kind it can (the
        # star's leaves contend for the centre; one ping is lost on the
        # wire, one voided at the crashed leaf, one parked node woken).
        kinds = {event.kind for event in recorder.events}
        assert kinds == {"initiate", "deliver", "void", "rejected", "wakeup", "round"}
        assert any(event.lost for event in recorder.events_of("initiate"))
        assert len(collector.events) == len(recorder.events)
        assert all(
            mine is theirs for mine, theirs in zip(collector.events, recorder.events)
        )


# ---------------------------------------------------------------------------
# Broken engines: each mutation caught by the matching checker
# ---------------------------------------------------------------------------

class OffByOneDelivery(Engine):
    """Delivers every exchange one round early (broken latency handling)."""

    def _initiate(self, initiator, responder):
        before = self.pending_exchanges()
        super()._initiate(initiator, responder)
        if self.pending_exchanges() == before:
            return  # the exchange was dropped (lost/rejected), nothing queued
        round_key, exchange = max(
            ((r, bucket[-1]) for r, bucket in self._in_flight.items() if bucket),
            key=lambda item: item[1].sequence,
        )
        self._in_flight[round_key].pop()
        if not self._in_flight[round_key]:
            del self._in_flight[round_key]
        exchange.delivers_at -= 1
        self._in_flight.setdefault(exchange.delivers_at, []).append(exchange)


class DoubleInitiation(Engine):
    """Lets every node initiate the same exchange twice per round."""

    def _initiate(self, initiator, responder):
        super()._initiate(initiator, responder)
        super()._initiate(initiator, responder)


class ForgetfulState(VectorState):
    """Drops a previously known rumor after enough merges (amnesia bug)."""

    def __init__(self, nodes):
        super().__init__(nodes)
        self._merges = 0

    def merge(self, node, payload):
        changed = super().merge(node, payload)
        self._merges += 1
        if self._merges == 40:
            i = self._node_index[node]
            row = self._words[i]
            words = np.flatnonzero(row)
            if words.size:  # clear the lowest set bit: one rumor forgotten
                word = int(row[words[0]])
                row[words[0]] = word & (word - 1)
                self._masks_cache[i] = None
                self._snapshots[i] = None
        return changed


class EarlyVoidOnCrash(Engine):
    """Voids exchanges to a crashed responder one round early (broken
    latency handling on the failure path only)."""

    def _initiate(self, initiator, responder):
        before = self.pending_exchanges()
        super()._initiate(initiator, responder)
        if self.pending_exchanges() == before:
            return  # the exchange was dropped (lost/rejected), nothing queued
        due = self.round + self.graph.latency(initiator, responder)
        if not self.failure_model.node_crashed(responder, due - 1):
            return
        exchange = self._in_flight[due].pop()
        if not self._in_flight[due]:
            del self._in_flight[due]
        exchange.delivers_at = due - 1
        self._in_flight.setdefault(due - 1, []).append(exchange)


class LossyMergeState(VectorState):
    """Silently drops one rumor from every received payload (lossy merge)."""

    def merge(self, node, payload):
        rumors = payload.rumors
        if rumors:
            rumors = rumors - {sorted(rumors, key=repr)[0]}
        return super().merge(
            node, Payload(rumors=rumors, notes=payload.notes)
        )


class TestBrokenEnginesCaught:
    def test_off_by_one_delivery_caught(self):
        graph = ring_of_cliques(4, 5, inter_latency=7)
        engine, rumor = make_push_pull_engine(
            graph,
            seed=3,
            engine_cls=OffByOneDelivery,
            checkers=[DeliveryLatencyChecker()],
        )
        with pytest.raises(SimulationError) as excinfo:
            engine.run(until=broadcast_complete(rumor))
        message = str(excinfo.value)
        assert "delivery-latency" in message
        assert "at round" in message
        assert "recent events" in message  # the trace excerpt rode along

    def test_early_void_caught(self):
        graph = clique(6, latency_model=constant_latency(3))
        crashed = graph.nodes()[-1]
        engine, _ = make_push_pull_engine(
            graph,
            engine_cls=EarlyVoidOnCrash,
            failure_model=CrashSchedule({crashed: 0}),
            checkers=[DeliveryLatencyChecker()],
        )
        with pytest.raises(SimulationError, match="delivery-latency") as excinfo:
            engine.run(until=lambda engine_: engine_.round >= 30)
        assert f"-> {crashed!r} initiated at" in str(excinfo.value)
        assert "delivered after 2 rounds; edge latency is 3" in str(excinfo.value)

    def test_double_initiation_caught(self):
        graph = clique(6)
        engine, rumor = make_push_pull_engine(
            graph,
            engine_cls=DoubleInitiation,
            checkers=[SingleInitiationChecker()],
        )
        with pytest.raises(SimulationError, match="single-initiation"):
            engine.run(until=broadcast_complete(rumor))

    def test_forgetting_caught(self):
        graph = clique(8)
        state = ForgetfulState(graph.nodes())
        state.seed_self_rumors()
        make_rng = per_node_rng_factory(0)
        engine = Engine(
            graph,
            lambda node: PushPullProtocol(make_rng(node)),
            state=state,
            checkers=[MonotoneKnowledgeChecker()],
        )
        with pytest.raises(SimulationError, match="monotone-knowledge"):
            engine.run(max_rounds=200)

    def test_lossy_merge_caught(self):
        graph = clique(8)
        state = LossyMergeState(graph.nodes())
        state.seed_self_rumors()
        make_rng = per_node_rng_factory(0)
        engine = Engine(
            graph,
            lambda node: PushPullProtocol(make_rng(node)),
            state=state,
            checkers=[SymmetricMergeChecker()],
        )
        with pytest.raises(SimulationError, match="symmetric-merge"):
            engine.run(max_rounds=200)

    def test_crashed_initiation_caught(self):
        graph = clique(6)
        crashed = graph.nodes()[0]
        engine, _ = make_push_pull_engine(
            graph,
            failure_model=CrashSchedule({crashed: 0}),
            checkers=[CrashedSilenceChecker()],
        )
        # The real engine skips crashed nodes; inject the buggy call directly.
        with pytest.raises(SimulationError, match="crashed-silence"):
            engine._initiate(crashed, graph.neighbors(crashed)[0])

    def test_violation_message_carries_round_and_excerpt(self):
        graph = ring_of_cliques(4, 5, inter_latency=9)
        engine, rumor = make_push_pull_engine(
            graph,
            seed=0,
            engine_cls=OffByOneDelivery,
            checkers=default_checkers(),
        )
        with pytest.raises(SimulationError) as excinfo:
            engine.run(until=broadcast_complete(rumor))
        message = str(excinfo.value)
        assert "model invariant violated" in message
        assert "initiate" in message or "deliver" in message
        # The excerpt is the ring of recent events, one canonical JSONL
        # line per event.
        excerpt = message.split("recent events:\n", 1)[1].splitlines()
        assert 0 < len(excerpt) <= _CHECKER_LOG_SIZE
        event_kinds = {cls.kind for cls in Event.__subclasses__()}
        for line in excerpt:
            assert json.loads(line)["kind"] in event_kinds
