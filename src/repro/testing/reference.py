"""A deliberately naive reference implementation of the gossip model.

:class:`ReferenceEngine` re-implements the communication model of
``docs/MODEL.md`` from scratch with the dumbest data structures that can
possibly work: in-flight exchanges live in a plain list that is re-scanned
and re-sorted every round (``O(n·m)`` per round, no heap, no incremental
bookkeeping).  It exists purely as a *differential-testing oracle*: the
production :class:`~repro.sim.engine.Engine` and this class are two
independent realizations of the same spec, so any disagreement in rounds,
knowledge, or metrics on the same protocol and seed is a bug in one of
them.  Keep it slow and obvious — its only job is to be correct for small
inputs, and every performance refactor of the real engine is verified
against it (see ``tests/test_differential.py`` and ``repro check``).

It mirrors the :class:`~repro.sim.engine.Engine` surface that protocols
and runners touch (``step``/``run``/``round``/``state``/``metrics``/
``all_done``/``protocol``/``last_initiations``), reusing the real
:class:`~repro.sim.engine.NodeContext` and :class:`Delivery` types so any
:class:`~repro.sim.engine.NodeProtocol` runs unmodified on either engine.
Invariant checkers are *not* supported here — the reference engine is the
thing checkers are cross-validated against, not a consumer of them.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Optional

from repro.errors import ProtocolError, SimulationError
from repro.graphs.latency_graph import LatencyGraph, Node
from repro.sim.engine import Delivery, NodeContext, NodeProtocol, ProtocolFactory
from repro.sim.failures import FailureModel
from repro.sim.metrics import EngineMetrics
from repro.sim.state import Note, Payload, VectorState

__all__ = ["ReferenceEngine", "ReferenceNetworkState"]

_EMPTY_PAYLOAD = Payload(rumors=frozenset(), notes=())


class ReferenceNetworkState:
    """The naive rumor state: one hash set of rumors per node.

    One plain ``set`` per node, no interning, no caches: the oracle the
    bitset-backed production :class:`~repro.sim.state.VectorState` is
    checked against (see ``tests/test_state_equivalence.py`` and the
    differential suites).  It mirrors the full ``VectorState`` API and
    ships interchangeable :class:`~repro.sim.state.Payload` objects, so
    either state can drive either engine.
    """

    def __init__(self, nodes: Iterable[Node]) -> None:
        self._rumors: dict[Node, set] = {node: set() for node in nodes}
        self._notes: dict[Node, dict[Node, Note]] = {node: {} for node in self._rumors}

    def nodes(self) -> list[Node]:
        return list(self._rumors)

    # -- rumors ---------------------------------------------------------
    def add_rumor(self, node: Node, rumor: Any) -> None:
        self._rumors[node].add(rumor)

    def seed_self_rumors(self) -> None:
        for node in self._rumors:
            self._rumors[node].add(node)

    def rumors(self, node: Node) -> frozenset:
        return frozenset(self._rumors[node])

    def rumor_count(self, node: Node) -> int:
        return len(self._rumors[node])

    def min_rumor_count(self) -> int:
        return min((len(rumors) for rumors in self._rumors.values()), default=0)

    def knows(self, node: Node, rumor: Any) -> bool:
        return rumor in self._rumors[node]

    def count_knowing(self, rumor: Any) -> int:
        return sum(1 for rumors in self._rumors.values() if rumor in rumors)

    def knows_every(self, nodes: Iterable[Node], rumors: Iterable[Any]) -> bool:
        required = set(rumors)
        return all(required <= self._rumors[node] for node in nodes)

    # -- notes ----------------------------------------------------------
    def publish_note(self, origin: Node, **data: Any) -> None:
        old = self._notes[origin].get(origin)
        version = (old.version + 1) if old is not None else 1
        self._notes[origin][origin] = Note(
            version=version, data=tuple(sorted(data.items()))
        )

    def note_of(self, reader: Node, origin: Node) -> Optional[Note]:
        return self._notes[reader].get(origin)

    def known_note_origins(self, reader: Node) -> list[Node]:
        return list(self._notes[reader])

    def clear_notes(self) -> None:
        for board in self._notes.values():
            board.clear()

    # -- exchange plumbing ----------------------------------------------
    def snapshot(self, node: Node) -> Payload:
        return Payload(
            rumors=frozenset(self._rumors[node]),
            notes=tuple(self._notes[node].items()),
        )

    def merge(self, node: Node, payload: Payload) -> bool:
        changed = False
        before = len(self._rumors[node])
        self._rumors[node] |= payload.rumors
        if len(self._rumors[node]) != before:
            changed = True
        board = self._notes[node]
        for origin, note in payload.notes:
            current = board.get(origin)
            if current is None or note.version > current.version:
                board[origin] = note
                changed = True
        return changed


class _PendingExchange:
    """One in-flight exchange, stored as a dumb record (no ordering tricks)."""

    def __init__(
        self,
        sequence: int,
        initiator: Node,
        responder: Node,
        initiated_at: int,
        delivers_at: int,
        initiator_payload: Payload,
        responder_payload: Payload,
        ping_only: bool,
    ) -> None:
        self.sequence = sequence
        self.initiator = initiator
        self.responder = responder
        self.initiated_at = initiated_at
        self.delivers_at = delivers_at
        self.initiator_payload = initiator_payload
        self.responder_payload = responder_payload
        self.ping_only = ping_only


class ReferenceEngine:
    """Naive drop-in replacement for :class:`~repro.sim.engine.Engine`.

    Accepts the same constructor arguments (minus ``checkers``) and
    produces — by design — bit-identical rounds, knowledge, and
    :class:`~repro.sim.metrics.EngineMetrics` for any deterministic
    protocol.  See the module docstring for why it stays naive.
    """

    def __init__(
        self,
        graph: LatencyGraph,
        protocol_factory: ProtocolFactory,
        state: Optional["VectorState | ReferenceNetworkState"] = None,
        latencies_known: bool = False,
        fresh_snapshots: bool = False,
        failure_model: Optional[FailureModel] = None,
        max_incoming_per_round: Optional[int] = None,
        enforce_blocking: bool = False,
    ) -> None:
        if max_incoming_per_round is not None and max_incoming_per_round < 1:
            raise SimulationError(
                f"max_incoming_per_round must be >= 1, got {max_incoming_per_round}"
            )
        self.graph = graph
        self.state = state if state is not None else ReferenceNetworkState(graph.nodes())
        self.latencies_known = latencies_known
        self.fresh_snapshots = fresh_snapshots
        self.failure_model = failure_model
        self.max_incoming_per_round = max_incoming_per_round
        self.enforce_blocking = enforce_blocking
        self.round = 0
        self.metrics = EngineMetrics()
        if enforce_blocking:
            # Mirror the production engine: tracked-but-clean is 0, "never
            # tracked" stays None (run_differential compares full metrics).
            self.metrics.blocked_initiations = 0
        self.last_initiations: list[tuple[Node, Node]] = []
        self._sequence = 0
        self._pending: list[_PendingExchange] = []
        self._protocols: dict[Node, NodeProtocol] = {}
        self._contexts: dict[Node, NodeContext] = {}
        for node in graph.nodes():
            self._protocols[node] = protocol_factory(node)
            self._contexts[node] = NodeContext(self, node)  # duck-typed engine
        for node in graph.nodes():
            self._protocols[node].setup(self._contexts[node])

    # ------------------------------------------------------------------
    def protocol(self, node: Node) -> NodeProtocol:
        """The protocol instance for ``node`` (for post-run inspection)."""
        return self._protocols[node]

    def all_done(self) -> bool:
        """Whether every non-crashed node's protocol reports termination."""
        for node in self.graph.nodes():
            if self._crashed(node):
                continue
            if not self._protocols[node].is_done(self._contexts[node]):
                return False
        return True

    def pending_exchanges(self) -> int:
        """Number of exchanges still in flight."""
        return len(self._pending)

    def finish_checks(self) -> None:
        """No-op: the reference engine carries no invariant checkers."""

    # ------------------------------------------------------------------
    def step(self) -> None:
        """One round, by the book: deliver everything due, then ask everyone."""
        self.last_initiations = []
        self._deliver_due()
        accepted_incoming: dict[Node, int] = {}
        for node in self.graph.nodes():
            if self._crashed(node):
                continue
            protocol = self._protocols[node]
            ctx = self._contexts[node]
            if protocol.is_done(ctx):
                continue
            target = protocol.on_round(ctx)
            if target is None:
                continue
            if not self.graph.has_edge(node, target):
                raise ProtocolError(
                    f"node {node!r} tried to contact non-neighbor {target!r}"
                )
            if self.max_incoming_per_round is not None:
                if accepted_incoming.get(target, 0) >= self.max_incoming_per_round:
                    self.metrics.rejected_initiations += 1
                    continue
                accepted_incoming[target] = accepted_incoming.get(target, 0) + 1
            self._initiate(node, target)
        self.round += 1
        self.metrics.rounds = self.round

    def run(
        self,
        until: Optional[Callable[["ReferenceEngine"], bool]] = None,
        max_rounds: int = 1_000_000,
    ) -> int:
        """Run until ``until(engine)`` (default: every protocol done)."""
        predicate = until if until is not None else (lambda engine: engine.all_done())
        while not predicate(self):
            if self.round >= max_rounds:
                raise SimulationError(
                    f"reference simulation exceeded max_rounds={max_rounds} "
                    f"(round={self.round}, pending={len(self._pending)})"
                )
            self.step()
        return self.round

    # ------------------------------------------------------------------
    def _crashed(self, node: Node) -> bool:
        return self.failure_model is not None and self.failure_model.node_crashed(
            node, self.round
        )

    def _initiate(self, initiator: Node, responder: Node) -> None:
        latency = self.graph.latency(initiator, responder)
        if self.enforce_blocking and any(
            exchange.initiator == initiator for exchange in self._pending
        ):
            self.metrics.blocked_initiations += 1
            raise ProtocolError(
                f"blocking violation: node {initiator!r} initiated while a "
                "previous exchange of its own is still in flight"
            )
        if self.failure_model is not None and self.failure_model.exchange_lost(
            initiator, responder, self.round
        ):
            self.metrics.lost_exchanges += 1
            return
        self._sequence += 1
        ping_only = not getattr(self._protocols[initiator], "sends_payload", True)
        if ping_only or self.fresh_snapshots:
            initiator_payload = responder_payload = _EMPTY_PAYLOAD
        else:
            initiator_payload = self.state.snapshot(initiator)
            responder_payload = self.state.snapshot(responder)
        self._pending.append(
            _PendingExchange(
                sequence=self._sequence,
                initiator=initiator,
                responder=responder,
                initiated_at=self.round,
                delivers_at=self.round + latency,
                initiator_payload=initiator_payload,
                responder_payload=responder_payload,
                ping_only=ping_only,
            )
        )
        self.last_initiations.append((initiator, responder))
        if not self.fresh_snapshots:
            self._account_payloads(initiator_payload, responder_payload)
        self.metrics.exchanges += 1
        self.metrics.messages += 2
        self.metrics.activated_edges.add(self.graph.canonical_edge(initiator, responder))

    def _account_payloads(
        self, initiator_payload: Payload, responder_payload: Payload
    ) -> None:
        self.metrics.rumor_tokens_sent += (
            initiator_payload.rumor_count + responder_payload.rumor_count
        )
        self.metrics.max_payload_rumors = max(
            self.metrics.max_payload_rumors,
            initiator_payload.rumor_count,
            responder_payload.rumor_count,
        )

    def _deliver_due(self) -> None:
        # Full scan of everything in flight, every round; deliver in the
        # same (delivers_at, sequence) order the production engine's heap
        # pops so callback order is comparable too.
        due = sorted(
            (x for x in self._pending if x.delivers_at <= self.round),
            key=lambda x: (x.delivers_at, x.sequence),
        )
        if not due:
            return
        due_sequences = {x.sequence for x in due}
        self._pending = [x for x in self._pending if x.sequence not in due_sequences]
        for exchange in due:
            initiator_alive = not self._crashed(exchange.initiator)
            if self._crashed(exchange.responder):
                self.metrics.lost_exchanges += 1
                continue
            if exchange.ping_only:
                initiator_payload = responder_payload = _EMPTY_PAYLOAD
            elif self.fresh_snapshots:
                initiator_payload = self.state.snapshot(exchange.initiator)
                responder_payload = self.state.snapshot(exchange.responder)
                self._account_payloads(initiator_payload, responder_payload)
            else:
                initiator_payload = exchange.initiator_payload
                responder_payload = exchange.responder_payload
            self.state.merge(exchange.responder, initiator_payload)
            if initiator_alive:
                self.state.merge(exchange.initiator, responder_payload)
            endpoints = [(exchange.responder, False)]
            if initiator_alive:
                endpoints.insert(0, (exchange.initiator, True))
            for node, by_me in endpoints:
                peer = exchange.responder if by_me else exchange.initiator
                self._protocols[node].on_deliver(
                    self._contexts[node],
                    Delivery(
                        peer=peer,
                        initiated_at=exchange.initiated_at,
                        delivered_at=self.round,
                        initiated_by_me=by_me,
                    ),
                )
