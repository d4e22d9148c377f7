"""The synchronous, non-blocking gossip engine (the paper's communication model).

Model recap (Section 1 of the paper):

* Time proceeds in synchronous **rounds**.
* In each round every node may **initiate** at most one exchange with one
  chosen neighbor.  Responding costs nothing and is automatic (push--pull).
* An exchange over an edge of latency ``ℓ`` initiated in round ``t``
  **delivers** at round ``t + ℓ``: both endpoints atomically merge the other
  endpoint's knowledge *as of round* ``t``.
* Communication is **non-blocking**: a node may initiate a new exchange every
  round even while earlier exchanges are still in flight.

Knowledge lives in a shared :class:`~repro.sim.state.VectorState` — the one
rumor state, which the vector engine's array round reads too; protocol
logic is supplied as one :class:`NodeProtocol` instance per node (see
:mod:`repro.sim.programs` for a sequential, generator-based way to write
them).  The engine is fully deterministic given the protocol's RNG seeds.
"""

from __future__ import annotations

import abc
import dataclasses
from typing import Callable, Optional, Sequence

from repro.errors import ProtocolError, SimulationError
from repro.graphs.latency_graph import LatencyGraph, Node
from repro.obs.events import (
    BlockedInitiationEvent,
    DeliveryEvent,
    Event,
    InitiationEvent,
    RejectedInitiationEvent,
    RoundEvent,
    VoidExchangeEvent,
    WakeupEvent,
)
from repro.obs.recorder import Recorder, RingBufferSink
from repro.sim import invariants as _invariants
from repro.sim.failures import FailureModel
from repro.sim.invariants import InvariantChecker
from repro.sim.metrics import EngineMetrics
from repro.sim.state import Payload, VectorState

__all__ = ["Delivery", "NodeContext", "NodeProtocol", "Engine"]

#: How many recent events a checker's violation excerpt shows.
_CHECKER_LOG_SIZE = 24


@dataclasses.dataclass(frozen=True)
class Delivery:
    """Completion record handed to both endpoints of an exchange.

    Attributes
    ----------
    peer:
        The other endpoint.
    initiated_at, delivered_at:
        Round numbers; ``delivered_at - initiated_at`` is the edge latency,
        which is how protocols *measure* latencies they do not know.
    initiated_by_me:
        Whether the receiving node was the initiator of this exchange.
    """

    peer: Node
    initiated_at: int
    delivered_at: int
    initiated_by_me: bool

    @property
    def measured_latency(self) -> int:
        """The edge latency, as observable by either endpoint."""
        return self.delivered_at - self.initiated_at


class NodeContext:
    """Per-node view of the network handed to protocol callbacks."""

    __slots__ = ("_engine", "node")

    def __init__(self, engine: "Engine", node: Node) -> None:
        self._engine = engine
        self.node = node

    @property
    def round(self) -> int:
        """The current round number (starting at 0)."""
        return self._engine.round

    @property
    def state(self) -> VectorState:
        """The shared network state (read/write your own node's entries only)."""
        return self._engine.state

    def neighbors(self) -> list[Node]:
        """Neighbors of this node."""
        return self._engine.graph.neighbors(self.node)

    def degree(self) -> int:
        """Degree of this node."""
        return self._engine.graph.degree(self.node)

    def latency_to(self, neighbor: Node) -> int:
        """Latency of the adjacent edge — only if latencies are known.

        Raises
        ------
        ProtocolError
            If the engine was built with ``latencies_known=False``; protocols
            for the unknown-latency model must measure instead (Section 4.2).
        """
        if not self._engine.latencies_known:
            raise ProtocolError(
                "edge latencies are unknown in this model; measure them via "
                "Delivery.measured_latency instead"
            )
        return self._engine.graph.latency(self.node, neighbor)

    def known_latencies(self) -> dict[Node, int]:
        """All adjacent latencies — only if latencies are known."""
        if not self._engine.latencies_known:
            raise ProtocolError("edge latencies are unknown in this model")
        return self._engine.graph.neighbor_latencies(self.node)


class NodeProtocol(abc.ABC):
    """Per-node protocol logic driven by the engine.

    Subclasses override :meth:`on_round` (and optionally :meth:`on_deliver`
    and :meth:`setup`).  A protocol signals completion by returning ``True``
    from :meth:`is_done`; done nodes stop initiating but keep responding.

    Class attribute ``sends_payload``: when ``False``, exchanges initiated
    by this protocol are pure request/ack pings — they measure latency but
    carry no knowledge in either direction.  The latency-discovery phase of
    Section 4.2 uses this: "broadcast a request ... wait for a response to
    determine the latency" is a probe, not a rumor exchange, and letting
    probes ship rumor sets over arbitrarily slow edges would let the
    termination check pass before the dissemination protocol proper could
    have delivered anything.

    Scheduling contract: once :meth:`is_done` returns ``True`` the engine
    parks the node and re-queries it only after one of the node's exchanges
    next delivers (i.e. after :meth:`on_deliver` ran).  Since a parked node
    neither acts nor observes anything except deliveries, this is invisible
    to any protocol whose done-ness depends on its own state and the
    deliveries it has seen — which is every protocol in this library —
    and it lets the engine skip finished nodes instead of scanning all
    ``n`` every round.
    """

    sends_payload: bool = True

    def setup(self, ctx: NodeContext) -> None:
        """Called once before round 0."""

    @abc.abstractmethod
    def on_round(self, ctx: NodeContext) -> Optional[Node]:
        """Return the neighbor to contact this round, or ``None`` to stay idle."""

    def on_deliver(self, ctx: NodeContext, delivery: Delivery) -> None:
        """Called when an exchange involving this node delivers.

        The knowledge merge has already happened; this hook is for protocol
        bookkeeping (latency measurement, wake-ups, ...).
        """

    def is_done(self, ctx: NodeContext) -> bool:
        """Whether this node has locally terminated (default: never)."""
        return False


ProtocolFactory = Callable[[Node], NodeProtocol]

_EMPTY_PAYLOAD = Payload(rumors=frozenset(), notes=())


@dataclasses.dataclass(slots=True)
class _InFlight:
    delivers_at: int
    sequence: int
    initiator: Node
    responder: Node
    initiated_at: int
    initiator_payload: Payload
    responder_payload: Payload
    ping_only: bool = False


class Engine:
    """Drives one protocol over one graph, round by round.

    Parameters
    ----------
    graph:
        The network.
    protocol_factory:
        Called once per node to create its :class:`NodeProtocol`.
    state:
        Optional pre-seeded :class:`~repro.sim.state.VectorState` (used
        to chain protocol phases); a fresh empty one is created by default.
    latencies_known:
        Whether protocols may read adjacent latencies (Section 5 model)
        or must measure them (Sections 3--4 model).
    fresh_snapshots:
        Snapshot-semantics ablation.  ``False`` (default, the conservative
        reading of the paper's model): an exchange carries both endpoints'
        knowledge *as of initiation*.  ``True``: knowledge is read at
        delivery time instead — optimistic "state piggybacks on the wire"
        semantics.  Bounds hold for both; the ablation benchmark measures
        the constant-factor gap.
    failure_model:
        Optional :class:`~repro.sim.failures.FailureModel` injecting node
        crashes and message loss (the fault-tolerance extension the paper's
        conclusion calls for).
    max_incoming_per_round:
        Optional cap ``c`` on how many exchanges a node can *accept* as the
        responder in one round — the restricted bounded-in-degree model the
        conclusion points to (Daum et al.).  Initiations beyond the cap are
        rejected; the initiator's round is wasted.  ``None`` (the paper's
        main model) means unbounded.
    enforce_blocking:
        Appendix E claims its algorithm "works even when nodes cannot
        initiate a new exchange in every round, and wait till the
        acknowledgement of the previous message, i.e., communication is
        blocking."  With this flag the engine *verifies* such claims: a
        node initiating while one of its own initiations is still in
        flight raises :class:`~repro.errors.ProtocolError`.  Push--pull is
        expected to violate it; ℓ-DTG / T(k) / Path Discovery must not.
    checkers:
        Optional :class:`~repro.sim.invariants.InvariantChecker` instances:
        sinks that read the run's event stream (the events a ``recorder``
        would record, the same objects in the same order) and raise
        :class:`~repro.errors.SimulationError` on a model violation, with
        the most recent events as its excerpt.  With
        the default ``None``, a fresh set of
        :func:`~repro.sim.invariants.default_checkers` is attached when a
        :func:`~repro.sim.invariants.checked` scope is active, and nothing
        otherwise.  Pass ``()`` to force checking off even inside a
        ``checked`` scope.
    recorder:
        Optional :class:`~repro.obs.recorder.Recorder` receiving typed
        events (initiations, deliveries with coverage deltas, wakeups,
        void exchanges, blocked/rejected initiations, per-round
        summaries).  The engine emits each event once, to the recorder
        first and then to the checkers; with neither (the default) the
        hot path pays exactly one ``is None`` check per potential event
        site.  Observing never changes a run: it is bit-identical with
        and without a recorder or checkers, and the recorder's bytes are
        the same with and without checkers.
    """

    #: The backend label a phase on this engine records
    #: (``PhaseTiming.backend``): ``"scalar"``, ``"vector"`` for a
    #: :class:`~repro.sim.vector.VectorEngine`, or ``"scalar-fallback"``
    #: when the ``vector`` backend refused the array round.
    backend = "scalar"
    #: That refusal, ``(slug, reason)`` from
    #: :func:`~repro.sim.vector.vector_refusal`, or ``None``.
    refusal: Optional[tuple[str, str]] = None

    def __init__(
        self,
        graph: LatencyGraph,
        protocol_factory: ProtocolFactory,
        state: Optional[VectorState] = None,
        latencies_known: bool = False,
        fresh_snapshots: bool = False,
        failure_model: Optional["FailureModel"] = None,
        max_incoming_per_round: Optional[int] = None,
        enforce_blocking: bool = False,
        checkers: Optional[Sequence[InvariantChecker]] = None,
        recorder: Optional[Recorder] = None,
    ) -> None:
        if max_incoming_per_round is not None and max_incoming_per_round < 1:
            raise SimulationError(
                f"max_incoming_per_round must be >= 1, got {max_incoming_per_round}"
            )
        self.graph = graph
        self.state = state if state is not None else VectorState(graph.nodes())
        self.latencies_known = latencies_known
        self.fresh_snapshots = fresh_snapshots
        self.failure_model = failure_model
        self.max_incoming_per_round = max_incoming_per_round
        self.enforce_blocking = enforce_blocking
        self.recorder = recorder
        self.metrics = EngineMetrics()
        if enforce_blocking:
            # Tracked-but-clean is 0; "never tracked" stays None.
            self.metrics.blocked_initiations = 0
        #: Per-initiator count of the initiator's own exchanges still in
        #: flight.  Maintained only under ``enforce_blocking`` (its sole
        #: reader) and entries are deleted as soon as they drop to zero, so
        #: the dict never accumulates dead keys over a long run.
        self._in_flight_initiations: dict[Node, int] = {}
        self.round = 0
        #: Exchanges initiated during the most recent :meth:`step`, as
        #: ``(initiator, responder)`` pairs — the hook the Lemma 3 reduction
        #: uses to turn edge activations into guessing-game guesses.
        self.last_initiations: list[tuple[Node, Node]] = []
        self._sequence = 0
        #: Per-round delivery buckets: delivers_at -> exchanges in initiation
        #: order.  Since rounds advance one at a time, the due work each
        #: round is exactly one ``dict.pop`` — no heap, no re-sorting.
        self._in_flight: dict[int, list[_InFlight]] = {}
        self._pending_count = 0
        self._order = graph.nodes()
        self._protocols: dict[Node, NodeProtocol] = {}
        self._contexts: dict[Node, NodeContext] = {}
        for node in self._order:
            self._protocols[node] = protocol_factory(node)
            self._contexts[node] = NodeContext(self, node)
        for node in self._order:
            self._protocols[node].setup(self._contexts[node])
        #: Active-set schedule: nodes not yet known-done, in dense-id order.
        #: A node leaves when ``is_done`` reports True and re-enters when
        #: one of its exchanges delivers (see the NodeProtocol contract).
        self._active: list[Node] = list(self._order)
        self._parked: set[Node] = set()
        self._woken: list[Node] = []
        self._node_index = {node: i for i, node in enumerate(self._order)}
        if checkers is None:
            checkers = (
                _invariants.default_checkers()
                if _invariants.checking_enabled()
                else ()
            )
        self._checkers: tuple[InvariantChecker, ...] = tuple(checkers)
        #: Where every event goes, once: ``None`` when nothing observes
        #: the run, the recorder alone, or the checked fan-out.
        self._emit: Optional[Callable[[Event], None]] = None
        if self._checkers:
            #: The recent events a checker's violation message shows.
            self._recent_events = RingBufferSink(_CHECKER_LOG_SIZE)
            self._emit = self._emit_checked
        elif recorder is not None:
            self._emit = recorder.record
        for checker in self._checkers:
            checker.on_attach(self)

    # ------------------------------------------------------------------
    def protocol(self, node: Node) -> NodeProtocol:
        """The protocol instance for ``node`` (for post-run inspection)."""
        return self._protocols[node]

    def all_done(self) -> bool:
        """Whether every node's protocol reports local termination.

        Crashed nodes count as done: they will never act again, so waiting
        on them would deadlock every fixed-duration protocol.
        """
        parked = self._parked
        for node in self._order:
            if node in parked:
                continue
            if self.failure_model is not None and self.failure_model.node_crashed(
                node, self.round
            ):
                continue
            if not self._protocols[node].is_done(self._contexts[node]):
                return False
        return True

    def pending_exchanges(self) -> int:
        """Number of exchanges still in flight."""
        return self._pending_count

    def _emit_checked(self, event: Event) -> None:
        """Hand one event to the recorder, the recent-event ring, then
        every checker."""
        if self.recorder is not None:
            self.recorder.record(event)
        self._recent_events.write(event)
        for checker in self._checkers:
            checker.write(event)

    # ------------------------------------------------------------------
    def step(self) -> None:
        """Execute one round: deliver due exchanges, then collect initiations."""
        self.last_initiations = []
        delivered = self._deliver_due()
        if self._woken:
            self._wake_parked()
        emit = self._emit
        incoming: dict[Node, int] = {}
        failure_model = self.failure_model
        protocols = self._protocols
        contexts = self._contexts
        graph_adj = self.graph.adjacency_view()
        survivors: list[Node] = []
        keep = survivors.append
        for node in self._active:
            if failure_model is not None and failure_model.node_crashed(
                node, self.round
            ):
                keep(node)  # crashes are observed, never cached
                continue
            protocol = protocols[node]
            ctx = contexts[node]
            if protocol.is_done(ctx):
                self._parked.add(node)  # leaves the active set until a delivery
                continue
            keep(node)
            target = protocol.on_round(ctx)
            if target is None:
                continue
            if target not in graph_adj.get(node, ()):
                raise ProtocolError(
                    f"node {node!r} tried to contact non-neighbor {target!r}"
                )
            if self.max_incoming_per_round is not None:
                accepted = incoming.get(target, 0)
                if accepted >= self.max_incoming_per_round:
                    self.metrics.rejected_initiations += 1
                    if emit is not None:
                        emit(
                            RejectedInitiationEvent(
                                round=self.round, initiator=node, responder=target
                            )
                        )
                    continue  # the responder is saturated; round wasted
                incoming[target] = accepted + 1
            self._initiate(node, target)
        self._active = survivors
        if emit is not None:
            emit(
                RoundEvent(
                    round=self.round,
                    initiations=len(self.last_initiations),
                    deliveries=delivered,
                    in_flight=self._pending_count,
                )
            )
        self.round += 1
        self.metrics.rounds = self.round

    def _wake_parked(self) -> None:
        """Merge nodes re-activated by a delivery back in dense-id order."""
        index = self._node_index
        woken = sorted(set(self._woken), key=index.__getitem__)
        self._woken = []
        merged: list[Node] = []
        active = self._active
        i = j = 0
        while i < len(active) and j < len(woken):
            if index[active[i]] <= index[woken[j]]:
                merged.append(active[i])
                i += 1
            else:
                merged.append(woken[j])
                j += 1
        merged.extend(active[i:])
        merged.extend(woken[j:])
        self._active = merged

    def run(
        self,
        until: Optional[Callable[["Engine"], bool]] = None,
        max_rounds: int = 1_000_000,
    ) -> int:
        """Run until ``until(engine)`` is true (checked before each round).

        With ``until=None``, runs until every protocol is done.  Returns the
        number of rounds executed.

        Raises
        ------
        SimulationError
            If ``max_rounds`` is exceeded — protocols with a theoretical
            termination guarantee should never hit this.
        """
        predicate = until if until is not None else (lambda engine: engine.all_done())
        while not predicate(self):
            if self.round >= max_rounds:
                raise SimulationError(
                    f"simulation exceeded max_rounds={max_rounds} "
                    f"(round={self.round}, pending={self._pending_count})"
                )
            self.step()
        self.finish_checks()
        return self.round

    def finish_checks(self) -> None:
        """Give every attached invariant checker a final end-of-run look."""
        for checker in self._checkers:
            checker.on_run_end(self)

    # ------------------------------------------------------------------
    def _initiate(self, initiator: Node, responder: Node) -> None:
        latency = self.graph.latency(initiator, responder)
        if self.enforce_blocking and self._in_flight_initiations.get(initiator, 0):
            self.metrics.blocked_initiations += 1
            if self._emit is not None:
                self._emit(
                    BlockedInitiationEvent(
                        round=self.round, initiator=initiator, responder=responder
                    )
                )
            raise ProtocolError(
                f"blocking violation: node {initiator!r} initiated while a "
                "previous exchange of its own is still in flight"
            )
        ping_only = not getattr(self._protocols[initiator], "sends_payload", True)
        lost = self.failure_model is not None and self.failure_model.exchange_lost(
            initiator, responder, self.round
        )
        if self._emit is not None:
            self._emit(
                InitiationEvent(
                    round=self.round,
                    initiator=initiator,
                    responder=responder,
                    latency=latency,
                    ping=ping_only,
                    lost=lost,
                )
            )
        if lost:
            # Lost on the wire: the initiator simply never hears back.
            self.metrics.lost_exchanges += 1
            return
        self._sequence += 1
        if ping_only or self.fresh_snapshots:
            # Pings never carry knowledge; fresh-snapshot payloads are
            # re-read at delivery.  Either way, store cheap placeholders.
            initiator_payload = responder_payload = _EMPTY_PAYLOAD
        else:
            initiator_payload = self.state.snapshot(initiator)
            responder_payload = self.state.snapshot(responder)
        exchange = _InFlight(
            delivers_at=self.round + latency,
            sequence=self._sequence,
            initiator=initiator,
            responder=responder,
            initiated_at=self.round,
            initiator_payload=initiator_payload,
            responder_payload=responder_payload,
            ping_only=ping_only,
        )
        bucket = self._in_flight.get(exchange.delivers_at)
        if bucket is None:
            bucket = self._in_flight[exchange.delivers_at] = []
        bucket.append(exchange)
        self._pending_count += 1
        if self.enforce_blocking:
            self._in_flight_initiations[initiator] = (
                self._in_flight_initiations.get(initiator, 0) + 1
            )
        self.last_initiations.append((initiator, responder))
        if not self.fresh_snapshots:
            self._account_payloads(initiator_payload, responder_payload)
        self.metrics.exchanges += 1
        self.metrics.messages += 2
        self.metrics.activated_edges.add(self.graph.canonical_edge(initiator, responder))

    def _account_payloads(self, initiator_payload: Payload, responder_payload: Payload) -> None:
        sent = initiator_payload.rumor_count
        received = responder_payload.rumor_count
        self.metrics.rumor_tokens_sent += sent + received
        if sent < received:
            sent = received
        if sent > self.metrics.max_payload_rumors:
            self.metrics.max_payload_rumors = sent

    def _deliver_due(self) -> int:
        bucket = self._in_flight.pop(self.round, None)
        if bucket is None:
            return 0
        self._pending_count -= len(bucket)
        for exchange in bucket:
            self._deliver(exchange)
        return len(bucket)

    def _deliver(self, exchange: _InFlight) -> None:
        if self.enforce_blocking:
            remaining = self._in_flight_initiations[exchange.initiator] - 1
            if remaining:
                self._in_flight_initiations[exchange.initiator] = remaining
            else:
                del self._in_flight_initiations[exchange.initiator]
        initiator_alive = responder_alive = True
        if self.failure_model is not None:
            initiator_alive = not self.failure_model.node_crashed(
                exchange.initiator, self.round
            )
            responder_alive = not self.failure_model.node_crashed(
                exchange.responder, self.round
            )
        emit = self._emit
        if not responder_alive:
            # No response was ever produced: the exchange is void.
            self.metrics.lost_exchanges += 1
            if emit is not None:
                emit(
                    VoidExchangeEvent(
                        round=self.round,
                        initiator=exchange.initiator,
                        responder=exchange.responder,
                        initiated_at=exchange.initiated_at,
                    )
                )
            return
        if exchange.ping_only:
            initiator_payload = responder_payload = _EMPTY_PAYLOAD
        elif self.fresh_snapshots:
            initiator_payload = self.state.snapshot(exchange.initiator)
            responder_payload = self.state.snapshot(exchange.responder)
            self._account_payloads(initiator_payload, responder_payload)
        else:
            # Responder learns the initiator's round-t knowledge and
            # vice versa (conservative initiation-time semantics).
            initiator_payload = exchange.initiator_payload
            responder_payload = exchange.responder_payload
        if emit is not None:
            before_responder = self.state.rumor_count(exchange.responder)
            before_initiator = (
                self.state.rumor_count(exchange.initiator) if initiator_alive else 0
            )
        self.state.merge(exchange.responder, initiator_payload)
        if initiator_alive:
            self.state.merge(exchange.initiator, responder_payload)
        if emit is not None:
            emit(
                DeliveryEvent(
                    round=self.round,
                    initiator=exchange.initiator,
                    responder=exchange.responder,
                    initiated_at=exchange.initiated_at,
                    ping=exchange.ping_only,
                    initiator_alive=initiator_alive,
                    learned_by_initiator=(
                        self.state.rumor_count(exchange.initiator) - before_initiator
                        if initiator_alive
                        else 0
                    ),
                    learned_by_responder=(
                        self.state.rumor_count(exchange.responder) - before_responder
                    ),
                )
            )
        endpoints = [(exchange.responder, False)]
        if initiator_alive:
            endpoints.insert(0, (exchange.initiator, True))
        parked = self._parked
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
            if node in parked:
                # The delivery may have changed the node's mind about being
                # done: re-activate it for this round's scan.
                parked.discard(node)
                self._woken.append(node)
                if emit is not None:
                    emit(WakeupEvent(round=self.round, node=node))
