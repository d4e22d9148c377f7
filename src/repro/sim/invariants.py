"""Machine-checked model invariants for the gossip engine.

Every theorem reproduced in this library (Theorems 12, 14, 19, 20) is only
as trustworthy as the simulator's fidelity to the paper's synchronous
non-blocking latency model.  This module turns the prose of
``docs/MODEL.md`` into executable checks: an :class:`InvariantChecker`
plugs into either engine backend — both run the scalar
:class:`~repro.sim.engine.Engine` whenever checkers are attached, the
``vector`` backend over a :class:`~repro.sim.vector.VectorState`, so
I1–I5 observe the exact same event stream on both backends — opt-in via
``Engine(..., checkers=default_checkers())``, and observes every round,
initiation, and delivery.  A violation raises
:class:`~repro.errors.SimulationError` carrying a round-stamped excerpt of
the most recent events, so a broken engine refactor fails loudly at the
exact round the model was first violated.

The invariants (numbered as in ``docs/MODEL.md`` section 6):

I1. **Single initiation** — each node initiates at most one exchange per
    round.
I2. **Exact latency** — an exchange over an edge of latency ``ℓ``
    initiated at round ``t`` delivers at exactly ``t + ℓ``.
I3. **Monotone knowledge** — rumor sets only grow, and note versions only
    increase (knowledge is never forgotten).
I4. **Symmetric merge** — at delivery, both live endpoints know at least
    the other endpoint's knowledge as of initiation (the push--pull
    symmetry of footnote 2; under ``fresh_snapshots`` the shipped state is
    delivery-time state, which monotonicity makes a superset of this).
I5. **Crashed silence** — a node crashed under the failure model never
    initiates.

Checkers are stateful per run: create fresh instances per engine (which is
what :func:`default_checkers` and the :func:`checked` context do).

Usage::

    engine = Engine(graph, factory, checkers=default_checkers())

    # or: force checking on every engine built in a scope, whichever
    # backend (``repro check --backend vector`` does exactly this)
    with checked():
        run_push_pull(graph, seed=0)
"""

from __future__ import annotations

import contextlib
import dataclasses
from typing import TYPE_CHECKING, NoReturn, Optional

from repro.errors import SimulationError
from repro.graphs.latency_graph import Node

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (sim.engine imports us)
    from repro.sim.engine import Engine

__all__ = [
    "ExchangeView",
    "DeliveryView",
    "InvariantChecker",
    "SingleInitiationChecker",
    "DeliveryLatencyChecker",
    "MonotoneKnowledgeChecker",
    "SymmetricMergeChecker",
    "CrashedSilenceChecker",
    "default_checkers",
    "checked",
    "checking_enabled",
]


@dataclasses.dataclass(frozen=True)
class ExchangeView:
    """What a checker sees when an exchange is initiated.

    Attributes
    ----------
    initiator, responder:
        The endpoints (``initiator`` chose this contact).
    round:
        The initiation round.
    latency:
        The edge latency the engine believes it is using.
    ping_only:
        Whether the initiating protocol sends no payload.
    lost:
        Whether the failure model voided the exchange on the wire (it will
        never deliver, but it still consumes the initiator's turn).
    """

    initiator: Node
    responder: Node
    round: int
    latency: int
    ping_only: bool
    lost: bool


@dataclasses.dataclass(frozen=True)
class DeliveryView:
    """What a checker sees when an exchange delivers (or is voided).

    ``initiator_alive`` is ``False`` when the initiator crashed while the
    exchange was in flight: the responder still merges the request payload
    but the response goes nowhere.
    """

    initiator: Node
    responder: Node
    initiated_at: int
    delivered_at: int
    ping_only: bool
    initiator_alive: bool


class InvariantChecker:
    """Base class: observes engine events, raises on model violations.

    All hooks default to no-ops; subclasses override the ones they need
    and call :meth:`fail` on a violation.  One instance observes one
    engine run.  The ``engine`` the hooks receive is duck-typed: any
    backend exposing ``graph``/``state``/``round``/``failure_model`` and
    ``recent_checker_events()`` works (the scalar ``Engine`` does, over
    either state; ``VectorEngine`` takes no checkers).
    """

    #: Short name used in violation messages.
    name = "invariant"

    def on_attach(self, engine: "Engine") -> None:
        """Called once from ``Engine.__init__`` (protocols already set up)."""

    def on_round_start(self, engine: "Engine") -> None:
        """Called at the top of every ``Engine.step()``."""

    def on_initiation(self, engine: "Engine", exchange: ExchangeView) -> None:
        """Called for every accepted initiation (including lost ones)."""

    def on_delivery(self, engine: "Engine", delivery: DeliveryView) -> None:
        """Called after both merges of a delivered exchange, before the
        protocols' ``on_deliver`` callbacks run."""

    def on_exchange_void(self, engine: "Engine", delivery: DeliveryView) -> None:
        """Called when a due exchange is voided (responder crashed)."""

    def on_round_end(self, engine: "Engine") -> None:
        """Called at the bottom of every ``Engine.step()`` (same round)."""

    def on_run_end(self, engine: "Engine") -> None:
        """Called from ``Engine.finish_checks()`` when a run completes."""

    # ------------------------------------------------------------------
    def fail(self, engine: "Engine", message: str) -> NoReturn:
        """Raise :class:`SimulationError` with a round-stamped trace excerpt."""
        excerpt = engine.recent_checker_events()
        lines = [
            f"model invariant violated [{self.name}] at round {engine.round}: "
            f"{message}"
        ]
        if excerpt:
            lines.append("recent events:")
            lines.extend(f"  {event}" for event in excerpt)
        raise SimulationError("\n".join(lines))


class SingleInitiationChecker(InvariantChecker):
    """I1: at most one initiation per node per round."""

    name = "single-initiation"

    def __init__(self) -> None:
        self._initiated_this_round: set[Node] = set()

    def on_round_start(self, engine: "Engine") -> None:
        self._initiated_this_round.clear()

    def on_initiation(self, engine: "Engine", exchange: ExchangeView) -> None:
        if exchange.initiator in self._initiated_this_round:
            self.fail(
                engine,
                f"node {exchange.initiator!r} initiated twice in round "
                f"{exchange.round}",
            )
        self._initiated_this_round.add(exchange.initiator)


class DeliveryLatencyChecker(InvariantChecker):
    """I2: every delivery lands exactly ``latency(edge)`` after initiation."""

    name = "delivery-latency"

    def on_delivery(self, engine: "Engine", delivery: DeliveryView) -> None:
        if not engine.graph.has_edge(delivery.initiator, delivery.responder):
            self.fail(
                engine,
                f"delivery over non-edge ({delivery.initiator!r}, "
                f"{delivery.responder!r})",
            )
        expected = engine.graph.latency(delivery.initiator, delivery.responder)
        elapsed = delivery.delivered_at - delivery.initiated_at
        if elapsed != expected:
            self.fail(
                engine,
                f"exchange {delivery.initiator!r} -> {delivery.responder!r} "
                f"initiated at {delivery.initiated_at} delivered after "
                f"{elapsed} rounds; edge latency is {expected}",
            )


class MonotoneKnowledgeChecker(InvariantChecker):
    """I3: rumor sets never shrink; note versions never decrease."""

    name = "monotone-knowledge"

    def __init__(self) -> None:
        self._rumors: dict[Node, frozenset] = {}
        self._note_versions: dict[tuple[Node, Node], int] = {}

    def on_attach(self, engine: "Engine") -> None:
        self._scan(engine, initial=True)

    def on_round_end(self, engine: "Engine") -> None:
        self._scan(engine)

    def on_run_end(self, engine: "Engine") -> None:
        self._scan(engine)

    def _scan(self, engine: "Engine", initial: bool = False) -> None:
        state = engine.state
        for node in engine.graph.nodes():
            current = state.rumors(node)
            if not initial:
                previous = self._rumors.get(node, frozenset())
                if not previous <= current:
                    lost = sorted(previous - current, key=repr)
                    self.fail(
                        engine,
                        f"node {node!r} forgot rumors {lost[:5]!r} "
                        f"(knowledge must be monotone)",
                    )
            self._rumors[node] = current
            for origin in state.known_note_origins(node):
                note = state.note_of(node, origin)
                if note is None:
                    continue
                key = (node, origin)
                if not initial and note.version < self._note_versions.get(key, 0):
                    self.fail(
                        engine,
                        f"node {node!r} regressed note of {origin!r} to "
                        f"version {note.version} (had "
                        f"{self._note_versions[key]})",
                    )
                self._note_versions[key] = note.version


class SymmetricMergeChecker(InvariantChecker):
    """I4: both live endpoints absorb the peer's initiation-time knowledge.

    The checker snapshots both endpoints' rumor sets *independently* at
    initiation (it does not trust the payload the engine shipped) and, at
    delivery, asserts each live endpoint's knowledge covers the peer's
    snapshot.  Ping exchanges are exempt by design; under
    ``fresh_snapshots`` the engine ships delivery-time state, which is a
    superset of the initiation-time snapshot whenever I3 holds, so the
    check remains sound.
    """

    name = "symmetric-merge"

    def __init__(self) -> None:
        self._pending: dict[tuple[Node, Node, int], tuple[frozenset, frozenset]] = {}

    def on_initiation(self, engine: "Engine", exchange: ExchangeView) -> None:
        if exchange.ping_only or exchange.lost:
            return
        key = (exchange.initiator, exchange.responder, exchange.round)
        self._pending[key] = (
            engine.state.rumors(exchange.initiator),
            engine.state.rumors(exchange.responder),
        )

    def on_delivery(self, engine: "Engine", delivery: DeliveryView) -> None:
        if delivery.ping_only:
            return
        key = (delivery.initiator, delivery.responder, delivery.initiated_at)
        snapshots = self._pending.pop(key, None)
        if snapshots is None:
            self.fail(
                engine,
                f"delivery {delivery.initiator!r} -> {delivery.responder!r} "
                f"(initiated at {delivery.initiated_at}) has no matching "
                "initiation",
            )
        initiator_knew, responder_knew = snapshots
        if not initiator_knew <= engine.state.rumors(delivery.responder):
            missing = sorted(
                initiator_knew - engine.state.rumors(delivery.responder), key=repr
            )
            self.fail(
                engine,
                f"responder {delivery.responder!r} did not learn "
                f"{missing[:5]!r} from {delivery.initiator!r} "
                f"(round-{delivery.initiated_at} knowledge)",
            )
        if delivery.initiator_alive and not responder_knew <= engine.state.rumors(
            delivery.initiator
        ):
            missing = sorted(
                responder_knew - engine.state.rumors(delivery.initiator), key=repr
            )
            self.fail(
                engine,
                f"initiator {delivery.initiator!r} did not learn "
                f"{missing[:5]!r} from {delivery.responder!r} "
                f"(round-{delivery.initiated_at} knowledge)",
            )

    def on_exchange_void(self, engine: "Engine", delivery: DeliveryView) -> None:
        self._pending.pop(
            (delivery.initiator, delivery.responder, delivery.initiated_at), None
        )


class CrashedSilenceChecker(InvariantChecker):
    """I5: a node crashed under the failure model never initiates."""

    name = "crashed-silence"

    def on_initiation(self, engine: "Engine", exchange: ExchangeView) -> None:
        model = engine.failure_model
        if model is not None and model.node_crashed(exchange.initiator, exchange.round):
            self.fail(
                engine,
                f"crashed node {exchange.initiator!r} initiated an exchange "
                f"with {exchange.responder!r}",
            )


def default_checkers() -> list[InvariantChecker]:
    """Fresh instances of every model-invariant checker (I1--I5)."""
    return [
        SingleInitiationChecker(),
        DeliveryLatencyChecker(),
        MonotoneKnowledgeChecker(),
        SymmetricMergeChecker(),
        CrashedSilenceChecker(),
    ]


_CHECKED_DEPTH = 0


def checking_enabled() -> bool:
    """Whether a :func:`checked` scope is active."""
    return _CHECKED_DEPTH > 0


@contextlib.contextmanager
def checked():
    """Attach :func:`default_checkers` to every Engine built in this scope.

    The knob behind ``run_experiment(..., checked=True)`` and the
    ``repro check`` CLI: engines constructed with ``checkers=None`` (the
    default) pick up a fresh set of default checkers while the context is
    active.  Engines passing an explicit checker list are unaffected.
    Reentrant; not thread-safe (our experiment harness is single-threaded).
    """
    global _CHECKED_DEPTH
    _CHECKED_DEPTH += 1
    try:
        yield
    finally:
        _CHECKED_DEPTH -= 1
