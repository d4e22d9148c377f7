"""Machine-checked model invariants for the gossip engine.

Every theorem reproduced in this library (Theorems 12, 14, 19, 20) is only
as trustworthy as the simulator's fidelity to the paper's synchronous
non-blocking latency model.  This module turns the prose of
``docs/MODEL.md`` into executable checks.  An :class:`InvariantChecker`
is an ``obs`` sink: it reads the engine's one event stream (the
``initiate`` / ``deliver`` / ``void`` / ``round`` / ... events a
:class:`~repro.obs.recorder.Recorder` on the same run records), opt-in via
``Engine(..., checkers=default_checkers())``.  Both engine backends run
the scalar :class:`~repro.sim.engine.Engine` over a
:class:`~repro.sim.state.VectorState` whenever checkers are attached, so
I1–I5 read the exact same stream on both.  A violation raises :class:`~repro.errors.SimulationError`
carrying the round and the most recent events as canonical JSONL lines,
so a broken engine refactor fails loudly at the exact round the model was
first violated.

The invariants (numbered as in ``docs/MODEL.md`` section 6):

I1. **Single initiation** — each node initiates at most one exchange per
    round.
I2. **Exact latency** — an exchange over an edge of latency ``ℓ``
    initiated at round ``t`` delivers (or is voided at its crashed
    responder) at exactly ``t + ℓ``.
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
from typing import TYPE_CHECKING, NoReturn

from repro.errors import SimulationError
from repro.graphs.latency_graph import Node
from repro.obs.events import Event, event_to_json

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (sim.engine imports us)
    from repro.sim.engine import Engine

__all__ = [
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


class InvariantChecker:
    """Base class: an ``obs`` sink that raises on model violations.

    A checker reads the engine's one event stream: :meth:`write` receives
    every event the engine emits (the objects a
    :class:`~repro.obs.recorder.Recorder` on the same run records, in the
    same order) just after the engine acted on it, and subclasses dispatch
    on ``event.kind`` and call :meth:`fail` on a violation.  One instance
    observes one engine run: :meth:`on_attach` binds it to the engine,
    whose ``graph``/``state``/``round``/``failure_model`` the checks read
    (the scalar ``Engine`` over the production or the oracle state;
    ``VectorEngine`` takes no checkers).
    """

    #: Short name used in violation messages.
    name = "invariant"

    def on_attach(self, engine: "Engine") -> None:
        """Called once from ``Engine.__init__`` (protocols already set up)."""
        self.engine = engine

    def write(self, event: Event) -> None:
        """Read one event of the run (deliveries after both merges, before
        the protocols' ``on_deliver`` callbacks)."""

    def on_run_end(self, engine: "Engine") -> None:
        """Called from ``Engine.finish_checks()`` when a run completes."""

    # ------------------------------------------------------------------
    def fail(self, message: str) -> NoReturn:
        """Raise :class:`SimulationError` with a round-stamped trace excerpt.

        The excerpt is the engine's ring of recent events, one canonical
        JSONL line each.
        """
        engine = self.engine
        excerpt = engine._recent_events.events
        lines = [
            f"model invariant violated [{self.name}] at round {engine.round}: "
            f"{message}"
        ]
        if excerpt:
            lines.append("recent events:")
            lines.extend(f"  {event_to_json(event)}" for event in excerpt)
        raise SimulationError("\n".join(lines))


class SingleInitiationChecker(InvariantChecker):
    """I1: at most one initiation per node per round."""

    name = "single-initiation"

    def __init__(self) -> None:
        self._round = -1
        self._initiated_this_round: set[Node] = set()

    def write(self, event: Event) -> None:
        if event.kind != "initiate":
            return
        if event.round != self._round:
            self._round = event.round
            self._initiated_this_round.clear()
        if event.initiator in self._initiated_this_round:
            self.fail(
                f"node {event.initiator!r} initiated twice in round "
                f"{event.round}",
            )
        self._initiated_this_round.add(event.initiator)


class DeliveryLatencyChecker(InvariantChecker):
    """I2: every exchange lands exactly ``latency(edge)`` after initiation.

    Delivered and voided (responder crashed) exchanges alike: a void is
    the exchange arriving at a crashed node, so it is due at ``t + ℓ`` too.
    """

    name = "delivery-latency"

    def write(self, event: Event) -> None:
        if event.kind not in ("deliver", "void"):
            return
        graph = self.engine.graph
        if not graph.has_edge(event.initiator, event.responder):
            self.fail(
                f"delivery over non-edge ({event.initiator!r}, "
                f"{event.responder!r})",
            )
        expected = graph.latency(event.initiator, event.responder)
        elapsed = event.round - event.initiated_at
        if elapsed != expected:
            self.fail(
                f"exchange {event.initiator!r} -> {event.responder!r} "
                f"initiated at {event.initiated_at} delivered after "
                f"{elapsed} rounds; edge latency is {expected}",
            )


class MonotoneKnowledgeChecker(InvariantChecker):
    """I3: rumor sets never shrink; note versions never decrease.

    Scans every node on attach, at each round's end (the ``round`` event)
    and at run end.
    """

    name = "monotone-knowledge"

    def __init__(self) -> None:
        self._rumors: dict[Node, frozenset] = {}
        self._note_versions: dict[tuple[Node, Node], int] = {}

    def on_attach(self, engine: "Engine") -> None:
        super().on_attach(engine)
        self._scan(initial=True)

    def write(self, event: Event) -> None:
        if event.kind == "round":
            self._scan()

    def on_run_end(self, engine: "Engine") -> None:
        self._scan()

    def _scan(self, initial: bool = False) -> None:
        engine = self.engine
        state = engine.state
        for node in engine.graph.nodes():
            current = state.rumors(node)
            if not initial:
                previous = self._rumors.get(node, frozenset())
                if not previous <= current:
                    lost = sorted(previous - current, key=repr)
                    self.fail(
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
    snapshot; a voided exchange drops its snapshot.  Ping exchanges are
    exempt by design; under ``fresh_snapshots`` the engine ships
    delivery-time state, which is a superset of the initiation-time
    snapshot whenever I3 holds, so the check remains sound.
    """

    name = "symmetric-merge"

    def __init__(self) -> None:
        self._pending: dict[tuple[Node, Node, int], tuple[frozenset, frozenset]] = {}

    def write(self, event: Event) -> None:
        kind = event.kind
        if kind == "initiate":
            if event.ping or event.lost:
                return
            state = self.engine.state
            key = (event.initiator, event.responder, event.round)
            self._pending[key] = (
                state.rumors(event.initiator),
                state.rumors(event.responder),
            )
        elif kind == "deliver":
            self._check_delivery(event)
        elif kind == "void":
            self._pending.pop(
                (event.initiator, event.responder, event.initiated_at), None
            )

    def _check_delivery(self, event: Event) -> None:
        if event.ping:
            return
        state = self.engine.state
        key = (event.initiator, event.responder, event.initiated_at)
        snapshots = self._pending.pop(key, None)
        if snapshots is None:
            self.fail(
                f"delivery {event.initiator!r} -> {event.responder!r} "
                f"(initiated at {event.initiated_at}) has no matching "
                "initiation",
            )
        initiator_knew, responder_knew = snapshots
        if not initiator_knew <= state.rumors(event.responder):
            missing = sorted(initiator_knew - state.rumors(event.responder), key=repr)
            self.fail(
                f"responder {event.responder!r} did not learn "
                f"{missing[:5]!r} from {event.initiator!r} "
                f"(round-{event.initiated_at} knowledge)",
            )
        if event.initiator_alive and not responder_knew <= state.rumors(
            event.initiator
        ):
            missing = sorted(responder_knew - state.rumors(event.initiator), key=repr)
            self.fail(
                f"initiator {event.initiator!r} did not learn "
                f"{missing[:5]!r} from {event.responder!r} "
                f"(round-{event.initiated_at} knowledge)",
            )


class CrashedSilenceChecker(InvariantChecker):
    """I5: a node crashed under the failure model never initiates."""

    name = "crashed-silence"

    def write(self, event: Event) -> None:
        if event.kind != "initiate":
            return
        model = self.engine.failure_model
        if model is not None and model.node_crashed(event.initiator, event.round):
            self.fail(
                f"crashed node {event.initiator!r} initiated an exchange "
                f"with {event.responder!r}",
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
