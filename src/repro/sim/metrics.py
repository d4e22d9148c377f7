"""Simulation metrics and result records."""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Optional

from repro.graphs.latency_graph import Edge
from repro.obs.telemetry import RunTelemetry

__all__ = ["EngineMetrics", "DisseminationResult"]


@dataclasses.dataclass
class EngineMetrics:
    """Raw counters accumulated by the engine.

    Attributes
    ----------
    rounds:
        Rounds executed so far.
    exchanges:
        Exchanges initiated (each is one bidirectional round trip).
    messages:
        Point-to-point messages: two per exchange (request + response).
    activated_edges:
        The set of distinct edges activated at least once — the quantity the
        lower-bound reduction turns into guessing-game guesses.
    rumor_tokens_sent:
        Total rumors shipped over the wire (both directions of every
        exchange) — the message-size measure the paper's conclusion
        discusses: push--pull works with small messages, the spanner
        pipeline does not.
    max_payload_rumors:
        Largest single payload (in rumors) shipped by any exchange.
    lost_exchanges:
        Exchanges voided by the failure model (message loss or a crashed
        responder).
    rejected_initiations:
        Initiations refused under the bounded-in-degree model.
    blocked_initiations:
        Initiations that violated the blocking model.  ``None`` means the
        engine ran with ``enforce_blocking=False`` and blocking was never
        tracked — deliberately distinct from ``0`` ("tracked, and no node
        ever violated").  Under ``enforce_blocking=True`` the counter is
        bumped *before* the engine raises, so a post-mortem inspection of
        a failed run still shows the violation.
    """

    rounds: int = 0
    exchanges: int = 0
    messages: int = 0
    activated_edges: set = dataclasses.field(default_factory=set)
    rumor_tokens_sent: int = 0
    max_payload_rumors: int = 0
    lost_exchanges: int = 0
    rejected_initiations: int = 0
    blocked_initiations: Optional[int] = None

    def __getattr__(self, name: str) -> Any:
        # Reached only for an attribute the instance lacks: the set that
        # ``_edges_changed`` dropped, rebuilt by the ``_track_edges`` fold.
        fold = self.__dict__.get("_fold_edges")
        if name != "activated_edges" or fold is None:
            raise AttributeError(name)
        self.activated_edges = fold()
        return self.activated_edges

    def _track_edges(self, fold: Callable[[], set]) -> None:
        # For an engine keeping activated edges elsewhere (the vector
        # backend's edge mask): reading the set calls ``fold()``, and
        # reading the counters never does.
        self._fold_edges = fold
        self._edges_changed()

    def _edges_changed(self) -> None:
        # The tracked edges changed; the next read of the set refolds.
        self.__dict__.pop("activated_edges", None)

    def __str__(self) -> str:
        blocked = (
            "n/a (blocking not enforced)"
            if self.blocked_initiations is None
            else str(self.blocked_initiations)
        )
        return (
            f"rounds={self.rounds} exchanges={self.exchanges} "
            f"messages={self.messages} edges={len(self.activated_edges)} "
            f"rumor_tokens={self.rumor_tokens_sent} "
            f"max_payload={self.max_payload_rumors} "
            f"lost={self.lost_exchanges} rejected={self.rejected_initiations} "
            f"blocked={blocked}"
        )


@dataclasses.dataclass(frozen=True)
class DisseminationResult:
    """Outcome of one dissemination run.

    Attributes
    ----------
    rounds:
        Rounds until the completion predicate held (the paper's time metric).
    complete:
        Whether the predicate was actually reached (``False`` only for runs
        capped by a fixed round budget).
    exchanges, messages:
        Communication cost counters.
    informed_history:
        ``informed_history[t]`` is how many nodes satisfied the progress
        measure at round ``t`` (e.g. number of nodes knowing the source
        rumor) — recorded only when the runner is asked to track it.
    protocol:
        Human-readable name of the protocol that produced this result.
    blocked_initiations:
        Blocking-model violation count — ``None`` when the engine did not
        enforce blocking (the counter was never maintained), mirroring
        :attr:`EngineMetrics.blocked_initiations`.
    telemetry:
        Optional per-round series (:class:`~repro.obs.telemetry.RunTelemetry`)
        recorded when the runner was asked for telemetry.  Excluded from
        equality so telemetry-on and telemetry-off runs of the same seed
        compare equal.
    """

    rounds: int
    complete: bool
    exchanges: int
    messages: int
    protocol: str
    informed_history: Optional[tuple[int, ...]] = None
    blocked_initiations: Optional[int] = None
    telemetry: Optional[RunTelemetry] = dataclasses.field(default=None, compare=False)

    def __str__(self) -> str:
        status = "complete" if self.complete else "INCOMPLETE"
        text = (
            f"{self.protocol}: {self.rounds} rounds ({status}), "
            f"{self.exchanges} exchanges, {self.messages} messages"
        )
        if self.blocked_initiations is not None:
            text += f", {self.blocked_initiations} blocked initiations"
        return text
