"""Trace replay: the determinism oracle.

The engine's typed event stream (:mod:`repro.obs`, recorded with
:meth:`Recorder.in_memory() <repro.obs.recorder.Recorder.in_memory>`)
captures *what* a run did: every initiation attempt, every delivery with
both endpoints' learned-rumor deltas, void exchanges and the per-round
summaries.  :func:`replay` re-executes exactly that initiation schedule on
a fresh engine — no protocol logic, no RNG — and asserts the re-run emits
the identical stream and (optionally) bit-identical
:class:`~repro.sim.metrics.EngineMetrics`.  Because the engine is supposed
to be a deterministic function of the initiation schedule and the initial
state, any divergence means hidden nondeterminism or order-dependence
crept into the engine — the class of bug that silently invalidates every
seed-averaged experiment table.  The deliveries' learned-rumor deltas make
the oracle see knowledge too: a replay from the wrong initial state
diverges at its first delivery that merges differently.

:func:`record_and_replay` packages the full oracle: run a protocol once
(recorded), replay the stream, compare.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Iterable, Optional

from repro.errors import SimulationError
from repro.graphs.latency_graph import LatencyGraph, Node
from repro.obs.events import ATTEMPT_KINDS, Event
from repro.obs.recorder import Recorder
from repro.obs.traces import Trace, diff_traces
from repro.sim.engine import Engine, NodeContext, NodeProtocol, ProtocolFactory
from repro.sim.metrics import EngineMetrics
from repro.sim.state import VectorState

__all__ = ["ReplayReport", "ScheduledProtocol", "replay", "record_and_replay"]


class ScheduledProtocol(NodeProtocol):
    """Replays one node's recorded initiations verbatim, round by round.

    ``schedule`` maps a round to ``(target, ping)``; ``ping`` sets
    ``sends_payload`` for that initiation, as the recorded protocol did.
    """

    def __init__(self, schedule: dict[int, tuple[Node, bool]]) -> None:
        self._schedule = schedule
        self.sends_payload = True

    def on_round(self, ctx: NodeContext) -> Optional[Node]:
        entry = self._schedule.get(ctx.round)
        if entry is None:
            return None
        target, ping = entry
        self.sends_payload = not ping
        return target


@dataclasses.dataclass(frozen=True)
class ReplayReport:
    """Outcome of a replay: the re-run's metrics and event stream."""

    rounds: int
    metrics: EngineMetrics
    events: tuple[Event, ...]


def _schedules(events: list[Event]) -> dict[Node, dict[int, tuple[Node, bool]]]:
    schedules: dict[Node, dict[int, tuple[Node, bool]]] = {}
    for event in events:
        if event.kind not in ATTEMPT_KINDS:
            continue
        per_round = schedules.setdefault(event.initiator, {})
        if event.round in per_round:
            raise SimulationError(
                f"trace has two initiations by {event.initiator!r} in round "
                f"{event.round}; cannot replay an invalid trace"
            )
        per_round[event.round] = (event.responder, getattr(event, "ping", False))
    return schedules


def _incoming_cap(events: list[Event]) -> Optional[int]:
    """The run's ``max_incoming_per_round``, read off its first rejection.

    The engine rejects an initiation exactly when its responder has
    already accepted ``cap`` initiations this round, each recorded as an
    ``initiate`` event before the ``rejected`` one.  ``None``: no
    initiation was rejected, so the run needs no cap to replay.
    """
    accepted: dict[tuple[int, Node], int] = {}
    for event in events:
        if event.kind == "initiate":
            key = (event.round, event.responder)
            accepted[key] = accepted.get(key, 0) + 1
        elif event.kind == "rejected":
            return accepted.get((event.round, event.responder), 0)
    return None


def _without_wakeups(events: Iterable[Event]) -> Trace:
    # Wakeups follow the recorded protocol's is_done, not the engine: a
    # scheduled protocol is never done, so its replay parks no node.
    return Trace.from_events(event for event in events if event.kind != "wakeup")


def replay(
    events: Iterable[Event],
    graph: LatencyGraph,
    rounds: int,
    state: Optional[VectorState] = None,
    latencies_known: bool = False,
    fresh_snapshots: bool = False,
    expected_metrics: Optional[EngineMetrics] = None,
) -> ReplayReport:
    """Re-execute a recorded event stream and assert the engine reproduces it.

    Parameters
    ----------
    events:
        The obs events of the original run, in record order.  Its
        ``initiate``, ``rejected`` and ``blocked`` events are the schedule
        (``ping`` initiations replay as pings); a ``rejected`` event also
        fixes the run's in-degree cap.
    graph:
        The same network the original run used.
    rounds:
        How many rounds the original run executed (replay runs exactly as
        many).
    state:
        Initial knowledge, seeded exactly as the original run seeded it.
    expected_metrics:
        When given, the replayed engine's metrics must equal these
        bit-for-bit.

    Raises
    ------
    SimulationError
        If the replayed event stream (``wakeup`` events aside) or metrics
        differ from the recording — i.e. the engine is not a deterministic
        function of the schedule and the initial state.
    """
    events = list(events)
    schedules = _schedules(events)
    recorder = Recorder.in_memory()
    engine = Engine(
        graph,
        lambda node: ScheduledProtocol(schedules.get(node, {})),
        state=state,
        latencies_known=latencies_known,
        fresh_snapshots=fresh_snapshots,
        max_incoming_per_round=_incoming_cap(events),
        recorder=recorder,
    )
    for _ in range(rounds):
        engine.step()
    replayed = recorder.events
    diff = diff_traces(_without_wakeups(events), _without_wakeups(replayed))
    if diff is not None:
        raise SimulationError(
            "replay diverged (a: recorded, b: replayed): " + diff.describe()
        )
    if expected_metrics is not None and engine.metrics != expected_metrics:
        raise SimulationError(
            f"replay metrics diverged:\n  recorded {expected_metrics}\n  "
            f"replayed {engine.metrics}"
        )
    return ReplayReport(
        rounds=engine.round,
        metrics=engine.metrics,
        events=tuple(replayed),
    )


def record_and_replay(
    graph: LatencyGraph,
    make_factory: Callable[[], ProtocolFactory],
    make_state: Optional[Callable[[], VectorState]] = None,
    predicate: Optional[Callable[[Engine], bool]] = None,
    latencies_known: bool = False,
    fresh_snapshots: bool = False,
    max_rounds: int = 100_000,
) -> ReplayReport:
    """Run a protocol once, then replay its event stream: the one-call oracle.

    The protocol run is driven until ``predicate`` (default: every node
    done); the recorded schedule is then re-executed from an identically
    built initial state and must reproduce the exact event stream and
    metrics.
    """
    recorder = Recorder.in_memory()
    state = make_state() if make_state is not None else VectorState(graph.nodes())
    engine = Engine(
        graph,
        make_factory(),
        state=state,
        latencies_known=latencies_known,
        fresh_snapshots=fresh_snapshots,
        recorder=recorder,
    )
    predicate = predicate if predicate is not None else (lambda e: e.all_done())
    while not predicate(engine):
        if engine.round >= max_rounds:
            raise SimulationError(
                f"record_and_replay exceeded max_rounds={max_rounds}"
            )
        engine.step()
    replay_state = (
        make_state() if make_state is not None else VectorState(graph.nodes())
    )
    return replay(
        recorder.events,
        graph,
        rounds=engine.round,
        state=replay_state,
        latencies_known=latencies_known,
        fresh_snapshots=fresh_snapshots,
        expected_metrics=engine.metrics,
    )
