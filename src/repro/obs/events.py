"""Typed per-round engine events and their canonical JSONL serialization.

The engine (when built with a :class:`~repro.obs.recorder.Recorder`) emits
one event object per observable occurrence:

========== ==========================================================
kind       meaning
========== ==========================================================
initiate   a node initiated an exchange (possibly lost on the wire)
blocked    an initiation violated the blocking model (pre-raise)
rejected   an initiation was refused under bounded in-degree
deliver    an exchange delivered; both endpoints merged knowledge
void       an exchange delivered to a crashed responder (no effect)
wakeup     a delivery re-activated a parked (done) node
round      end-of-round summary: counts and in-flight backlog
========== ==========================================================

Events are plain frozen dataclasses — cheap to build, hashable, and
order-stable.  :func:`event_to_dict` plus a sorted, compact, ASCII
``json.dumps`` is the **canonical wire form** used by the golden-trace
regression suite and the ``repro trace --jsonl`` exporter: keys sorted,
compact separators, node identities rendered via :func:`node_key`.
:func:`event_to_json` is its compiled form — one generated formatter per
event class, byte-identical to the spec (``tests/test_obs_encoding.py``
pins that).  Any change to this format or to the engine's event semantics
makes the committed golden streams drift and fails the suite loudly —
which is the point.

Nothing here imports from :mod:`repro.sim`; the observability layer sits
below the engine so the engine can depend on it without cycles.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any, Callable, Hashable, Iterable, Union

__all__ = [
    "Event",
    "InitiationEvent",
    "BlockedInitiationEvent",
    "RejectedInitiationEvent",
    "DeliveryEvent",
    "VoidExchangeEvent",
    "WakeupEvent",
    "RoundEvent",
    "ATTEMPT_KINDS",
    "node_key",
    "event_to_dict",
    "event_to_json",
    "events_to_jsonl",
]

#: Anything a :class:`~repro.graphs.latency_graph.LatencyGraph` uses as a
#: node identity (kept loose on purpose — no import from the graphs layer).
NodeId = Hashable


def node_key(node: NodeId) -> Union[int, str]:
    """A JSON-safe, deterministic identity for a node.

    Integers and strings pass through — bools too, being ints, so they
    serialize as ``true`` / ``false``; any other hashable (tuples, frozen
    dataclasses, ...) is rendered via ``repr``, which the library keeps
    deterministic (node reprs are part of per-node RNG seeding already).
    """
    if isinstance(node, (int, str)):
        return node
    return repr(node)


@dataclasses.dataclass(frozen=True)
class Event:
    """Base class: every event carries the round it happened in."""

    round: int

    #: Stable wire-format discriminator; overridden per subclass.
    kind = "event"


@dataclasses.dataclass(frozen=True)
class InitiationEvent(Event):
    """A node initiated an exchange this round.

    ``lost`` marks exchanges the failure model dropped on the wire (the
    initiator never hears back); ``ping`` marks payload-free probes
    (protocols with ``sends_payload = False``).
    """

    initiator: NodeId
    responder: NodeId
    latency: int
    ping: bool = False
    lost: bool = False

    kind = "initiate"


@dataclasses.dataclass(frozen=True)
class BlockedInitiationEvent(Event):
    """An initiation that violated ``enforce_blocking`` (emitted pre-raise)."""

    initiator: NodeId
    responder: NodeId

    kind = "blocked"


@dataclasses.dataclass(frozen=True)
class RejectedInitiationEvent(Event):
    """An initiation refused because the responder's in-degree cap was hit."""

    initiator: NodeId
    responder: NodeId

    kind = "rejected"


@dataclasses.dataclass(frozen=True)
class DeliveryEvent(Event):
    """An exchange delivered and both live endpoints merged knowledge.

    ``learned_by_initiator`` / ``learned_by_responder`` are the coverage
    deltas: how many rumors each endpoint learned from this delivery
    (0 when nothing new arrived; initiator delta is 0 when it crashed).
    """

    initiator: NodeId
    responder: NodeId
    initiated_at: int
    ping: bool = False
    initiator_alive: bool = True
    learned_by_initiator: int = 0
    learned_by_responder: int = 0

    kind = "deliver"


@dataclasses.dataclass(frozen=True)
class VoidExchangeEvent(Event):
    """An exchange that arrived at a crashed responder: no merge happened."""

    initiator: NodeId
    responder: NodeId
    initiated_at: int

    kind = "void"


@dataclasses.dataclass(frozen=True)
class WakeupEvent(Event):
    """A delivery re-activated a node the scheduler had parked as done."""

    node: NodeId

    kind = "wakeup"


@dataclasses.dataclass(frozen=True)
class RoundEvent(Event):
    """End-of-round summary emitted once per :meth:`Engine.step`.

    ``in_flight`` is the backlog *after* this round's deliveries and
    initiations — the series behind the in-flight histogram.
    """

    initiations: int
    deliveries: int
    in_flight: int

    kind = "round"


#: The kinds that are one initiation attempt of their ``initiator``.
ATTEMPT_KINDS = frozenset({"initiate", "blocked", "rejected"})

_NODE_FIELDS = ("initiator", "responder", "node", "peer")


def event_to_dict(event: Event) -> dict[str, Any]:
    """The canonical dict form: ``kind`` plus the event's fields.

    Node-valued fields go through :func:`node_key`; everything else is
    already JSON-native (ints / bools).
    """
    record: dict[str, Any] = {"kind": event.kind}
    for field in dataclasses.fields(event):
        value = getattr(event, field.name)
        if field.name in _NODE_FIELDS:
            value = node_key(value)
        record[field.name] = value
    return record


def _value_json(value: Any) -> str:
    """One value as the spec's ``json.dumps`` renders it."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"), ensure_ascii=True)


#: Generated formatters by event class (filled on first use).
_FORMATTERS: dict[type, Callable[[Event], str]] = {}


def _compile_formatter(cls: type) -> Callable[[Event], str]:
    """Generate the one-line JSON formatter of an event class.

    The sorted key order (``kind`` included) and the key text are baked
    into a ``%``-template once; per event the formatter only reads the
    fields and renders each value the way :func:`event_to_dict` plus
    ``json.dumps`` would — bools and plain ints inline, node fields
    through :func:`node_key`, everything else through :func:`_value_json`.
    """
    fields = {field.name for field in dataclasses.fields(cls)}
    kind = cls.kind
    keys, reads, renders = [], [], []
    for i, name in enumerate(sorted(fields | {"kind"})):
        keys.append(json.dumps(name, ensure_ascii=True).replace("%", "%%") + ":%s")
        # Reading ``event.kind`` keeps a ``kind`` field's override, as in the spec.
        reads.append(f"    v{i} = event.{name}")
        value = f"_node_key(v{i})" if name in _NODE_FIELDS else f"v{i}"
        render = (
            f'"true" if v{i} is True else "false" if v{i} is False'
            f" else _int_repr(v{i}) if v{i}.__class__ is _int else _value_json({value})"
        )
        if name not in fields:
            # The class discriminator: its text is rendered once, here.
            render = f"_kind_text if v{i} is _kind else {render}"
        renders.append(render)
    source = "def format_event(event):\n{}\n    return _template % ({},)\n".format(
        "\n".join(reads), ", ".join(renders)
    )
    namespace = {
        "_template": "{" + ",".join(keys) + "}",
        "_int": int,
        "_int_repr": int.__repr__,
        "_node_key": node_key,
        "_value_json": _value_json,
        "_kind": kind,
        "_kind_text": _value_json(kind),
    }
    exec(source, namespace)
    return namespace["format_event"]


def event_to_json(event: Event) -> str:
    """One canonical JSON line: sorted keys, compact separators, ASCII.

    Byte-identical to ``json.dumps(event_to_dict(event), sort_keys=True,
    separators=(",", ":"), ensure_ascii=True)``, through the event class's
    generated formatter (built on first use, so any ``Event`` subclass
    works without registration).
    """
    formatter = _FORMATTERS.get(event.__class__)
    if formatter is None:
        formatter = _FORMATTERS[event.__class__] = _compile_formatter(event.__class__)
    return formatter(event)


def events_to_jsonl(events: Iterable[Event]) -> str:
    """The canonical JSONL stream (one event per line, trailing newline).

    This is the byte format the golden-trace suite commits and compares;
    it must stay deterministic for a fixed engine history.
    """
    lines = [event_to_json(event) for event in events]
    return "\n".join(lines) + ("\n" if lines else "")
