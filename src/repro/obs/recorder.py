"""The :class:`Recorder` and its pluggable event sinks.

The engine takes an optional recorder; when neither a recorder nor an
invariant checker is attached (the default) the hot path pays exactly one
``is None`` check per instrumentation site, so recording is zero-cost
when disabled.  When present, every event is fanned out to the
recorder's sinks:

* :class:`MemorySink` — unbounded in-process list (tests, ``repro trace``);
* :class:`RingBufferSink` — fixed-capacity deque keeping the most recent
  events (long runs where only the tail matters);
* :class:`JsonlSink` — streams the canonical JSONL form to a file (the
  golden-trace format).

:class:`~repro.obs.metrics.MetricsSink` aggregates the stream into a
metrics registry without retaining events.  The model-invariant checkers
(:class:`~repro.sim.invariants.InvariantChecker`) are sinks too: with
checkers attached the engine hands each event to its recorder (if any),
then to a :class:`RingBufferSink` that keeps the excerpt a violation
message shows, then to each checker.

Sinks are intentionally tiny: anything with ``write(event)`` (and an
optional ``close()``) qualifies, so experiment-specific sinks can be
plugged in without touching the engine.
"""

from __future__ import annotations

import collections
import io
import pathlib
from typing import Iterable, Optional, Protocol, Union, runtime_checkable

from repro.obs.events import Event, event_to_json, events_to_jsonl

__all__ = [
    "Sink",
    "MemorySink",
    "RingBufferSink",
    "JsonlSink",
    "Recorder",
    "replay_into",
]


@runtime_checkable
class Sink(Protocol):
    """Anything that can consume engine events."""

    def write(self, event: Event) -> None:  # pragma: no cover - protocol
        ...


class MemorySink:
    """Keeps every event in an in-process list."""

    def __init__(self) -> None:
        self.events: list[Event] = []

    def write(self, event: Event) -> None:
        self.events.append(event)

    def to_jsonl(self) -> str:
        """The canonical JSONL stream of everything recorded so far."""
        return events_to_jsonl(self.events)


class RingBufferSink:
    """Keeps only the most recent ``capacity`` events."""

    def __init__(self, capacity: int = 1024) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._buffer: collections.deque[Event] = collections.deque(maxlen=capacity)

    def write(self, event: Event) -> None:
        self._buffer.append(event)

    @property
    def events(self) -> list[Event]:
        """The retained tail, oldest first."""
        return list(self._buffer)


class JsonlSink:
    """Streams canonical JSONL lines to a path or writable text file."""

    def __init__(self, target: Union[str, pathlib.Path, io.TextIOBase]) -> None:
        if isinstance(target, (str, pathlib.Path)):
            self._file = open(target, "w", encoding="utf-8")
            self._owns_file = True
        else:
            self._file = target
            self._owns_file = False
        self._closed = False
        self.lines_written = 0

    def write(self, event: Event) -> None:
        self._file.write(event_to_json(event) + "\n")
        self.lines_written += 1

    def close(self) -> None:
        """Idempotent: safe to call repeatedly, and safe when the
        underlying file was already closed elsewhere (the common
        double-close is ``Recorder.__exit__`` followed by an explicit
        ``close()``)."""
        if self._closed:
            return
        self._closed = True
        if self._owns_file:
            self._file.close()
        elif not self._file.closed:
            self._file.flush()


class Recorder:
    """Fans engine events out to one or more sinks.

    The engine guards every call site with one ``is None`` check, so
    building events (and this fan-out) only happens when a recorder or a
    checker was actually attached.
    """

    def __init__(self, *sinks: Sink) -> None:
        self._sinks: tuple[Sink, ...] = tuple(sinks)
        self.events_recorded = 0

    # -- constructors ----------------------------------------------------
    @classmethod
    def in_memory(cls) -> "Recorder":
        """A recorder with a single :class:`MemorySink`."""
        return cls(MemorySink())

    @classmethod
    def ring(cls, capacity: int = 1024) -> "Recorder":
        """A recorder with a single :class:`RingBufferSink`."""
        return cls(RingBufferSink(capacity))

    @classmethod
    def to_jsonl(cls, target: Union[str, pathlib.Path, io.TextIOBase]) -> "Recorder":
        """A recorder streaming canonical JSONL to ``target``."""
        return cls(JsonlSink(target))

    # -- recording -------------------------------------------------------
    def record(self, event: Event) -> None:
        """Hand one event to every sink."""
        self.events_recorded += 1
        for sink in self._sinks:
            sink.write(event)

    def close(self) -> None:
        """Close every sink that supports closing (flush JSONL files)."""
        for sink in self._sinks:
            close = getattr(sink, "close", None)
            if close is not None:
                close()

    # -- queries ---------------------------------------------------------
    @property
    def sinks(self) -> tuple[Sink, ...]:
        return self._sinks

    def sink(self, sink_type: type) -> Optional[Sink]:
        """The first attached sink of ``sink_type`` (or ``None``)."""
        for sink in self._sinks:
            if isinstance(sink, sink_type):
                return sink
        return None

    @property
    def events(self) -> list[Event]:
        """Events retained by the first memory/ring sink (``[]`` if none)."""
        for sink in self._sinks:
            events = getattr(sink, "events", None)
            if events is not None:
                return list(events)
        return []

    def events_of(self, kind: str) -> list[Event]:
        """Retained events of one kind, in record order."""
        return [event for event in self.events if event.kind == kind]

    def __enter__(self) -> "Recorder":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def replay_into(events: Iterable[Event], *sinks: Sink) -> None:
    """Feed an already-recorded stream through more sinks (offline analysis)."""
    for event in events:
        for sink in sinks:
            sink.write(event)
