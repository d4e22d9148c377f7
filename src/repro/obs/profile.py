"""Wall-clock profiling spans, aggregated across processes.

Usage::

    from repro import obs

    with obs.span("dijkstra"):
        distances = graph.weighted_distances(source)

Every span accumulates ``(count, total seconds, max seconds)`` into a
process-global registry, read back with :func:`span_aggregates`.  Spans
are always on: one ``perf_counter`` pair and a dict update per enter/exit
(~1 µs), so they belong on coarse operations — a Dijkstra, a spanner
build, a conductance sweep, one experiment trial, or one whole-round
array stage of the vector engine (``vector.build`` once per engine,
``vector.partner_draw`` and ``vector.deliver`` once per round — the
latter also once per block round of a streamed all-to-all, which runs
the same delivery stage; a round there costs milliseconds at the sizes
it is built for).  Never put one inside the
scalar engine's per-node or per-exchange loop: that one uses the event
:class:`~repro.obs.recorder.Recorder` instead, which *is* gated.

Cross-process merging: ``map_trials`` workers are separate processes with
their own registries, so the harness snapshots the registry around each
trial (:func:`span_snapshot` / :func:`spans_since`), ships the per-trial
delta back with the result, and merges it into the parent with
:func:`merge_spans`.  Counts add, totals add, maxima take the max — so a
``REPRO_JOBS=2`` run reports the same span *counts* as a serial run.
"""

from __future__ import annotations

import time
from typing import Dict, Tuple

__all__ = [
    "span",
    "span_aggregates",
    "span_snapshot",
    "spans_since",
    "spans_from_wire",
    "spans_to_wire",
    "merge_spans",
    "reset_spans",
]

#: name -> [count, total_seconds, max_seconds]
_REGISTRY: Dict[str, list] = {}

SpanSnapshot = Dict[str, Tuple[int, float, float]]


class span:
    """Context manager timing one named operation into the registry."""

    __slots__ = ("name", "_start", "seconds")

    def __init__(self, name: str) -> None:
        self.name = name
        self._start = 0.0
        #: Duration of the last completed enter/exit, for ad-hoc callers.
        self.seconds = 0.0

    def __enter__(self) -> "span":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        elapsed = time.perf_counter() - self._start
        self.seconds = elapsed
        entry = _REGISTRY.get(self.name)
        if entry is None:
            _REGISTRY[self.name] = [1, elapsed, elapsed]
        else:
            entry[0] += 1
            entry[1] += elapsed
            if elapsed > entry[2]:
                entry[2] = elapsed


def span_aggregates() -> dict[str, dict[str, float]]:
    """``{name: {count, seconds, max_seconds, mean_seconds}}`` so far."""
    out = {}
    for name, (count, total, maximum) in sorted(_REGISTRY.items()):
        out[name] = {
            "count": count,
            "seconds": total,
            "max_seconds": maximum,
            "mean_seconds": total / count if count else 0.0,
        }
    return out


def span_snapshot() -> SpanSnapshot:
    """An immutable copy of the registry (for :func:`spans_since`)."""
    return {name: (c, t, m) for name, (c, t, m) in _REGISTRY.items()}


def spans_since(snapshot: SpanSnapshot) -> SpanSnapshot:
    """The registry delta since ``snapshot`` (new counts/seconds only).

    The returned mapping is suitable for :func:`merge_spans` in another
    process — this is how worker telemetry travels home from the pool.
    """
    delta: SpanSnapshot = {}
    for name, (count, total, maximum) in _REGISTRY.items():
        base = snapshot.get(name)
        if base is None:
            delta[name] = (count, total, maximum)
        elif count > base[0]:
            # Max over the window is unknowable from endpoints alone; the
            # whole-run max is a safe, conservative stand-in.
            delta[name] = (count - base[0], total - base[1], maximum)
    return delta


def merge_spans(delta: SpanSnapshot) -> None:
    """Fold another process's span delta into this registry."""
    for name, (count, total, maximum) in delta.items():
        entry = _REGISTRY.get(name)
        if entry is None:
            _REGISTRY[name] = [count, total, maximum]
        else:
            entry[0] += count
            entry[1] += total
            if maximum > entry[2]:
                entry[2] = maximum


def spans_to_wire(delta: SpanSnapshot) -> Dict[str, list]:
    """A span delta in JSON-native wire form (``{name: [count, s, max]}``).

    Mirrors :func:`repro.obs.metrics.delta_to_wire`: span deltas already
    use string keys, so only the value tuples need flattening for JSON
    transports (the sweep shard store, CI artifacts).
    """
    return {name: [count, total, maximum] for name, (count, total, maximum) in delta.items()}


def spans_from_wire(wire: Dict[str, list]) -> SpanSnapshot:
    """Rebuild a :func:`merge_spans`-ready delta from wire form."""
    return {
        name: (int(cell[0]), float(cell[1]), float(cell[2]))
        for name, cell in wire.items()
    }


def reset_spans() -> None:
    """Clear the registry (tests and the ``repro profile`` command)."""
    _REGISTRY.clear()
