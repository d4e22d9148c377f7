"""Process-local metrics registry: Counters, Gauges, Histograms with labels.

This is the exported-metrics tier of ``repro.obs``: where spans
(:mod:`repro.obs.profile`) answer "where did the wall clock go", metrics
answer "how much work of each kind happened" — and, unlike spans, they
are **deterministic** under seeded runs because nothing here ever reads a
clock.  A serial run and a ``REPRO_JOBS=2`` run of the same experiment
therefore report *identical* metric values, which the merge test pins.

Design points (deliberately Prometheus-shaped, but dependency-free):

* A :class:`MetricsRegistry` owns named metrics; each metric holds one
  numeric cell per label set.  Metric and label names are validated
  against the Prometheus grammar so :meth:`MetricsRegistry.exposition`
  output is directly scrapeable.
* :class:`Counter` cells only go up; :class:`Gauge` cells are set/inc'd;
  :class:`Histogram` cells accumulate fixed-bucket counts plus
  sum/count.  Bucket bounds are frozen at creation — cross-process
  merging requires all parties to agree on them.
* **Merging** mirrors ``obs.profile`` spans: workers snapshot the
  registry around each trial (:func:`metrics_snapshot` /
  :func:`metrics_since`), ship the delta home, and the parent folds it in
  with :func:`merge_metrics`.  Counters and histogram cells add; gauges
  take the maximum (the only associative, order-free choice that is also
  what every current gauge — a peak backlog — wants).
* The engine hot path is wired through the existing zero-cost recorder
  pattern: :class:`MetricsSink` is an event sink, so per-event metrics
  cost nothing unless a :class:`~repro.obs.recorder.Recorder` carrying
  one is attached.  Coarse per-run counters (runs, rounds, exchanges)
  are bumped once per run by :func:`repro.sim.runner.run_until_complete`.

Like the span registry, the default registry is process-global state; it
never influences simulation results (the recorder-equivalence suite
covers the sink) and :func:`reset_metrics` clears it for tests.
"""

from __future__ import annotations

import bisect
import itertools
import json
import re
from typing import Any, Iterable, Mapping, Optional, Union

from repro.errors import ObservabilityError
from repro.obs.events import (
    DeliveryEvent,
    Event,
    InitiationEvent,
    RoundEvent,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsSink",
    "default_registry",
    "delta_from_wire",
    "delta_to_wire",
    "merge_metrics",
    "metrics_since",
    "metrics_snapshot",
    "reset_metrics",
]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Default histogram buckets: powers of two suit round-valued quantities
#: (delivery latencies, backlogs) far better than Prometheus's decimal
#: defaults, and small-int workloads land in distinct buckets.
DEFAULT_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)

#: A label set in canonical form: name-sorted ``(name, value)`` pairs.
LabelKey = tuple

#: Process-monotonic stamp source for gauge touch tracking.
_GAUGE_TOUCH = itertools.count(1)
Number = Union[int, float]


def _label_key(labels: Mapping[str, Any]) -> LabelKey:
    for name in labels:
        if not _LABEL_RE.match(name):
            raise ObservabilityError(f"invalid label name {name!r}")
    return tuple(sorted((name, str(value)) for name, value in labels.items()))


def _format_number(value: Number) -> str:
    """Exposition-format a number: integral floats render as integers."""
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


def _render_labels(key: LabelKey, extra: tuple = ()) -> str:
    pairs = list(key) + list(extra)
    if not pairs:
        return ""
    body = ",".join(f'{name}="{value}"' for name, value in pairs)
    return "{" + body + "}"


class _Metric:
    """Shared plumbing: one numeric (or histogram) cell per label set."""

    type_name = "untyped"

    def __init__(self, name: str, help: str = "") -> None:
        if not _NAME_RE.match(name):
            raise ObservabilityError(f"invalid metric name {name!r}")
        self.name = name
        self.help = help
        self._cells: dict[LabelKey, Any] = {}

    def label_sets(self) -> list[LabelKey]:
        """Every label set with a live cell, in canonical (sorted) order."""
        return sorted(self._cells)


class Counter(_Metric):
    """A monotonically increasing count (events, exchanges, cache hits)."""

    type_name = "counter"

    def inc(self, amount: Number = 1, **labels: Any) -> None:
        """Add ``amount`` (>= 0) to the cell for ``labels``."""
        if amount < 0:
            raise ObservabilityError(
                f"counter {self.name} cannot decrease (inc by {amount})"
            )
        key = _label_key(labels)
        self._cells[key] = self._cells.get(key, 0) + amount

    def value(self, **labels: Any) -> Number:
        """Current value of one cell (0 if never incremented)."""
        return self._cells.get(_label_key(labels), 0)


class Gauge(_Metric):
    """A value that can go up and down (peaks, sizes, last-seen values).

    Every write also records a process-monotonic *touch stamp* per cell,
    so :meth:`MetricsRegistry.since` can tell "written during the
    window" apart from "left over from before" — a gauge re-set to the
    same value is still work done since the snapshot, while an untouched
    cell in a long-lived pool worker must not leak into later deltas.

    Running-peak cells (written by :meth:`set_max`) also remember enough
    of their write history to answer "the peak written after stamp
    ``s``" (:meth:`peak_since`), so a window's delta reports the peak
    reached *inside* the window, not a larger one left from before it.
    """

    type_name = "gauge"

    def __init__(self, name: str, help: str = "") -> None:
        super().__init__(name, help)
        self._stamps: dict[LabelKey, int] = {}
        #: Per running-peak cell, the ``(stamp, value)`` writes no later
        #: write has matched or exceeded: values strictly decrease as
        #: stamps grow, so the first entry past a stamp is the peak since.
        self._peaks: dict[LabelKey, list[tuple[int, Number]]] = {}

    def _touch(self, key: LabelKey) -> int:
        stamp = self._stamps[key] = next(_GAUGE_TOUCH)
        return stamp

    def set(self, value: Number, **labels: Any) -> None:
        key = _label_key(labels)
        self._cells[key] = value
        self._touch(key)
        self._peaks.pop(key, None)

    def inc(self, amount: Number = 1, **labels: Any) -> None:
        key = _label_key(labels)
        self._cells[key] = self._cells.get(key, 0) + amount
        self._touch(key)
        self._peaks.pop(key, None)

    def dec(self, amount: Number = 1, **labels: Any) -> None:
        self.inc(-amount, **labels)

    def set_max(self, value: Number, **labels: Any) -> None:
        """Raise the cell to ``value`` if larger (running-peak gauges)."""
        self._raise(_label_key(labels), value)

    def _raise(self, key: LabelKey, value: Number) -> None:
        if key not in self._cells or value > self._cells[key]:
            self._cells[key] = value
        stamp = self._touch(key)
        peaks = self._peaks.setdefault(key, [])
        while peaks and peaks[-1][1] <= value:
            peaks.pop()
        peaks.append((stamp, value))

    def value(self, **labels: Any) -> Number:
        return self._cells.get(_label_key(labels), 0)

    def peak_since(self, key: LabelKey, stamp: int) -> Optional[Number]:
        """The largest :meth:`set_max` value written to cell ``key`` after
        touch stamp ``stamp`` — ``None`` when there is none, or when a
        plain ``set``/``inc`` since made the cell a point reading again."""
        peaks = self._peaks.get(key, ())
        i = bisect.bisect_right(peaks, stamp, key=lambda entry: entry[0])
        return peaks[i][1] if i < len(peaks) else None


class Histogram(_Metric):
    """Fixed-bucket distribution: per-bucket counts plus sum and count.

    Buckets are upper bounds (``le`` semantics); an implicit ``+Inf``
    bucket catches the tail.  Cell state is ``[counts..., sum, count]``
    where ``counts`` has ``len(buckets) + 1`` entries.
    """

    type_name = "histogram"

    def __init__(
        self, name: str, help: str = "", buckets: Iterable[Number] = DEFAULT_BUCKETS
    ) -> None:
        super().__init__(name, help)
        bounds = tuple(float(b) for b in buckets)
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise ObservabilityError(
                f"histogram {name} buckets must be non-empty, sorted, unique: "
                f"{bounds}"
            )
        self.buckets = bounds

    def observe(self, value: Number, **labels: Any) -> None:
        key = _label_key(labels)
        cell = self._cells.get(key)
        if cell is None:
            cell = self._cells[key] = [0] * (len(self.buckets) + 1) + [0.0, 0]
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                cell[i] += 1
                break
        else:
            cell[len(self.buckets)] += 1
        cell[-2] += value
        cell[-1] += 1

    def snapshot_cell(self, **labels: Any) -> dict[str, Any]:
        """One cell as ``{"buckets": [...], "sum": s, "count": n}``."""
        cell = self._cells.get(_label_key(labels))
        if cell is None:
            return {"buckets": [0] * (len(self.buckets) + 1), "sum": 0.0, "count": 0}
        return {"buckets": list(cell[:-2]), "sum": cell[-2], "count": cell[-1]}

    def count(self, **labels: Any) -> int:
        cell = self._cells.get(_label_key(labels))
        return 0 if cell is None else cell[-1]

    def sum(self, **labels: Any) -> float:
        cell = self._cells.get(_label_key(labels))
        return 0.0 if cell is None else cell[-2]


class MetricsRegistry:
    """A named collection of metrics with canonical dump/exposition forms.

    ``counter`` / ``gauge`` / ``histogram`` are get-or-create: asking for
    an existing name returns the existing metric (so call sites never
    coordinate creation), but asking with a conflicting type — or, for
    histograms, conflicting buckets — raises.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, _Metric] = {}

    def _get_or_create(self, cls, name: str, help: str, **kwargs) -> Any:
        existing = self._metrics.get(name)
        if existing is not None:
            if type(existing) is not cls:
                raise ObservabilityError(
                    f"metric {name!r} already registered as "
                    f"{existing.type_name}, not {cls.type_name}"
                )
            if cls is Histogram and kwargs.get("buckets") is not None:
                if tuple(float(b) for b in kwargs["buckets"]) != existing.buckets:
                    raise ObservabilityError(
                        f"histogram {name!r} already registered with buckets "
                        f"{existing.buckets}"
                    )
            return existing
        metric = cls(name, help, **{k: v for k, v in kwargs.items() if v is not None})
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help)

    def histogram(
        self, name: str, help: str = "", buckets: Optional[Iterable[Number]] = None
    ) -> Histogram:
        return self._get_or_create(Histogram, name, help, buckets=buckets)

    def metric(self, name: str) -> Optional[_Metric]:
        """The registered metric of that name, or ``None``."""
        return self._metrics.get(name)

    def names(self) -> list[str]:
        return sorted(self._metrics)

    # -- canonical dump ------------------------------------------------
    def collect(self) -> dict[str, Any]:
        """The whole registry as a canonical, JSON-native dict.

        Shape: ``{name: {"type", "help", "values": [{"labels", ...}]}}``
        with names and label sets sorted — the same bytes for the same
        counts, regardless of insertion order.  Histograms additionally
        carry their bucket bounds so dumps are self-describing.
        """
        out: dict[str, Any] = {}
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            entry: dict[str, Any] = {"type": metric.type_name, "help": metric.help}
            if isinstance(metric, Histogram):
                entry["buckets"] = list(metric.buckets)
            values = []
            for key in metric.label_sets():
                labels = {k: v for k, v in key}
                if isinstance(metric, Histogram):
                    cell = metric._cells[key]
                    values.append(
                        {
                            "labels": labels,
                            "bucket_counts": list(cell[:-2]),
                            "sum": cell[-2],
                            "count": cell[-1],
                        }
                    )
                else:
                    values.append({"labels": labels, "value": metric._cells[key]})
            entry["values"] = values
            out[name] = entry
        return out

    def to_json(self) -> str:
        """Canonical JSON dump: sorted keys, compact separators, ASCII."""
        return json.dumps(
            self.collect(), sort_keys=True, separators=(",", ":"), ensure_ascii=True
        )

    def exposition(self) -> str:
        """Prometheus text exposition format (version 0.0.4)."""
        lines: list[str] = []
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            if metric.help:
                lines.append(f"# HELP {name} {metric.help}")
            lines.append(f"# TYPE {name} {metric.type_name}")
            for key in metric.label_sets():
                if isinstance(metric, Histogram):
                    cell = metric._cells[key]
                    cumulative = 0
                    for bound, count in zip(metric.buckets, cell[:-2]):
                        cumulative += count
                        le = _render_labels(key, (("le", _format_number(bound)),))
                        lines.append(f"{name}_bucket{le} {cumulative}")
                    cumulative += cell[len(metric.buckets)]
                    inf = _render_labels(key, (("le", "+Inf"),))
                    lines.append(f"{name}_bucket{inf} {cumulative}")
                    lines.append(
                        f"{name}_sum{_render_labels(key)} {_format_number(cell[-2])}"
                    )
                    lines.append(f"{name}_count{_render_labels(key)} {cell[-1]}")
                else:
                    value = _format_number(metric._cells[key])
                    lines.append(f"{name}{_render_labels(key)} {value}")
        return "\n".join(lines) + ("\n" if lines else "")

    # -- cross-process merge (mirrors obs.profile spans) ----------------
    def snapshot(self) -> dict[str, Any]:
        """A picklable deep copy of all cells, for :meth:`since`."""
        snap: dict[str, Any] = {}
        for name, metric in self._metrics.items():
            cells = {
                key: (list(cell) if isinstance(cell, list) else cell)
                for key, cell in metric._cells.items()
            }
            entry: dict[str, Any] = {
                "type": metric.type_name,
                "help": metric.help,
                "cells": cells,
            }
            if isinstance(metric, Histogram):
                entry["buckets"] = metric.buckets
            if isinstance(metric, Gauge):
                entry["stamps"] = dict(metric._stamps)
            snap[name] = entry
        return snap

    def since(self, snapshot: Mapping[str, Any]) -> dict[str, Any]:
        """The registry delta since ``snapshot`` (new counts only).

        Counters and histogram cells subtract; gauges report their
        current value (a point-in-time reading has no meaningful
        difference) — or, for running-peak cells, the peak written since
        the snapshot — but only cells *touched* since the snapshot: an
        untouched gauge is not work done in the window, and long-lived
        pool workers would otherwise leak stale cells into every later
        delta.  Suitable for :func:`merge_metrics` in another process —
        how worker metrics travel home from the trial pool.
        """
        current = self.snapshot()
        delta: dict[str, Any] = {}
        for name, entry in current.items():
            base = snapshot.get(name, {"cells": {}})
            cells: dict[LabelKey, Any] = {}
            for key, cell in entry["cells"].items():
                before = base["cells"].get(key)
                if entry["type"] == "gauge":
                    stamp = entry.get("stamps", {}).get(key, 0)
                    base_stamp = base.get("stamps", {}).get(key, 0)
                    if before is None or stamp > base_stamp:
                        peak = self._metrics[name].peak_since(key, base_stamp)
                        cells[key] = cell if peak is None else peak
                elif entry["type"] == "histogram":
                    if before is None:
                        changed = list(cell)
                    else:
                        changed = [a - b for a, b in zip(cell, before)]
                    if changed[-1]:
                        cells[key] = changed
                else:
                    diff = cell - (before or 0)
                    if diff:
                        cells[key] = diff
            if cells:
                payload = {**entry, "cells": cells}
                # Touch stamps are process-local bookkeeping, not delta
                # content — the receiving registry re-stamps on merge.
                payload.pop("stamps", None)
                delta[name] = payload
        return delta

    def merge(self, delta: Mapping[str, Any]) -> None:
        """Fold another registry's delta into this one.

        Counters and histogram cells add; gauges take the maximum.
        Metrics unseen here are created with the delta's type/help (and
        buckets), so a parent learns worker-only metrics automatically.
        """
        for name, entry in delta.items():
            kind = entry["type"]
            if kind == "counter":
                metric = self.counter(name, entry.get("help", ""))
                for key, value in entry["cells"].items():
                    metric._cells[key] = metric._cells.get(key, 0) + value
            elif kind == "gauge":
                metric = self.gauge(name, entry.get("help", ""))
                for key, value in entry["cells"].items():
                    metric._raise(key, value)
            elif kind == "histogram":
                metric = self.histogram(
                    name, entry.get("help", ""), buckets=entry.get("buckets")
                )
                for key, cell in entry["cells"].items():
                    mine = metric._cells.get(key)
                    if mine is None:
                        metric._cells[key] = list(cell)
                    else:
                        for i, value in enumerate(cell):
                            mine[i] += value
            else:  # pragma: no cover - snapshots only carry known types
                raise ObservabilityError(f"unknown metric type {kind!r} in delta")

    def reset(self) -> None:
        """Drop every metric (tests and the report CLI)."""
        self._metrics.clear()


#: The process-global default registry, mirroring the span registry.
_DEFAULT = MetricsRegistry()


def default_registry() -> MetricsRegistry:
    """The process-global registry the library's own counters live in."""
    return _DEFAULT


def metrics_snapshot() -> dict[str, Any]:
    """Snapshot the default registry (see :meth:`MetricsRegistry.snapshot`)."""
    return _DEFAULT.snapshot()


def metrics_since(snapshot: Mapping[str, Any]) -> dict[str, Any]:
    """Delta of the default registry since ``snapshot``."""
    return _DEFAULT.since(snapshot)


def merge_metrics(delta: Mapping[str, Any]) -> None:
    """Fold a worker's delta into the default registry."""
    _DEFAULT.merge(delta)


def delta_to_wire(delta: Mapping[str, Any]) -> dict[str, Any]:
    """A :meth:`MetricsRegistry.since` delta in JSON-native wire form.

    ``since`` deltas key cells by label-pair *tuples*, which survive
    pickling but not JSON.  The wire form flattens each cell to
    ``[label_pairs, value]`` with every tuple replaced by a list, so a
    delta can ride any transport — the sweep shard store, a CI artifact,
    an HTTP body — and come back through :func:`delta_from_wire` ready
    for :func:`merge_metrics` on the other side.  Cells are emitted in
    canonical (sorted label key) order: same delta, same wire bytes.
    """
    wire: dict[str, Any] = {}
    for name, entry in delta.items():
        cells = [
            [
                [list(pair) for pair in key],
                list(cell) if isinstance(cell, list) else cell,
            ]
            for key, cell in sorted(entry["cells"].items())
        ]
        out: dict[str, Any] = {
            "type": entry["type"],
            "help": entry.get("help", ""),
            "cells": cells,
        }
        if "buckets" in entry:
            out["buckets"] = list(entry["buckets"])
        wire[name] = out
    return wire


def delta_from_wire(wire: Mapping[str, Any]) -> dict[str, Any]:
    """Rebuild a mergeable delta from :func:`delta_to_wire` output."""
    delta: dict[str, Any] = {}
    for name, entry in wire.items():
        cells: dict[LabelKey, Any] = {}
        for pairs, cell in entry["cells"]:
            key = tuple((str(label), str(value)) for label, value in pairs)
            cells[key] = list(cell) if isinstance(cell, list) else cell
        out: dict[str, Any] = {
            "type": entry["type"],
            "help": entry.get("help", ""),
            "cells": cells,
        }
        if "buckets" in entry:
            out["buckets"] = tuple(float(b) for b in entry["buckets"])
        delta[name] = out
    return delta


def reset_metrics() -> None:
    """Clear the default registry (tests and the report CLI)."""
    _DEFAULT.reset()


class MetricsSink:
    """An event sink updating a registry — the engine's metrics wiring.

    Attach it to a :class:`~repro.obs.recorder.Recorder` to export the
    event stream as metrics without retaining events.  The totals match
    the ones :class:`~repro.obs.traces.Trace` derives offline from the
    same events (property-tested):

    * ``engine_events_total{kind=...}`` — one increment per event;
    * ``engine_rumors_learned_total`` — both endpoints' coverage deltas;
    * ``engine_lost_initiations_total`` — wire losses;
    * ``engine_in_flight_peak`` — running peak end-of-round backlog;
    * ``engine_delivery_latency_rounds`` — histogram of observed
      delivery latencies (``delivered round - initiated_at``).
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self.registry = registry if registry is not None else default_registry()
        self._events = self.registry.counter(
            "engine_events_total", "engine events by kind"
        )
        self._rumors = self.registry.counter(
            "engine_rumors_learned_total", "rumors learned across all deliveries"
        )
        self._lost = self.registry.counter(
            "engine_lost_initiations_total", "initiations dropped on the wire"
        )
        self._peak = self.registry.gauge(
            "engine_in_flight_peak", "peak end-of-round in-flight backlog"
        )
        self._latency = self.registry.histogram(
            "engine_delivery_latency_rounds",
            "delivery latency in rounds (delivered - initiated)",
        )

    def write(self, event: Event) -> None:
        self._events.inc(kind=event.kind)
        if isinstance(event, DeliveryEvent):
            learned = event.learned_by_initiator + event.learned_by_responder
            if learned:
                self._rumors.inc(learned)
            self._latency.observe(event.round - event.initiated_at)
        elif isinstance(event, InitiationEvent):
            if event.lost:
                self._lost.inc()
        elif isinstance(event, RoundEvent):
            self._peak.set_max(event.in_flight)

    def counts_by_kind(self) -> dict[str, int]:
        """``engine_events_total`` as ``{kind: count}``, kind-sorted — the
        shape of :meth:`~repro.obs.traces.Trace.counts_by_kind`."""
        return {
            dict(labels)["kind"]: self._events.value(**dict(labels))
            for labels in self._events.label_sets()
        }
