"""Trace analytics: query, derive from, and diff recorded event streams.

PR 4 made the engine *emit* canonical JSONL event streams (the golden
files, ``JsonlSink`` output, ``repro trace --jsonl``); this module makes
them *answerable*.  A :class:`Trace` wraps a sequence of canonical event
records (plain dicts, exactly the :func:`~repro.obs.events.event_to_dict`
shape) and supports:

* **filter/group/derive** — ``trace.filter(kind="deliver", round=3)``,
  ``trace.group_by("initiator")``, ``trace.derive(fn)``;
* **derived series** — per-round delivery-latency distributions,
  blocked/rejected-initiation rates, the coverage curve implied by the
  deliveries' learned-rumor deltas, and activated-edge churn (new unique
  edges per round);
* **structural diff** — :func:`diff_traces` pinpoints the first
  diverging event between two streams, the tool for debugging
  nondeterminism ("two supposedly identical runs: where do they fork?");
* **timelines** — :meth:`Trace.timeline` draws who initiated and who
  merged, round by round, as an ASCII grid.

Traces built from multi-phase protocols (EID, Path Discovery) reset the
round counter at phase boundaries; per-round series here are therefore
most meaningful on single-engine streams, and :meth:`Trace.stats` counts
such resets as ``phases``.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
from typing import Any, Callable, Iterable, Iterator, Optional, Union

from repro.errors import ObservabilityError
from repro.obs.events import ATTEMPT_KINDS, Event, event_to_dict, node_key

__all__ = ["Trace", "TraceDiff", "diff_traces", "load_trace"]

Record = dict[str, Any]


def _canonical_line(record: Record) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"), ensure_ascii=True)


class Trace:
    """An ordered, immutable view over canonical engine-event records."""

    def __init__(self, records: Iterable[Record]) -> None:
        self._records: tuple[Record, ...] = tuple(records)
        for index, record in enumerate(self._records):
            if "kind" not in record or "round" not in record:
                raise ObservabilityError(
                    f"record {index} is not an engine event (missing "
                    f"'kind'/'round'): {record!r}"
                )

    # -- constructors ----------------------------------------------------
    @classmethod
    def from_events(cls, events: Iterable[Event]) -> "Trace":
        """Wrap live event objects (e.g. ``recorder.events``)."""
        return cls(event_to_dict(event) for event in events)

    @classmethod
    def from_jsonl(cls, text: str) -> "Trace":
        """Parse a canonical JSONL stream (one event per line)."""
        records = []
        for lineno, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError as error:
                raise ObservabilityError(
                    f"line {lineno} is not valid JSON: {error}"
                ) from None
        return cls(records)

    @classmethod
    def load(cls, path: Union[str, pathlib.Path]) -> "Trace":
        """Load a JSONL trace file (golden files, ``JsonlSink`` output)."""
        return cls.from_jsonl(pathlib.Path(path).read_text("utf-8"))

    # -- sequence protocol ----------------------------------------------
    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[Record]:
        return iter(self._records)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Trace(self._records[index])
        return self._records[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        return self._records == other._records

    def __repr__(self) -> str:
        return f"Trace({len(self._records)} events)"

    # -- filter / group / derive ----------------------------------------
    def filter(
        self,
        predicate: Optional[Callable[[Record], bool]] = None,
        **field_equals: Any,
    ) -> "Trace":
        """Events matching every ``field=value`` pair (and ``predicate``).

        ``trace.filter(kind="deliver")``, ``trace.filter(round=3)``,
        ``trace.filter(kind="initiate", lost=True)`` — missing fields
        never match.
        """
        out = []
        for record in self._records:
            if any(
                field not in record or record[field] != value
                for field, value in field_equals.items()
            ):
                continue
            if predicate is not None and not predicate(record):
                continue
            out.append(record)
        return Trace(out)

    def group_by(self, field: str) -> dict[Any, "Trace"]:
        """Sub-traces keyed by a field's value (records missing it skipped)."""
        groups: dict[Any, list[Record]] = {}
        for record in self._records:
            if field in record:
                groups.setdefault(record[field], []).append(record)
        return {key: Trace(records) for key, records in sorted(
            groups.items(), key=lambda kv: repr(kv[0])
        )}

    def derive(self, fn: Callable[[Record], Any]) -> list[Any]:
        """Map ``fn`` over every record (a query's projection step)."""
        return [fn(record) for record in self._records]

    # -- summaries -------------------------------------------------------
    def counts_by_kind(self) -> dict[str, int]:
        """``{kind: count}`` over the whole trace, kind-sorted."""
        counts: dict[str, int] = {}
        for record in self._records:
            kind = record["kind"]
            counts[kind] = counts.get(kind, 0) + 1
        return dict(sorted(counts.items()))

    def max_round(self) -> int:
        """Highest round stamped on any event (-1 for an empty trace)."""
        return max((record["round"] for record in self._records), default=-1)

    # -- derived series --------------------------------------------------
    def delivery_latencies(self) -> list[int]:
        """Observed latency (delivered round - initiated round) per delivery."""
        return [
            record["round"] - record["initiated_at"]
            for record in self._records
            if record["kind"] == "deliver"
        ]

    def delivery_latency_by_round(self) -> dict[int, list[int]]:
        """Per-delivery-round latency distributions, round-sorted."""
        series: dict[int, list[int]] = {}
        for record in self._records:
            if record["kind"] == "deliver":
                series.setdefault(record["round"], []).append(
                    record["round"] - record["initiated_at"]
                )
        return dict(sorted(series.items()))

    def blocked_initiation_rate(self) -> float:
        """Blocked initiations over all initiation attempts (0.0 if none).

        Attempts are ``initiate`` + ``blocked`` + ``rejected`` events —
        every time a protocol *tried* to start an exchange.
        """
        counts = self.counts_by_kind()
        attempts = sum(counts.get(kind, 0) for kind in ATTEMPT_KINDS)
        return counts.get("blocked", 0) / attempts if attempts else 0.0

    def coverage_curve(self, initial: int = 1) -> list[int]:
        """Cumulative rumors-known implied by delivery coverage deltas.

        ``initial`` is the rumor count before round 0 (1 for a broadcast
        source).  Entry ``t`` is the total after all round-``t``
        deliveries; length is ``max_round() + 1``.  On a complete
        no-failure broadcast the curve ends at ``n`` (the deltas sum to
        ``n - 1`` — property-tested against the recorder).
        """
        rounds = self.max_round() + 1
        learned = [0] * rounds
        for record in self._records:
            if record["kind"] == "deliver":
                learned[record["round"]] += (
                    record["learned_by_initiator"] + record["learned_by_responder"]
                )
        curve = []
        total = initial
        for round_learned in learned:
            total += round_learned
            curve.append(total)
        return curve

    def activated_edge_churn(self) -> dict[int, int]:
        """New unique (undirected) edges first activated per round.

        The series behind "is the protocol still exploring or re-walking
        known edges?" — the total over all rounds is the activated-edge
        count the lower-bound reduction feeds on.
        """
        seen: set[tuple] = set()
        churn: dict[int, int] = {}
        for record in self._records:
            if record["kind"] != "initiate":
                continue
            a, b = record["initiator"], record["responder"]
            edge = (a, b) if repr(a) <= repr(b) else (b, a)
            if edge not in seen:
                seen.add(edge)
                round_ = record["round"]
                churn[round_] = churn.get(round_, 0) + 1
        return dict(sorted(churn.items()))

    def stats(self) -> dict[str, Any]:
        """One-glance summary: counts per kind, rounds, phases, latencies."""
        counts = self.counts_by_kind()
        latencies = self.delivery_latencies()
        phases = 1 if self._records else 0
        last_round = None
        for record in self._records:
            if last_round is not None and record["round"] < last_round:
                phases += 1
            last_round = record["round"]
        out: dict[str, Any] = {
            "events": len(self._records),
            "by_kind": counts,
            "max_round": self.max_round(),
            "phases": phases,
            "unique_edges": sum(self.activated_edge_churn().values()),
        }
        if latencies:
            out["delivery_latency"] = {
                "min": min(latencies),
                "max": max(latencies),
                "mean": round(sum(latencies) / len(latencies), 3),
            }
        return out

    # -- rendering -------------------------------------------------------
    def timeline(
        self, nodes: Iterable[Any], max_rounds: Optional[int] = None, width: int = 60
    ) -> str:
        """An ASCII per-node timeline: ``>`` attempt, ``*`` delivery, ``.`` idle.

        An attempt is an ``initiate``, ``rejected`` or ``blocked`` event of
        the node as initiator; a delivery marks each endpoint that merged
        (the responder, and the initiator when it was alive).  A round with
        both shows ``#``.  ``nodes`` are node identities, matched to the
        records through :func:`~repro.obs.events.node_key`; the horizon is
        the last marked round, truncated to ``width`` (or ``max_rounds``).
        """
        nodes = list(nodes)
        marks: list[tuple[int, Any, str]] = []
        for record in self._records:
            kind = record["kind"]
            if kind in ATTEMPT_KINDS:
                marks.append((record["round"], record["initiator"], ">"))
            elif kind == "deliver":
                if record["initiator_alive"]:
                    marks.append((record["round"], record["initiator"], "*"))
                marks.append((record["round"], record["responder"], "*"))
        last_round = max((round_ for round_, _, _ in marks), default=0)
        horizon = min(last_round + 1, max_rounds or last_round + 1, width)
        grid = {node_key(node): ["."] * horizon for node in nodes}
        for round_, key, mark in marks:
            cell = grid.get(key)
            if cell is None or round_ >= horizon:
                continue
            cell[round_] = mark if cell[round_] in (".", mark) else "#"
        label_width = max((len(repr(node)) for node in nodes), default=1)
        lines = [
            f"{'round':>{label_width}} " + "".join(str(i % 10) for i in range(horizon))
        ]
        for node in nodes:
            lines.append(f"{node!r:>{label_width}} " + "".join(grid[node_key(node)]))
        return "\n".join(lines)


@dataclasses.dataclass(frozen=True)
class TraceDiff:
    """The first structural divergence between two traces.

    ``index`` is the position of the first differing event (equal to the
    shorter trace's length when one stream is a strict prefix of the
    other).  ``a`` / ``b`` are the canonical JSON lines at that position
    (``None`` past the end of a stream); ``round_a`` / ``round_b`` locate
    the divergence in simulation time.
    """

    index: int
    round_a: Optional[int]
    round_b: Optional[int]
    a: Optional[str]
    b: Optional[str]
    len_a: int
    len_b: int

    def describe(self) -> str:
        """A human-readable one-stop account of the divergence."""
        lines = [
            f"traces diverge at event {self.index} "
            f"(lengths {self.len_a} vs {self.len_b})"
        ]
        if self.a is None:
            lines.append(f"  a: <ended after {self.len_a} events>")
        else:
            lines.append(f"  a (round {self.round_a}): {self.a}")
        if self.b is None:
            lines.append(f"  b: <ended after {self.len_b} events>")
        else:
            lines.append(f"  b (round {self.round_b}): {self.b}")
        return "\n".join(lines)


def diff_traces(a: Trace, b: Trace) -> Optional[TraceDiff]:
    """Structurally compare two traces; ``None`` means identical.

    Comparison is record-by-record over the canonical dict form, so two
    streams serialized with different key orders but identical content
    compare equal, while the first semantic divergence — an extra
    initiation, a shifted delivery round, a different coverage delta — is
    pinpointed with both offending events.
    """
    for index, (rec_a, rec_b) in enumerate(zip(a, b)):
        if rec_a != rec_b:
            return TraceDiff(
                index=index,
                round_a=rec_a["round"],
                round_b=rec_b["round"],
                a=_canonical_line(rec_a),
                b=_canonical_line(rec_b),
                len_a=len(a),
                len_b=len(b),
            )
    if len(a) != len(b):
        index = min(len(a), len(b))
        longer = a if len(a) > len(b) else b
        record = longer[index]
        return TraceDiff(
            index=index,
            round_a=record["round"] if len(a) > len(b) else None,
            round_b=record["round"] if len(b) > len(a) else None,
            a=_canonical_line(record) if len(a) > len(b) else None,
            b=_canonical_line(record) if len(b) > len(a) else None,
            len_a=len(a),
            len_b=len(b),
        )
    return None


def load_trace(path: Union[str, pathlib.Path]) -> Trace:
    """Module-level alias for :meth:`Trace.load` (CLI convenience)."""
    return Trace.load(path)
