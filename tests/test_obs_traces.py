"""Tests for trace analytics: queries, derived series, structural diff.

Traces are exercised both synthetically (hand-built records with known
answers) and end-to-end (a recorded push--pull run, where the derived
series must agree with a metrics sink's counters and the run result).
"""

import pathlib
import random

import pytest

from repro.errors import ObservabilityError
from repro.graphs import generators
from repro.obs import MemorySink, MetricsRegistry, MetricsSink, Recorder
from repro.obs.traces import Trace, diff_traces, load_trace
from repro.protocols.push_pull import run_push_pull

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"


def _initiate(round_, a, b, **extra):
    record = {
        "kind": "initiate", "round": round_, "initiator": a, "responder": b,
        "latency": 1, "lost": False, "ping": False,
    }
    record.update(extra)
    return record


def _deliver(round_, a, b, initiated_at, learned=1):
    return {
        "kind": "deliver", "round": round_, "initiator": a, "responder": b,
        "initiated_at": initiated_at, "ping": False, "initiator_alive": True,
        "learned_by_initiator": learned, "learned_by_responder": 0,
    }


def _recorded_run():
    graph = generators.ring_of_cliques(3, 4, inter_latency=5, rng=random.Random(0))
    memory = MemorySink()
    metrics = MetricsSink(MetricsRegistry())
    with Recorder(memory, metrics) as recorder:
        result = run_push_pull(graph, seed=1, recorder=recorder)
    return graph, result, Trace.from_events(memory.events), metrics


class TestConstruction:
    def test_from_jsonl_and_load_roundtrip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        lines = '{"kind":"initiate","round":0}\n\n{"kind":"round","round":0}\n'
        path.write_text(lines, encoding="utf-8")
        trace = load_trace(path)
        assert len(trace) == 2  # blank lines skipped
        assert trace == Trace.from_jsonl(lines)

    def test_bad_json_raises_with_line_number(self):
        with pytest.raises(ObservabilityError, match="line 2"):
            Trace.from_jsonl('{"kind":"round","round":0}\nnot json\n')

    def test_non_event_record_raises(self):
        with pytest.raises(ObservabilityError, match="not an engine event"):
            Trace([{"kind": "round"}])  # no round field

    def test_load_golden_file(self):
        trace = Trace.load(GOLDEN_DIR / "push_pull_ring_of_cliques.jsonl")
        assert len(trace) > 0
        assert {"initiate", "deliver", "round"} <= set(trace.counts_by_kind())

    def test_sequence_protocol(self):
        trace = Trace([_initiate(0, 1, 2), _initiate(1, 2, 3)])
        assert len(trace) == 2
        assert trace[0]["round"] == 0
        assert isinstance(trace[0:1], Trace)
        assert [r["round"] for r in trace] == [0, 1]
        assert "2 events" in repr(trace)


class TestQueries:
    def test_filter_by_fields_and_predicate(self):
        trace = Trace([
            _initiate(0, 1, 2), _initiate(1, 1, 3), _deliver(1, 1, 2, 0),
        ])
        assert len(trace.filter(kind="initiate")) == 2
        assert len(trace.filter(kind="initiate", round=1)) == 1
        assert len(trace.filter(lambda r: r["round"] > 0)) == 2
        # missing fields never match
        assert len(trace.filter(initiated_at=0)) == 1

    def test_group_by(self):
        trace = Trace([_initiate(0, 1, 2), _initiate(0, 2, 3), _initiate(1, 1, 3)])
        groups = trace.group_by("initiator")
        assert sorted(groups) == [1, 2]
        assert len(groups[1]) == 2

    def test_derive(self):
        trace = Trace([_initiate(0, 1, 2), _initiate(3, 1, 2)])
        assert trace.derive(lambda r: r["round"] * 2) == [0, 6]


class TestDerivedSeries:
    def test_delivery_latencies(self):
        trace = Trace([_deliver(3, 1, 2, 1), _deliver(5, 2, 3, 5)])
        assert trace.delivery_latencies() == [2, 0]
        assert trace.delivery_latency_by_round() == {3: [2], 5: [0]}

    def test_blocked_initiation_rate(self):
        records = [
            _initiate(0, 1, 2),
            {"kind": "blocked", "round": 0, "initiator": 1, "responder": 2},
            {"kind": "blocked", "round": 1, "initiator": 1, "responder": 2},
            {"kind": "rejected", "round": 1, "initiator": 2, "responder": 3},
        ]
        assert Trace(records).blocked_initiation_rate() == pytest.approx(0.5)
        assert Trace([_initiate(0, 1, 2)]).blocked_initiation_rate() == 0.0

    def test_coverage_curve(self):
        trace = Trace([_deliver(0, 1, 2, 0, learned=2), _deliver(2, 2, 3, 1)])
        assert trace.coverage_curve() == [3, 3, 4]
        assert trace.coverage_curve(initial=5) == [7, 7, 8]

    def test_activated_edge_churn_deduplicates_undirected(self):
        trace = Trace([
            _initiate(0, 1, 2),
            _initiate(0, 2, 1),   # same undirected edge
            _initiate(2, 1, 3),
        ])
        assert trace.activated_edge_churn() == {0: 1, 2: 1}

    def test_stats_counts_phase_resets(self):
        trace = Trace([
            _initiate(0, 1, 2), _initiate(3, 1, 2),
            _initiate(0, 1, 2),  # round reset → second phase
        ])
        stats = trace.stats()
        assert stats["phases"] == 2
        assert stats["events"] == 3
        assert stats["max_round"] == 3

    def test_empty_trace(self):
        trace = Trace([])
        assert trace.max_round() == -1
        assert trace.coverage_curve() == []
        assert trace.stats()["phases"] == 0


class TestEndToEnd:
    def test_series_agree_with_recorder_counters(self):
        graph, result, trace, metrics = _recorded_run()
        assert trace.counts_by_kind() == metrics.counts_by_kind()
        latency = metrics.registry.histogram("engine_delivery_latency_rounds")
        assert len(trace.delivery_latencies()) == latency.count()
        assert sum(trace.delivery_latencies()) == latency.sum()
        # a complete broadcast's coverage deltas sum to n - 1
        curve = trace.coverage_curve()
        assert curve[-1] == graph.num_nodes
        assert curve == sorted(curve)  # monotone
        assert trace.max_round() == result.rounds - 1
        assert trace.blocked_initiation_rate() == 0.0


class TestDiff:
    def test_identical_traces_diff_none(self):
        records = [_initiate(0, 1, 2), _deliver(1, 1, 2, 0)]
        assert diff_traces(Trace(records), Trace(records)) is None

    def test_first_divergence_pinpointed(self):
        a = Trace([_initiate(0, 1, 2), _deliver(1, 1, 2, 0)])
        b = Trace([_initiate(0, 1, 2), _deliver(2, 1, 2, 0)])
        diff = diff_traces(a, b)
        assert diff is not None
        assert diff.index == 1
        assert diff.round_a == 1 and diff.round_b == 2
        assert '"kind":"deliver"' in diff.a
        assert "diverge at event 1" in diff.describe()

    def test_prefix_divergence(self):
        a = Trace([_initiate(0, 1, 2)])
        b = Trace([_initiate(0, 1, 2), _deliver(1, 1, 2, 0)])
        diff = diff_traces(a, b)
        assert diff.index == 1
        assert diff.a is None and diff.b is not None
        assert diff.len_a == 1 and diff.len_b == 2
        assert "<ended after 1 events>" in diff.describe()

    def test_key_order_does_not_matter(self):
        record = _initiate(0, 1, 2)
        reordered = dict(reversed(list(record.items())))
        assert diff_traces(Trace([record]), Trace([reordered])) is None

    def test_seed_change_diverges_on_real_runs(self):
        graph = generators.ring_of_cliques(3, 4, inter_latency=5,
                                           rng=random.Random(0))
        traces = []
        for seed in (1, 2):
            memory = MemorySink()
            with Recorder(memory) as recorder:
                run_push_pull(graph, seed=seed, recorder=recorder)
            traces.append(Trace.from_events(memory.events))
        diff = diff_traces(*traces)
        assert diff is not None
