"""Unit tests for the observability layer itself.

Covers the event wire format, every sink, the recorder's fan-out and
lifecycle, offline replay, the profiling-span registry (including the
cross-process snapshot/delta/merge protocol and the ``REPRO_JOBS``
parallel path), run manifests, telemetry accessors, and the
``None``-vs-``0`` semantics of ``blocked_initiations``.
"""

import io
import json

import pytest

from repro.errors import ProtocolError
from repro.experiments.harness import map_trials
from repro.graphs import generators
from repro.graphs.latency_graph import LatencyGraph
from repro.obs import (
    DeliveryEvent,
    InitiationEvent,
    JsonlSink,
    MemorySink,
    MetricsRegistry,
    MetricsSink,
    Recorder,
    RingBufferSink,
    RoundEvent,
    WakeupEvent,
    event_to_dict,
    event_to_json,
    events_to_jsonl,
    merge_spans,
    node_key,
    replay_into,
    reset_spans,
    run_manifest,
    span,
    span_aggregates,
    span_snapshot,
    spans_since,
)
from repro.obs.telemetry import RunTelemetry
from repro.protocols.base import per_node_rng_factory
from repro.protocols.push_pull import PushPullProtocol, run_push_pull
from repro.sim.engine import Engine
from repro.sim.metrics import EngineMetrics


class TestWireFormat:
    def test_node_key_passthrough_and_repr(self):
        assert node_key(7) == 7
        assert node_key("gateway") == "gateway"
        assert node_key((2, 1)) == "(2, 1)"

    def test_event_to_dict_maps_node_fields(self):
        event = InitiationEvent(
            round=3, initiator=(0, 1), responder=5, latency=2, lost=True
        )
        record = event_to_dict(event)
        assert record == {
            "kind": "initiate",
            "round": 3,
            "initiator": "(0, 1)",
            "responder": 5,
            "latency": 2,
            "ping": False,
            "lost": True,
        }

    def test_event_to_json_is_canonical(self):
        event = RoundEvent(round=0, initiations=2, deliveries=1, in_flight=4)
        line = event_to_json(event)
        assert line == json.dumps(
            json.loads(line), sort_keys=True, separators=(",", ":"), ensure_ascii=True
        )

    def test_events_to_jsonl_trailing_newline(self):
        assert events_to_jsonl([]) == ""
        stream = events_to_jsonl([WakeupEvent(round=1, node=0)])
        assert stream.endswith("\n")
        assert stream.count("\n") == 1


class TestSinks:
    def test_memory_sink_retains_in_order(self):
        sink = MemorySink()
        first = WakeupEvent(round=0, node=1)
        second = WakeupEvent(round=1, node=2)
        sink.write(first)
        sink.write(second)
        assert sink.events == [first, second]
        assert sink.to_jsonl() == events_to_jsonl([first, second])

    def test_ring_buffer_keeps_tail(self):
        sink = RingBufferSink(capacity=2)
        for r in range(5):
            sink.write(WakeupEvent(round=r, node=0))
        assert [e.round for e in sink.events] == [3, 4]

    def test_ring_buffer_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            RingBufferSink(capacity=0)

    def test_jsonl_sink_owns_path(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonlSink(path)
        sink.write(WakeupEvent(round=0, node=3))
        sink.close()
        assert sink.lines_written == 1
        assert path.read_text() == '{"kind":"wakeup","node":3,"round":0}\n'

    def test_jsonl_sink_borrows_open_file(self):
        buffer = io.StringIO()
        sink = JsonlSink(buffer)
        sink.write(WakeupEvent(round=2, node=0))
        sink.close()  # flushes, must not close a borrowed file
        assert not buffer.closed
        assert buffer.getvalue() == '{"kind":"wakeup","node":0,"round":2}\n'

    def test_jsonl_sink_close_is_idempotent(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonlSink(path)
        sink.write(WakeupEvent(round=0, node=1))
        sink.close()
        sink.close()  # second close must be a no-op, not a ValueError
        assert path.read_text() == '{"kind":"wakeup","node":1,"round":0}\n'

    def test_jsonl_sink_close_tolerates_externally_closed_file(self):
        buffer = io.StringIO()
        sink = JsonlSink(buffer)
        sink.write(WakeupEvent(round=0, node=1))
        buffer.close()  # owner closed the borrowed file first
        sink.close()  # must not flush a closed file

    def test_recorder_exit_then_explicit_close(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonlSink(path)
        with Recorder(sink) as recorder:
            recorder.record(WakeupEvent(round=0, node=2))
        sink.close()  # Recorder.__exit__ already closed it
        assert path.read_text() == '{"kind":"wakeup","node":2,"round":0}\n'

    def test_metrics_sink_aggregates(self):
        registry = MetricsRegistry()
        sink = MetricsSink(registry)
        sink.write(InitiationEvent(round=0, initiator=0, responder=1, latency=1))
        sink.write(
            InitiationEvent(round=0, initiator=1, responder=0, latency=1, lost=True)
        )
        sink.write(
            DeliveryEvent(
                round=1,
                initiator=0,
                responder=1,
                initiated_at=0,
                learned_by_initiator=2,
                learned_by_responder=1,
            )
        )
        sink.write(RoundEvent(round=0, initiations=2, deliveries=0, in_flight=5))
        sink.write(RoundEvent(round=1, initiations=0, deliveries=1, in_flight=2))
        assert sink.counts_by_kind() == {"deliver": 1, "initiate": 2, "round": 2}
        assert registry.counter("engine_rumors_learned_total").value() == 3
        assert registry.counter("engine_lost_initiations_total").value() == 1
        assert registry.gauge("engine_in_flight_peak").value() == 5
        assert registry.histogram("engine_delivery_latency_rounds").sum() == 1


class TestRecorder:
    def test_fan_out_and_counts(self):
        memory = MemorySink()
        metrics = MetricsSink(MetricsRegistry())
        recorder = Recorder(memory, metrics)
        recorder.record(WakeupEvent(round=0, node=0))
        assert recorder.events_recorded == 1
        assert len(memory.events) == 1
        assert metrics.counts_by_kind() == {"wakeup": 1}

    def test_sink_lookup_and_events_of(self):
        recorder = Recorder.in_memory()
        recorder.record(WakeupEvent(round=0, node=0))
        recorder.record(RoundEvent(round=0, initiations=0, deliveries=0, in_flight=0))
        assert isinstance(recorder.sink(MemorySink), MemorySink)
        assert recorder.sink(MetricsSink) is None
        assert [e.kind for e in recorder.events_of("round")] == ["round"]

    def test_context_manager_closes_jsonl(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with Recorder.to_jsonl(path) as recorder:
            recorder.record(WakeupEvent(round=0, node=9))
        assert path.read_text().startswith('{"kind":"wakeup"')

    def test_replay_into_reproduces_counters(self):
        graph = generators.clique(5)
        live = MetricsRegistry()
        with Recorder(MemorySink(), MetricsSink(live)) as recorder:
            run_push_pull(graph, seed=2, recorder=recorder)
        offline = MetricsRegistry()
        replay_into(recorder.events, MetricsSink(offline))
        assert live.counter("engine_events_total").value(kind="deliver") > 0
        assert offline.collect() == live.collect()


class TestSpans:
    def test_span_accumulates(self):
        reset_spans()
        for _ in range(3):
            with span("unit.op"):
                pass
        stats = span_aggregates()["unit.op"]
        assert stats["count"] == 3
        assert stats["seconds"] >= 0.0
        assert stats["max_seconds"] <= stats["seconds"]
        assert stats["mean_seconds"] == pytest.approx(stats["seconds"] / 3)

    def test_snapshot_delta_merge_roundtrip(self):
        reset_spans()
        with span("unit.before"):
            pass
        base = span_snapshot()
        with span("unit.before"):
            pass
        with span("unit.after"):
            pass
        delta = spans_since(base)
        assert set(delta) == {"unit.before", "unit.after"}
        assert delta["unit.before"][0] == 1  # only the post-snapshot entry
        reset_spans()
        merge_spans(delta)
        merge_spans(delta)  # counts add, totals add, maxima take max
        stats = span_aggregates()
        assert stats["unit.before"]["count"] == 2
        assert stats["unit.after"]["count"] == 2

    def test_parallel_trials_merge_worker_spans(self, monkeypatch):
        items = list(range(6))
        reset_spans()
        monkeypatch.setenv("REPRO_JOBS", "1")
        serial = map_trials(abs, items)
        serial_count = span_aggregates()["harness.trial"]["count"]
        reset_spans()
        monkeypatch.setenv("REPRO_JOBS", "2")
        parallel = map_trials(abs, items)
        parallel_count = span_aggregates()["harness.trial"]["count"]
        assert serial == parallel
        assert serial_count == parallel_count == len(items)


class TestManifest:
    def test_environment_fields_present(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "4")
        manifest = run_manifest(experiment="E1", seed=7)
        assert manifest["schema"] == "repro-manifest/1"
        assert manifest["repro_jobs"] == "4"
        assert manifest["experiment"] == "E1"
        assert manifest["seed"] == 7
        assert "python" in manifest and "captured_at" in manifest

    def test_reserved_keys_raise(self):
        with pytest.raises(ValueError, match="reserved"):
            run_manifest(git_rev="spoofed")


class TestTelemetryAccessors:
    def test_in_flight_histogram(self):
        telemetry = RunTelemetry(in_flight_curve=(2, 0, 2, 1))
        assert telemetry.in_flight_histogram() == {0: 1, 1: 1, 2: 2}
        assert telemetry.max_in_flight() == 2

    def test_empty_curves(self):
        telemetry = RunTelemetry()
        assert telemetry.coverage_curve is None
        assert telemetry.in_flight_histogram() == {}
        assert telemetry.max_in_flight() == 0


class TestBlockedInitiationSemantics:
    """``None`` = never tracked; ``0`` = tracked and clean (two meanings)."""

    def test_untracked_renders_not_applicable(self):
        metrics = EngineMetrics()
        assert metrics.blocked_initiations is None
        assert "blocked=n/a (blocking not enforced)" in str(metrics)

    def test_non_enforcing_engine_leaves_none(self):
        graph = generators.clique(4)
        make_rng = per_node_rng_factory(0)
        engine = Engine(graph, lambda node: PushPullProtocol(make_rng(node)))
        for _ in range(5):
            engine.step()
        assert engine.metrics.blocked_initiations is None
        result = run_push_pull(graph, seed=0)
        assert result.blocked_initiations is None
        assert "blocked initiations" not in str(result)

    def test_enforcing_clean_run_reports_zero(self):
        # Unit latencies: every exchange resolves before the next round,
        # so even push--pull satisfies the blocking discipline.
        graph = generators.clique(5)
        make_rng = per_node_rng_factory(1)
        engine = Engine(
            graph,
            lambda node: PushPullProtocol(make_rng(node)),
            enforce_blocking=True,
        )
        for _ in range(10):
            engine.step()
        assert engine.metrics.blocked_initiations == 0
        assert "blocked=0" in str(engine.metrics)

    def test_violation_counted_before_raise(self):
        graph = LatencyGraph(edges=[(0, 1, 5)])
        make_rng = per_node_rng_factory(0)
        engine = Engine(
            graph,
            lambda node: PushPullProtocol(make_rng(node)),
            enforce_blocking=True,
        )
        with pytest.raises(ProtocolError):
            for _ in range(3):
                engine.step()
        assert engine.metrics.blocked_initiations == 1

    def test_recorder_sees_blocked_event(self):
        graph = LatencyGraph(edges=[(0, 1, 5)])
        make_rng = per_node_rng_factory(0)
        recorder = Recorder.in_memory()
        engine = Engine(
            graph,
            lambda node: PushPullProtocol(make_rng(node)),
            enforce_blocking=True,
            recorder=recorder,
        )
        with pytest.raises(ProtocolError):
            for _ in range(3):
                engine.step()
        assert len(recorder.events_of("blocked")) == 1
