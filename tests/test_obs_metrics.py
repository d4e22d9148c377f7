"""Tests for the ``repro.obs.metrics`` registry and its engine wiring.

Four families:

* **Registry semantics** — counters only go up, gauges track peaks,
  histograms bucket correctly, get-or-create conflicts raise, and the
  canonical dump / Prometheus exposition have the promised shapes.
* **Merge protocol** — snapshot/since/merge mirrors the span registry:
  counters and histogram cells add, gauges take the max, and the
  delta/merge round-trip reconstructs exactly the post-snapshot work.
* **Engine wiring** — :class:`MetricsSink` totals equal the totals
  :class:`~repro.obs.traces.Trace` derives offline from the same run's
  recorded events (hypothesis-tested).
* **Parallel determinism** — a ``REPRO_JOBS=2`` ``map_trials`` fan-out
  reports the same default-registry counter totals as the serial run of
  the same trials (metrics never read a clock, so merged worker deltas
  are exactly the serial increments).
"""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ObservabilityError
from repro.experiments.harness import map_trials, run_experiment
from repro.obs import MemorySink, MetricsSink, Recorder, Trace
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    MetricsRegistry,
    default_registry,
    metrics_since,
    metrics_snapshot,
    reset_metrics,
)
from repro.protocols.base import per_node_rng_factory
from repro.protocols.push_pull import PushPullProtocol, run_push_pull
from repro.sim.engine import Engine
from repro.sim.failures import MessageLoss
from repro.sim.state import VectorState
from repro.testing.strategies import connected_latency_graphs, seeds


@pytest.fixture(autouse=True)
def _clean_default_registry():
    reset_metrics()
    yield
    reset_metrics()


class TestCounter:
    def test_inc_and_value(self):
        registry = MetricsRegistry()
        counter = registry.counter("requests_total", "demo")
        counter.inc()
        counter.inc(2, kind="a")
        counter.inc(kind="a")
        assert counter.value() == 1
        assert counter.value(kind="a") == 3
        assert counter.value(kind="never") == 0

    def test_decrease_raises(self):
        counter = MetricsRegistry().counter("c_total")
        with pytest.raises(ObservabilityError, match="cannot decrease"):
            counter.inc(-1)

    def test_invalid_names_raise(self):
        registry = MetricsRegistry()
        with pytest.raises(ObservabilityError, match="invalid metric name"):
            registry.counter("bad-name")
        counter = registry.counter("ok_total")
        with pytest.raises(ObservabilityError, match="invalid label name"):
            counter.inc(**{"bad-label": 1})


class TestGauge:
    def test_set_inc_dec(self):
        gauge = MetricsRegistry().gauge("depth")
        gauge.set(5)
        gauge.inc(2)
        gauge.dec()
        assert gauge.value() == 6

    def test_set_max_keeps_peak(self):
        gauge = MetricsRegistry().gauge("peak")
        gauge.set_max(4)
        gauge.set_max(2)
        assert gauge.value() == 4
        gauge.set_max(9)
        assert gauge.value() == 9


class TestHistogram:
    def test_observe_buckets_sum_count(self):
        hist = MetricsRegistry().histogram("lat", buckets=(1, 2, 4))
        for value in (1, 2, 3, 100):
            hist.observe(value)
        cell = hist.snapshot_cell()
        assert cell["buckets"] == [1, 1, 1, 1]  # le=1, le=2, le=4, +Inf
        assert cell["sum"] == 106
        assert cell["count"] == 4
        assert hist.count() == 4
        assert hist.sum() == 106

    def test_bad_buckets_raise(self):
        registry = MetricsRegistry()
        with pytest.raises(ObservabilityError, match="buckets"):
            registry.histogram("h1", buckets=())
        with pytest.raises(ObservabilityError, match="buckets"):
            registry.histogram("h2", buckets=(4, 2, 1))


class TestRegistry:
    def test_get_or_create_returns_same_metric(self):
        registry = MetricsRegistry()
        assert registry.counter("x_total") is registry.counter("x_total")

    def test_type_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x_total")
        with pytest.raises(ObservabilityError, match="already registered"):
            registry.gauge("x_total")

    def test_histogram_bucket_conflict_raises(self):
        registry = MetricsRegistry()
        registry.histogram("h", buckets=(1, 2))
        registry.histogram("h")  # no explicit buckets: fine
        with pytest.raises(ObservabilityError, match="already registered"):
            registry.histogram("h", buckets=(1, 2, 3))

    def test_collect_shape_and_canonical_json(self):
        registry = MetricsRegistry()
        registry.counter("c_total", "help me").inc(3, kind="z")
        registry.histogram("h", buckets=(1, 2)).observe(2)
        dump = registry.collect()
        assert dump["c_total"]["type"] == "counter"
        assert dump["c_total"]["values"] == [
            {"labels": {"kind": "z"}, "value": 3}
        ]
        assert dump["h"]["buckets"] == [1.0, 2.0]
        assert dump["h"]["values"][0]["bucket_counts"] == [0, 1, 0]
        # to_json is canonical: parse → re-serialize is the identity
        text = registry.to_json()
        assert text == json.dumps(
            json.loads(text), sort_keys=True, separators=(",", ":"),
            ensure_ascii=True,
        )

    def test_exposition_format(self):
        registry = MetricsRegistry()
        registry.counter("c_total", "a counter").inc(2, kind="a")
        registry.gauge("g").set(1.5)
        registry.histogram("h", buckets=(1, 2)).observe(1)
        text = registry.exposition()
        lines = text.splitlines()
        assert "# HELP c_total a counter" in lines
        assert "# TYPE c_total counter" in lines
        assert 'c_total{kind="a"} 2' in lines
        assert "g 1.5" in lines
        assert 'h_bucket{le="1"} 1' in lines
        assert 'h_bucket{le="2"} 1' in lines
        assert 'h_bucket{le="+Inf"} 1' in lines
        assert "h_sum 1" in lines
        assert "h_count 1" in lines
        assert text.endswith("\n")


class TestMergeProtocol:
    def test_since_reports_only_new_work(self):
        registry = MetricsRegistry()
        registry.counter("c_total").inc(5)
        snap = registry.snapshot()
        registry.counter("c_total").inc(2)
        registry.histogram("h").observe(3)
        delta = registry.since(snap)
        assert delta["c_total"]["cells"][()] == 2
        assert delta["h"]["cells"][()][-1] == 1  # one observation
        # untouched after the snapshot → absent from the delta
        registry2 = MetricsRegistry()
        registry2.counter("c_total").inc(5)
        snap2 = registry2.snapshot()
        assert registry2.since(snap2) == {}

    def test_merge_adds_counters_and_histograms_takes_gauge_max(self):
        source = MetricsRegistry()
        source.counter("c_total").inc(3, kind="a")
        source.gauge("peak").set(7)
        source.histogram("h", buckets=(1, 2)).observe(1)
        delta = source.since({})
        target = MetricsRegistry()
        target.gauge("peak").set(9)
        target.merge(delta)
        target.merge(delta)
        assert target.counter("c_total").value(kind="a") == 6
        assert target.gauge("peak").value() == 9  # existing peak is larger
        assert target.histogram("h").count() == 2

    def test_running_peak_delta_is_the_peak_inside_the_window(self):
        # A larger peak left from before the snapshot must not leak into
        # the window's delta; the window reports its own peak.
        registry = MetricsRegistry()
        registry.gauge("peak").set_max(256, layout="dense")
        snap = registry.snapshot()
        registry.gauge("peak").set_max(64, layout="dense")
        registry.gauge("peak").set_max(128, layout="dense")
        registry.gauge("peak").set_max(32, layout="dense")
        assert registry.gauge("peak").value(layout="dense") == 256
        assert registry.since(snap)["peak"]["cells"] == {(("layout", "dense"),): 128}
        assert registry.since({})["peak"]["cells"] == {(("layout", "dense"),): 256}

    def test_merged_peaks_count_toward_the_window_peak(self):
        # Pool-worker deltas arrive through merge(): they must feed the
        # parent's window peak exactly like a local set_max.
        target = MetricsRegistry()
        target.gauge("peak").set_max(256)
        snap = target.snapshot()
        worker = MetricsRegistry()
        worker.gauge("peak").set_max(128)
        target.merge(worker.since({}))
        assert target.gauge("peak").value() == 256
        assert target.since(snap)["peak"]["cells"] == {(): 128}

    def test_plain_write_ends_the_running_peak(self):
        registry = MetricsRegistry()
        registry.gauge("g").set_max(9)
        snap = registry.snapshot()
        registry.gauge("g").set_max(4)
        registry.gauge("g").set(2)
        assert registry.since(snap)["g"]["cells"] == {(): 2}

    def test_merge_creates_unknown_metrics_with_metadata(self):
        source = MetricsRegistry()
        source.counter("c_total", "the help").inc()
        source.histogram("h", buckets=(5, 10)).observe(7)
        target = MetricsRegistry()
        target.merge(source.since({}))
        assert target.counter("c_total").help == "the help"
        assert target.histogram("h").buckets == (5.0, 10.0)

    def test_delta_merge_roundtrip_reconstructs_post_snapshot_state(self):
        registry = MetricsRegistry()
        registry.counter("c_total").inc(10)
        snap = registry.snapshot()
        registry.counter("c_total").inc(4, kind="x")
        registry.histogram("h").observe(2.5)
        rebuilt = MetricsRegistry()
        rebuilt.merge(registry.since(snap))
        assert rebuilt.counter("c_total").value(kind="x") == 4
        assert rebuilt.counter("c_total").value() == 0  # pre-snapshot excluded
        assert rebuilt.histogram("h").sum() == 2.5
        assert rebuilt.histogram("h").buckets == DEFAULT_BUCKETS


def _offline_totals(events):
    """The sink's totals, derived offline from the recorded events."""
    trace = Trace.from_events(events)
    deliveries = trace.filter(kind="deliver")
    return {
        "by_kind": trace.counts_by_kind(),
        "rumors_learned": sum(
            deliveries.derive(
                lambda r: r["learned_by_initiator"] + r["learned_by_responder"]
            )
        ),
        "lost_initiations": len(trace.filter(kind="initiate", lost=True)),
        "max_in_flight": max(
            trace.filter(kind="round").derive(lambda r: r["in_flight"]), default=0
        ),
        "latencies_observed": len(deliveries),
    }


def _sink_totals(sink):
    registry = sink.registry
    return {
        "by_kind": sink.counts_by_kind(),
        "rumors_learned": registry.counter("engine_rumors_learned_total").value(),
        "lost_initiations": registry.counter("engine_lost_initiations_total").value(),
        "max_in_flight": registry.gauge("engine_in_flight_peak").value(),
        "latencies_observed": registry.histogram(
            "engine_delivery_latency_rounds"
        ).count(),
    }


class TestMetricsSink:
    def test_totals_match_offline_trace(self):
        from repro.graphs import generators

        graph = generators.ring_of_cliques(3, 4, inter_latency=5, rng=random.Random(0))
        state = VectorState(graph.nodes())
        state.seed_self_rumors()
        make_rng = per_node_rng_factory(3)
        memory = MemorySink()
        sink = MetricsSink(MetricsRegistry())
        engine = Engine(
            graph,
            lambda node: PushPullProtocol(make_rng(node)),
            state=state,
            failure_model=MessageLoss(p=0.2, seed=1),
            recorder=Recorder(memory, sink),
        )
        for _ in range(20):
            engine.step()
        totals = _sink_totals(sink)
        assert totals == _offline_totals(memory.events)
        # Every total is live on this run, so the comparison is not vacuous.
        assert totals["rumors_learned"] > 0
        assert totals["lost_initiations"] > 0
        assert totals["max_in_flight"] > 0

    @settings(max_examples=25, deadline=None)
    @given(graph=connected_latency_graphs(max_nodes=12), seed=seeds())
    def test_totals_match_offline_trace_property(self, graph, seed):
        memory = MemorySink()
        sink = MetricsSink(MetricsRegistry())
        with Recorder(memory, sink) as recorder:
            run_push_pull(graph, seed=seed, recorder=recorder)
        assert _sink_totals(sink) == _offline_totals(memory.events)

    def test_sink_defaults_to_default_registry(self):
        sink = MetricsSink()
        assert sink.registry is default_registry()


def _metrics_trial(seed):
    # Module-level so the process pool can pickle it.  Each trial runs a
    # seeded broadcast, bumping the default registry's sim_* counters.
    from repro.graphs import generators

    graph = generators.ring_of_cliques(3, 4, inter_latency=5, rng=random.Random(0))
    result = run_push_pull(graph, seed=seed, mode="broadcast")
    return result.rounds, result.exchanges


def _sim_counter_cells():
    registry = default_registry()
    out = {}
    for name in ("sim_runs_total", "sim_rounds_total", "sim_exchanges_total"):
        metric = registry.metric(name)
        assert metric is not None, f"{name} was never bumped"
        out[name] = dict(metric._cells)
    return out


class TestParallelDeterminism:
    def test_parallel_metrics_equal_serial(self, monkeypatch):
        items = list(range(6))
        monkeypatch.setenv("REPRO_JOBS", "1")
        reset_metrics()
        serial_results = map_trials(_metrics_trial, items)
        serial_cells = _sim_counter_cells()
        monkeypatch.setenv("REPRO_JOBS", "2")
        reset_metrics()
        parallel_results = map_trials(_metrics_trial, items)
        parallel_cells = _sim_counter_cells()
        assert serial_results == parallel_results
        assert serial_cells == parallel_cells
        runs = parallel_cells["sim_runs_total"]
        assert sum(runs.values()) == len(items)

    def test_run_experiment_attaches_scoped_metrics(self):
        table = run_experiment("E5", "quick")
        assert table.metrics is not None
        assert "sim_runs_total" in table.metrics
        runs = table.metrics["sim_runs_total"]["values"]
        assert sum(cell["value"] for cell in runs) > 0

    def test_experiment_metrics_identical_serial_vs_parallel(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "1")
        serial = run_experiment("E5", "quick")
        monkeypatch.setenv("REPRO_JOBS", "2")
        parallel = run_experiment("E5", "quick")
        serial_sim = {
            name: entry
            for name, entry in serial.metrics.items()
            if name.startswith("sim_")
        }
        parallel_sim = {
            name: entry
            for name, entry in parallel.metrics.items()
            if name.startswith("sim_")
        }
        assert serial_sim == parallel_sim
