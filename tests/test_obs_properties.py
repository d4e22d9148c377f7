"""Property tests for the observability layer.

Two families of guarantees:

* **Non-perturbation** — attaching a :class:`~repro.obs.Recorder` (and/or
  telemetry) must not change a run at all: same rounds, same exchanges,
  same final knowledge, same metrics, for plain runs, crash schedules,
  and the restricted in-degree model.  The engine only *observes* through
  the recorder; any divergence means an instrumentation site leaked into
  the semantics.  Invariant checkers read the same event stream, so a
  checked recorded run must match the unchecked one, recorded bytes
  included.
* **Telemetry shape** — the coverage curve is monotone non-decreasing,
  starts at the single informed source, and (on complete runs) ends at
  ``n``; the in-flight curve has one sample per executed round.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import MemorySink, MetricsRegistry, MetricsSink, Recorder
from repro.obs.events import events_to_jsonl
from repro.protocols.base import per_node_rng_factory
from repro.protocols.push_pull import PushPullProtocol, run_push_pull
from repro.sim.engine import Engine
from repro.sim.invariants import default_checkers
from repro.sim.runner import broadcast_complete, run_until_complete
from repro.sim.state import VectorState
from repro.testing.strategies import (
    connected_latency_graphs,
    crash_schedules,
    engine_configs,
    seeds,
)


def _broadcast_state(graph):
    source = graph.nodes()[0]
    rumor = ("rumor", source)
    state = VectorState(graph.nodes())
    state.add_rumor(source, rumor)
    return source, rumor, state


def _run_engine(
    graph, seed, rounds, *, recorder=None, failure_model=None, config=None,
    checkers=None,
):
    """Step a push--pull engine ``rounds`` times; return the engine."""
    _, _, state = _broadcast_state(graph)
    make_rng = per_node_rng_factory(seed)
    engine = Engine(
        graph,
        lambda node: PushPullProtocol(make_rng(node)),
        state=state,
        failure_model=failure_model,
        recorder=recorder,
        checkers=checkers,
        **(config or {}),
    )
    for _ in range(rounds):
        engine.step()
    return engine


def _assert_same_run(plain, observed):
    assert plain.round == observed.round
    assert plain.metrics == observed.metrics
    for node in plain.graph.nodes():
        assert plain.state.rumors(node) == observed.state.rumors(node)


def _assert_same_checked_run(recorded, checked):
    """A checked recorded run matches the unchecked one, recorded bytes too."""
    checked.finish_checks()
    _assert_same_run(recorded, checked)
    assert events_to_jsonl(checked.recorder.events) == events_to_jsonl(
        recorded.recorder.events
    )


class TestRecorderNonPerturbation:
    @given(connected_latency_graphs(max_nodes=10), seeds())
    @settings(max_examples=25, deadline=None)
    def test_push_pull_result_identical(self, graph, seed):
        plain = run_push_pull(graph, seed=seed, max_rounds=5_000)
        with Recorder(MemorySink(), MetricsSink(MetricsRegistry())) as recorder:
            observed = run_push_pull(
                graph,
                seed=seed,
                max_rounds=5_000,
                telemetry=True,
                recorder=recorder,
            )
        # telemetry is a compare=False field; dataclass equality checks
        # rounds, completion, exchanges, messages, protocol, history, and
        # blocked_initiations.
        assert plain == observed
        assert recorder.events_recorded > 0

    @given(
        connected_latency_graphs(min_nodes=3, max_nodes=10),
        seeds(100),
        st.data(),
    )
    @settings(max_examples=20, deadline=None)
    def test_crash_schedule_run_identical(self, graph, seed, data):
        source = graph.nodes()[0]
        crashes = data.draw(crash_schedules(graph.nodes(), protect=[source]))
        plain = _run_engine(graph, seed, rounds=20, failure_model=crashes)
        observed = _run_engine(
            graph, seed, rounds=20, failure_model=crashes,
            recorder=Recorder.in_memory(),
        )
        _assert_same_run(plain, observed)
        checked = _run_engine(
            graph, seed, rounds=20, failure_model=crashes,
            recorder=Recorder.in_memory(), checkers=default_checkers(),
        )
        _assert_same_checked_run(observed, checked)

    @given(connected_latency_graphs(max_nodes=10), seeds(100), engine_configs())
    @settings(max_examples=20, deadline=None)
    def test_engine_variants_run_identical(self, graph, seed, config):
        """Snapshot-semantics and bounded in-degree variants are unperturbed."""
        plain = _run_engine(graph, seed, rounds=15, config=config)
        observed = _run_engine(
            graph, seed, rounds=15, config=config, recorder=Recorder.ring(64)
        )
        _assert_same_run(plain, observed)
        recorded = _run_engine(
            graph, seed, rounds=15, config=config, recorder=Recorder.in_memory()
        )
        checked = _run_engine(
            graph, seed, rounds=15, config=config,
            recorder=Recorder.in_memory(), checkers=default_checkers(),
        )
        _assert_same_checked_run(recorded, checked)


class TestTelemetryShape:
    @given(connected_latency_graphs(max_nodes=12), seeds())
    @settings(max_examples=25, deadline=None)
    def test_coverage_curve_monotone_one_to_n(self, graph, seed):
        result = run_push_pull(
            graph, seed=seed, max_rounds=5_000, track_progress=True, telemetry=True
        )
        curve = result.telemetry.coverage_curve
        assert curve is not None
        # One sample before every executed round plus the final state.
        assert len(curve) == result.rounds + 1
        assert curve[0] == 1
        assert curve[-1] == graph.num_nodes
        assert all(a <= b for a, b in zip(curve, curve[1:]))
        in_flight = result.telemetry.in_flight_curve
        assert len(in_flight) == result.rounds
        assert all(v >= 0 for v in in_flight)
        assert result.telemetry.max_in_flight() == (max(in_flight) if in_flight else 0)

    @given(
        connected_latency_graphs(min_nodes=3, max_nodes=10),
        seeds(100),
        st.data(),
    )
    @settings(max_examples=15, deadline=None)
    def test_coverage_curve_monotone_under_crashes(self, graph, seed, data):
        source, rumor, state = _broadcast_state(graph)
        crashes = data.draw(crash_schedules(graph.nodes(), protect=[source]))
        make_rng = per_node_rng_factory(seed)
        engine = Engine(
            graph,
            lambda node: PushPullProtocol(make_rng(node)),
            state=state,
            failure_model=crashes,
        )
        result = run_until_complete(
            engine,
            lambda e: e.round >= 25,
            protocol_name="push-pull[crashy]",
            track_progress=lambda e: e.state.count_knowing(rumor),
            telemetry=True,
            allow_incomplete=True,
        )
        curve = result.telemetry.coverage_curve
        assert curve[0] == 1
        assert curve[-1] <= graph.num_nodes
        assert all(a <= b for a, b in zip(curve, curve[1:]))

    @given(connected_latency_graphs(max_nodes=10), seeds(100))
    @settings(max_examples=15, deadline=None)
    def test_event_stream_accounts_for_coverage(self, graph, seed):
        """Delivery coverage deltas sum to exactly the ``n - 1`` new rumors."""
        metrics = MetricsRegistry()
        with Recorder(MemorySink(), MetricsSink(metrics)) as recorder:
            result = run_push_pull(
                graph, seed=seed, max_rounds=5_000, recorder=recorder
            )
        assert result.complete
        learned = metrics.counter("engine_rumors_learned_total").value()
        assert learned == graph.num_nodes - 1
        rounds_closed = len(recorder.events_of("round"))
        assert rounds_closed == result.rounds
