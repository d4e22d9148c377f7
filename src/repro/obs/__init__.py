"""``repro.obs`` — structured run telemetry, event recording, profiling.

Three independent pieces, designed so each costs nothing unless used:

* **Event streams** (:mod:`repro.obs.events`, :mod:`repro.obs.recorder`) —
  the engine feeds typed per-round events (initiations, deliveries,
  merges/coverage deltas, wakeups, blocked/rejected initiations, round
  summaries) to a :class:`Recorder` with pluggable sinks.  Disabled by
  default: the engine pays one ``is None`` check per site.
* **Profiling spans** (:mod:`repro.obs.profile`) — ``with span("dijkstra")``
  context managers on coarse operations, aggregated process-globally and
  merged across ``map_trials`` workers.
* **Run manifests** (:mod:`repro.obs.manifest`) — provenance dicts (git
  rev, jobs, seed, graph fingerprint, config) attached to experiment
  tables and artifact-cache entries.

On top of the recording tier sits the analysis tier:

* **Metrics** (:mod:`repro.obs.metrics`) — a deterministic, clock-free
  Counter/Gauge/Histogram registry with Prometheus exposition, merged
  across ``map_trials`` workers like spans;
* **Trace analytics** (:mod:`repro.obs.traces`) — query/derive/diff over
  recorded JSONL event streams;
* **Regression gating** (:mod:`repro.obs.regress`) — machine-checkable
  verdicts comparing ``BENCH_*.json`` against committed baselines;
* **Reports** (:mod:`repro.obs.report`) — the ``repro report`` markdown
  renderer tying all of the above together.

Per-run series land on results as :class:`RunTelemetry`
(:mod:`repro.obs.telemetry`).  See ``docs/OBSERVABILITY.md`` for the
event schema and the overhead numbers.
"""

from repro.obs.events import (
    BlockedInitiationEvent,
    DeliveryEvent,
    Event,
    InitiationEvent,
    RejectedInitiationEvent,
    RoundEvent,
    VoidExchangeEvent,
    WakeupEvent,
    event_to_dict,
    event_to_json,
    events_to_jsonl,
    node_key,
)
from repro.obs.manifest import MANIFEST_SCHEMA, git_revision, run_manifest
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    MetricsSink,
    default_registry,
    delta_from_wire,
    delta_to_wire,
    merge_metrics,
    metrics_since,
    metrics_snapshot,
    reset_metrics,
)
from repro.obs.profile import (
    merge_spans,
    reset_spans,
    span,
    span_aggregates,
    span_snapshot,
    spans_from_wire,
    spans_since,
    spans_to_wire,
)
from repro.obs.recorder import (
    JsonlSink,
    MemorySink,
    Recorder,
    RingBufferSink,
    Sink,
    replay_into,
)
from repro.obs.regress import (
    GATE_SUITES,
    RegressionReport,
    WorkloadVerdict,
    compare_benchmarks,
    gate_suite,
    gate_suites,
)
from repro.obs.report import (
    render_experiment_report,
    render_trace_report,
)
from repro.obs.telemetry import PhaseTiming, RunTelemetry
from repro.obs.traces import Trace, TraceDiff, diff_traces, load_trace

__all__ = [
    "BlockedInitiationEvent",
    "Counter",
    "DeliveryEvent",
    "Event",
    "GATE_SUITES",
    "Gauge",
    "Histogram",
    "InitiationEvent",
    "JsonlSink",
    "MANIFEST_SCHEMA",
    "MemorySink",
    "MetricsRegistry",
    "MetricsSink",
    "PhaseTiming",
    "Recorder",
    "RegressionReport",
    "RejectedInitiationEvent",
    "RingBufferSink",
    "RoundEvent",
    "RunTelemetry",
    "Sink",
    "Trace",
    "TraceDiff",
    "VoidExchangeEvent",
    "WakeupEvent",
    "WorkloadVerdict",
    "compare_benchmarks",
    "default_registry",
    "diff_traces",
    "event_to_dict",
    "event_to_json",
    "events_to_jsonl",
    "gate_suite",
    "gate_suites",
    "git_revision",
    "load_trace",
    "merge_metrics",
    "merge_spans",
    "metrics_since",
    "metrics_snapshot",
    "node_key",
    "render_experiment_report",
    "render_trace_report",
    "replay_into",
    "reset_metrics",
    "reset_spans",
    "run_manifest",
    "span",
    "span_aggregates",
    "span_snapshot",
    "spans_since",
]
