"""Observability overhead smoke: the recorder must be free when disabled.

Every instrumentation site in the engine hot path is guarded by a single
``recorder is None`` check, so a recorder-disabled run is supposed to be
indistinguishable from the pre-observability engine.  This suite pins
that down two ways on the former ``pushpull_broadcast_er_n400`` engine
microbenchmark workload (push--pull broadcast on ``erdos_renyi`` G(400,
0.03), latencies 1..8, seed 0):

* the recorder-disabled wall clock must stay within the 2% acceptance
  envelope of that workload's baseline, :data:`BASELINE_SECONDS`.  The
  baseline was captured on the pre-optimization engine (~30x slower than
  the current one), so in practice this is a loud catastrophic-regression
  tripwire — e.g. instrumentation accidentally moved inside the per-round
  loop — rather than a tight bound;
* a paired in-process A/B (recorder disabled vs. a recorder carrying a
  ``MetricsSink`` on a fresh registry) reports the *enabled* overhead
  ratio, so the cost of turning telemetry on is visible in every
  benchmark log.

Runs standalone, no pytest-benchmark needed:
``PYTHONPATH=src python -m pytest benchmarks/test_bench_obs_overhead.py``.
"""

import random
import time

from repro.graphs import generators
from repro.graphs.latency_models import uniform_latency
from repro.obs import MetricsRegistry, MetricsSink, Recorder
from repro.protocols.push_pull import run_push_pull

WORKLOAD = "pushpull_broadcast_er_n400"
N, P = 400, 0.03
REPEATS = 3
OVERHEAD_ENVELOPE = 1.02  # acceptance criterion: within 2% of the baseline
#: The workload's best-of-3 seconds on the pre-optimization engine (commit
#: 5848497), as ``BENCH_engine_baseline.json`` held it until the engine
#: suite replaced the workload with its scalar/vector pairs.
BASELINE_SECONDS = 0.2206


def _workload_graph():
    # Must match the graph BASELINE_SECONDS was measured on, or the
    # baseline comparison is meaningless.
    return generators.erdos_renyi(
        N, P, latency_model=uniform_latency(1, 8), rng=random.Random(0)
    )


def _best_of(graph, repeats=REPEATS, make_recorder=lambda: None):
    """Best wall-clock of ``repeats`` runs (one untimed warmup first)."""
    run_push_pull(graph, seed=0, recorder=make_recorder())
    best = None
    for _ in range(repeats):
        recorder = make_recorder()
        start = time.perf_counter()
        run_push_pull(graph, seed=0, recorder=recorder)
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best


def test_recorder_disabled_within_baseline_envelope(capsys):
    graph = _workload_graph()
    disabled = _best_of(graph)
    budget = OVERHEAD_ENVELOPE * BASELINE_SECONDS
    with capsys.disabled():
        print()
        print(
            f"{WORKLOAD}: recorder-disabled {disabled:.4f}s, baseline "
            f"{BASELINE_SECONDS:.4f}s, budget {budget:.4f}s "
            f"({BASELINE_SECONDS / disabled:.1f}x headroom)"
        )
    assert disabled <= budget, (
        f"recorder-disabled run took {disabled:.4f}s — over the "
        f"{OVERHEAD_ENVELOPE}x envelope of the committed baseline "
        f"({BASELINE_SECONDS:.4f}s); did instrumentation leak into the "
        "per-round hot path?"
    )


def test_enabled_overhead_is_bounded(capsys):
    graph = _workload_graph()
    disabled = _best_of(graph)
    recorders = []

    def make_recorder():
        recorder = Recorder(MetricsSink(MetricsRegistry()))
        recorders.append(recorder)
        return recorder

    enabled = _best_of(graph, make_recorder=make_recorder)
    ratio = enabled / disabled
    with capsys.disabled():
        print()
        print(
            f"{WORKLOAD}: disabled {disabled:.4f}s, MetricsSink recorder "
            f"{enabled:.4f}s ({ratio:.2f}x)"
        )
    assert recorders[-1].events_recorded > 0
    # Event construction + metric updates cost real time; this is a
    # sanity rail against pathological blowups, not a tight bound.
    assert ratio < 10.0, f"recorder-enabled run is {ratio:.1f}x slower"
