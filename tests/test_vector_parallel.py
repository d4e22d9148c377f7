"""Vector-backend trials under the ``REPRO_JOBS`` process-pool fan-out.

A parallel :func:`~repro.experiments.harness.map_trials` run of
vector-backend simulations must be bit-identical to the serial run —
results, merged span counts, and merged metric values alike.  Every
trial runs under its caller's backend and ``checked()`` scopes, whichever
scopes were active when the shared pool started.  The trial functions
live at module level so they pickle into the worker processes.
"""

import random

import pytest

from repro.experiments import harness
from repro.experiments.harness import map_trials
from repro.graphs import generators
from repro.graphs.latency_models import uniform_latency
from repro.obs.metrics import metrics_since, metrics_snapshot
from repro.obs.profile import span_snapshot, spans_since
from repro.protocols.push_pull import run_push_pull
from repro.sim.invariants import checked, checking_enabled
from repro.sim.vector import current_engine_backend, engine_backend


def _vector_trial(seed):
    """One seeded vector-backend broadcast (module-level so it pickles)."""
    graph = generators.erdos_renyi(
        40, 0.12, latency_model=uniform_latency(1, 5), rng=random.Random(seed)
    )
    return run_push_pull(graph, seed=seed, backend="vector")


SEEDS = list(range(6))


def test_parallel_vector_trials_bit_identical(monkeypatch):
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    serial = map_trials(_vector_trial, SEEDS)
    monkeypatch.setenv("REPRO_JOBS", "2")
    parallel = map_trials(_vector_trial, SEEDS)
    assert parallel == serial
    assert all(result.complete for result in serial)


def test_parallel_vector_trials_merge_spans_and_metrics(monkeypatch):
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    spans_before = span_snapshot()
    metrics_before = metrics_snapshot()
    map_trials(_vector_trial, SEEDS)
    serial_spans = spans_since(spans_before)
    serial_metrics = metrics_since(metrics_before)

    monkeypatch.setenv("REPRO_JOBS", "2")
    spans_before = span_snapshot()
    metrics_before = metrics_snapshot()
    map_trials(_vector_trial, SEEDS)
    parallel_spans = spans_since(spans_before)
    parallel_metrics = metrics_since(metrics_before)

    # Span *counts* are deterministic (durations are wall clock, so only
    # the counts compare); every trial is timed under harness.trial.
    assert parallel_spans["harness.trial"][0] == serial_spans["harness.trial"][0]
    assert serial_spans["harness.trial"][0] == len(SEEDS)
    # Metric values never read a clock, so the merged parallel deltas are
    # identical to the serial ones — runs, rounds, and all.
    assert parallel_metrics == serial_metrics
    assert serial_metrics["sim_runs_total"]["cells"]


def _scope_probe(_):
    """The backend and ``checked()`` scopes a trial runs under."""
    return current_engine_backend(), checking_enabled()


@pytest.mark.parametrize("scoped_first", [True, False])
def test_pool_trials_run_in_the_callers_scopes(monkeypatch, scoped_first):
    # The pool starts inside the first call; a forked worker must not
    # keep that call's scopes for the second.
    monkeypatch.setenv("REPRO_JOBS", "2")
    harness._shutdown_pool()
    items = list(range(4))

    def scoped():
        with engine_backend("vector"), checked():
            return map_trials(_scope_probe, items)

    def plain():
        return map_trials(_scope_probe, items)

    try:
        if scoped_first:
            inside, outside = scoped(), plain()
        else:
            outside, inside = plain(), scoped()
    finally:
        harness._shutdown_pool()
    assert inside == [("vector", True)] * len(items)
    assert outside == [("scalar", False)] * len(items)
