"""Differential-testing and determinism-oracle toolkit.

Three independent ways to catch engine bugs, built to be cheap to run
after any :mod:`repro.sim` refactor (and wired into ``repro check``):

* :class:`~repro.testing.reference.ReferenceEngine` — a naive O(n·m)
  re-implementation of the model, for differential testing via
  :func:`~repro.testing.differential.run_differential`;
* :func:`~repro.testing.replay.replay` /
  :func:`~repro.testing.replay.record_and_replay` — re-execute the
  initiation schedule of a recorded :mod:`repro.obs` event stream and
  demand the identical stream (learned-rumor deltas included) and
  bit-identical metrics (determinism oracle);
* :mod:`repro.testing.strategies` — shared Hypothesis strategies for
  random graphs, latency models and seeds (imported lazily: everything
  else here works without ``hypothesis`` installed).
"""

from repro.testing.differential import (
    DifferentialReport,
    assert_engines_agree,
    run_differential,
)
from repro.testing.reference import ReferenceEngine, ReferenceNetworkState
from repro.testing.replay import (
    ReplayReport,
    ScheduledProtocol,
    record_and_replay,
    replay,
)

from repro.experiments.sharding import fault_injection

try:  # pragma: no cover - exercised implicitly by environments without hypothesis
    from repro.testing.strategies import (
        connected_latency_graphs,
        crash_schedules,
        engine_configs,
        fault_points,
        large_dense_graphs,
        latency_models,
        seeds,
        sweep_recipes,
        trial_plans,
    )
except ImportError:  # hypothesis not installed; strategies stay unavailable
    connected_latency_graphs = None
    crash_schedules = None
    engine_configs = None
    fault_points = None
    large_dense_graphs = None
    latency_models = None
    seeds = None
    sweep_recipes = None
    trial_plans = None

__all__ = [
    "DifferentialReport",
    "ReferenceEngine",
    "ReferenceNetworkState",
    "ReplayReport",
    "ScheduledProtocol",
    "assert_engines_agree",
    "connected_latency_graphs",
    "crash_schedules",
    "engine_configs",
    "fault_injection",
    "fault_points",
    "large_dense_graphs",
    "latency_models",
    "record_and_replay",
    "replay",
    "run_differential",
    "seeds",
    "sweep_recipes",
    "trial_plans",
]
