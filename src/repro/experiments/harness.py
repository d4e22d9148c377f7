"""Experiment harness: result tables, profiles, and the registry.

Every experiment in the index of DESIGN.md is a function
``run(profile) -> ExperimentTable``.  The ``profile`` selects parameter
scales:

* ``"quick"`` — seconds; used by the test suite and default benchmarks;
* ``"full"`` — minutes; larger ladders for tighter scaling fits.

Benchmarks print the returned tables, which is the library's analogue of
the rows/series a systems paper's evaluation section reports.
"""

from __future__ import annotations

import atexit
import contextlib
import dataclasses
import functools
import os
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Iterable, Optional, Sequence, TypeVar

from repro.errors import ExperimentError
from repro.obs.metrics import (
    MetricsRegistry,
    default_registry,
    merge_metrics,
    metrics_since,
    metrics_snapshot,
)
from repro.obs.profile import merge_spans, span, span_snapshot, spans_since
from repro.obs.manifest import run_manifest

__all__ = [
    "ExperimentTable",
    "Profile",
    "register",
    "get_experiment",
    "all_experiments",
    "run_experiment",
    "validate_profile",
    "trial_jobs",
    "map_trials",
    "execute_trials",
]

_T = TypeVar("_T")
_R = TypeVar("_R")

PROFILES = ("quick", "full")
Profile = str


def validate_profile(profile: Profile) -> Profile:
    """Reject unknown profiles before any work is spent on them.

    Every entry point that takes a profile should call this first: a typo
    like ``"fulll"`` must fail immediately with a clear message, not leak
    into ``seeds_for`` deep inside an experiment (or, worse, into an
    experiment that never consults the seed ladder and silently runs at
    some default scale).
    """
    if profile not in PROFILES:
        raise ExperimentError(
            f"unknown profile {profile!r}; use one of {PROFILES}"
        )
    return profile


@dataclasses.dataclass
class ExperimentTable:
    """One reproduced table/series with provenance.

    Attributes
    ----------
    experiment_id:
        Index id from DESIGN.md (e.g. ``"E5"``).
    title:
        Human-readable description with the paper reference.
    columns:
        Column names, in display order.
    rows:
        One dict per row; keys must cover ``columns``.
    expectation:
        What the paper predicts this table should show.
    conclusion:
        Free-text verdict filled by the experiment (e.g. fitted slope).
    manifest:
        Run provenance (:func:`repro.obs.manifest.run_manifest`) stamped by
        :func:`run_experiment`: git revision, interpreter, ``REPRO_JOBS``,
        profile, plus the aggregated profiling spans of the run.
        Environment-dependent by design, so bit-identity comparisons
        (serial vs parallel tables) look at ``rows``/``conclusion``, never
        the manifest.
    metrics:
        Canonical dump (:meth:`~repro.obs.metrics.MetricsRegistry.collect`
        shape) of the metrics this run produced — the default-registry
        delta scoped to the experiment, workers' deltas already merged in.
        Unlike the manifest's spans, these are clock-free and therefore
        identical between serial and ``REPRO_JOBS=N`` runs.
    """

    experiment_id: str
    title: str
    columns: list[str]
    rows: list[dict[str, Any]]
    expectation: str = ""
    conclusion: str = ""
    manifest: Optional[dict[str, Any]] = None
    metrics: Optional[dict[str, Any]] = None

    def column(self, name: str) -> list[Any]:
        """All values of one column, in row order."""
        if name not in self.columns:
            raise ExperimentError(f"unknown column {name!r} in {self.experiment_id}")
        values = []
        for index, row in enumerate(self.rows):
            if name not in row:
                raise ExperimentError(
                    f"row {index} of {self.experiment_id} is missing column "
                    f"{name!r}"
                )
            values.append(row[name])
        return values

    def to_text(self) -> str:
        """Render as an aligned plain-text table."""

        def fmt(value: Any) -> str:
            if isinstance(value, bool):
                return "yes" if value else "no"
            if isinstance(value, float):
                return f"{value:.3g}"
            return str(value)

        header = [self.columns]
        body = [[fmt(row.get(col, "")) for col in self.columns] for row in self.rows]
        widths = [
            max(len(line[i]) for line in header + body)
            for i in range(len(self.columns))
        ]
        lines = [f"== {self.experiment_id}: {self.title} =="]
        if self.expectation:
            lines.append(f"expectation: {self.expectation}")
        lines.append("  ".join(c.ljust(w) for c, w in zip(self.columns, widths)))
        lines.append("  ".join("-" * w for w in widths))
        for line in body:
            lines.append("  ".join(v.ljust(w) for v, w in zip(line, widths)))
        if self.conclusion:
            lines.append(f"conclusion: {self.conclusion}")
        if self.manifest is not None:
            provenance = " ".join(
                f"{key}={self.manifest[key]}"
                for key in ("git_rev", "python", "repro_jobs", "profile")
                if self.manifest.get(key) is not None
            )
            if provenance:
                lines.append(f"manifest: {provenance}")
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.to_text()


_REGISTRY: dict[str, Callable[[Profile], ExperimentTable]] = {}


def register(experiment_id: str) -> Callable:
    """Decorator registering an experiment function under its index id."""

    def wrap(fn: Callable[[Profile], ExperimentTable]):
        if experiment_id in _REGISTRY:
            raise ExperimentError(f"duplicate experiment id {experiment_id!r}")
        _REGISTRY[experiment_id] = fn
        return fn

    return wrap


def get_experiment(experiment_id: str) -> Callable[[Profile], ExperimentTable]:
    """Look up an experiment by index id (importing the experiment modules)."""
    _ensure_loaded()
    if experiment_id not in _REGISTRY:
        raise ExperimentError(
            f"unknown experiment {experiment_id!r}; known: {sorted(_REGISTRY)}"
        )
    return _REGISTRY[experiment_id]


def all_experiments() -> dict[str, Callable[[Profile], ExperimentTable]]:
    """All registered experiments by id."""
    _ensure_loaded()
    return dict(_REGISTRY)


def seeds_for(profile: Profile, quick: int = 3, full: int = 10) -> Sequence[int]:
    """The seed ladder for a profile."""
    validate_profile(profile)
    return range(quick) if profile == "quick" else range(full)


def trial_jobs() -> int:
    """Worker count for seed-ladder fan-out, from the ``REPRO_JOBS`` env var.

    Parallelism is strictly opt-in: unset, empty, or ``1`` means serial
    (the default — simulations are deterministic and debugging is easiest
    in-process).  ``auto`` or ``0`` means one worker per CPU; any other
    value must parse as a positive integer.
    """
    raw = os.environ.get("REPRO_JOBS", "").strip().lower()
    if not raw or raw == "1":
        return 1
    if raw in ("auto", "0"):
        return os.cpu_count() or 1
    try:
        jobs = int(raw)
    except ValueError:
        raise ExperimentError(
            f"REPRO_JOBS must be a positive integer or 'auto', got {raw!r}"
        ) from None
    if jobs < 1:
        raise ExperimentError(f"REPRO_JOBS must be >= 1, got {jobs}")
    return jobs


_POOL: Optional[ProcessPoolExecutor] = None
_POOL_JOBS = 0


def _init_worker() -> None:
    # Worker initializer: a trial that itself calls map_trials (an
    # experiment helper reused inside a trial) must run serially — nested
    # pools would fork a pool per worker.  A forked worker also inherits
    # the backend and checked() scopes active when the pool started;
    # reset them, since each trial enters its caller's scopes instead.
    from repro.sim import invariants, vector

    os.environ["REPRO_JOBS"] = "1"
    vector._BACKEND_STACK[:] = ["scalar"]
    invariants._CHECKED_DEPTH = 0


def _shared_pool(jobs: int) -> ProcessPoolExecutor:
    """The process pool shared by every ``map_trials`` call in this process.

    Experiments issue many small fan-outs (one per parameter config), so
    paying worker startup per call would swamp the trials themselves; the
    pool is created once, resized if ``REPRO_JOBS`` changes between calls,
    and shut down at interpreter exit.
    """
    global _POOL, _POOL_JOBS
    if _POOL is not None and _POOL_JOBS != jobs:
        _POOL.shutdown()
        _POOL = None
    if _POOL is None:
        _POOL = ProcessPoolExecutor(
            max_workers=jobs, initializer=_init_worker
        )
        _POOL_JOBS = jobs
    return _POOL


@atexit.register
def _shutdown_pool() -> None:
    global _POOL
    if _POOL is not None:
        _POOL.shutdown()
        _POOL = None


def _run_trial_with_spans(
    fn: Callable[[_T], _R], backend: str, checking: bool, item: _T
):
    # Pool-worker wrapper: run the trial under the caller's backend and
    # checked() scopes, and ship the profiling spans and metrics it
    # produced back alongside the result, so the parent can merge worker
    # telemetry into its own registries (workers are separate processes
    # with separate registries).  Module-level so it pickles.
    # The worker registry is dropped outright rather than snapshotted:
    # pool workers outlive individual experiments, and a surviving peak
    # gauge (set_max) from an earlier experiment's trial would otherwise
    # ride home inside this trial's delta and break serial/parallel
    # metric equivalence.
    from repro.sim.invariants import checked
    from repro.sim.vector import engine_backend

    spans_before = span_snapshot()
    default_registry().reset()
    with contextlib.ExitStack() as stack:
        stack.enter_context(engine_backend(backend))
        if checking:
            stack.enter_context(checked())
        with span("harness.trial"):
            result = fn(item)
    return result, spans_since(spans_before), metrics_since({})


def _pool_trials(
    fn: Callable[[_T], _R], items: list[_T], jobs: int
) -> list[tuple]:
    """The pooled path of :func:`map_trials` and :func:`execute_trials`:
    ``(result, span delta, metrics delta)`` per trial, each run in the
    caller's scopes, with the deltas merged into the ambient registries."""
    from repro.sim.invariants import checking_enabled
    from repro.sim.vector import current_engine_backend

    wrapped = functools.partial(
        _run_trial_with_spans, fn, current_engine_backend(), checking_enabled()
    )
    triples = list(_shared_pool(jobs).map(wrapped, items))
    for _, span_delta, metrics_delta in triples:
        merge_spans(span_delta)
        merge_metrics(metrics_delta)
    return triples


def map_trials(fn: Callable[[_T], _R], items: Iterable[_T]) -> list[_R]:
    """Map ``fn`` over independent trials, preserving input order.

    Runs serially when :func:`trial_jobs` is 1, otherwise fans the trials
    over the shared :class:`~concurrent.futures.ProcessPoolExecutor`.
    ``pool.map`` returns results in input order regardless of completion
    order and each trial re-seeds its own RNGs, so a parallel run produces
    bit-identical tables to a serial one.  ``fn`` and the items must be
    picklable — use a module-level function (or :func:`functools.partial`
    over one), not a closure.

    Either way every trial is timed under the ``harness.trial`` profiling
    span, and in the parallel case each worker's span and metrics deltas
    are merged back into the parent registries — span *counts* and all
    metric values are identical between serial and parallel runs of the
    same trials (metrics never read a clock).
    """
    items = list(items)
    # Sweep interception: under an active repro.experiments.sharding
    # scope, trials are addressed, checkpointed, and possibly loaded from
    # the sweep store instead of recomputed.  Lazy import — the plain
    # harness must not pay for (or depend on) the sharding layer.
    from repro.experiments import sharding

    scope = sharding.active_sweep()
    if scope is not None:
        return scope.map_call(fn, items)
    jobs = trial_jobs()
    if jobs <= 1 or len(items) <= 1:
        results = []
        for item in items:
            with span("harness.trial"):
                results.append(fn(item))
        return results
    return [result for result, _, _ in _pool_trials(fn, items, jobs)]


def execute_trials(fn: Callable[[_T], _R], items: Sequence[_T]) -> list[tuple]:
    """Run trials and return ``(result, span delta, metrics delta)`` triples.

    The telemetry-preserving core of :func:`map_trials`, exposed for the
    sweep layer: each trial's deltas are folded into the ambient
    registries here (so in-process consumers see them exactly as
    ``map_trials`` would deliver) *and* returned per-trial so the caller
    can persist them — the same triple pool workers ship home, whichever
    path executed the trial.

    Serial trials capture their delta by snapshot/``since`` around the
    ``harness.trial`` span without resetting the registries (the writes
    already landed in-registry, so merging again would double-count);
    pooled trials use the existing worker wrapper and are merged here.
    """
    items = list(items)
    jobs = trial_jobs()
    if jobs <= 1 or len(items) <= 1:
        triples = []
        for item in items:
            spans_before = span_snapshot()
            metrics_before = metrics_snapshot()
            with span("harness.trial"):
                result = fn(item)
            triples.append(
                (result, spans_since(spans_before), metrics_since(metrics_before))
            )
        return triples
    return _pool_trials(fn, items, jobs)


def run_experiment(
    experiment_id: str,
    profile: Profile = "quick",
    checked: bool = False,
    backend: Optional[str] = None,
) -> ExperimentTable:
    """Run one experiment, optionally under full model-invariant checking.

    With ``checked=True`` every :class:`~repro.sim.engine.Engine` the
    experiment constructs (directly or through any protocol runner) gets
    the default invariant checkers attached via the
    :func:`repro.sim.invariants.checked` scope — a run that violates the
    model raises :class:`~repro.errors.SimulationError` instead of
    producing a quietly wrong table.

    ``backend`` selects the engine backend every protocol runner inside
    the experiment defaults to (via the
    :func:`repro.sim.vector.engine_backend` scope); ``None`` leaves the
    ambient default in place.  Only experiments built from oblivious
    protocols can run on the vector backend.
    """
    validate_profile(profile)
    fn = get_experiment(experiment_id)
    spans_before = span_snapshot()
    metrics_before = metrics_snapshot()
    with contextlib.ExitStack() as stack:
        stack.enter_context(span(f"experiment.{experiment_id}"))
        if backend is not None:
            from repro.sim.vector import engine_backend

            stack.enter_context(engine_backend(backend))
        if checked:
            from repro.sim import invariants

            stack.enter_context(invariants.checked())
        table = fn(profile)
    scoped = MetricsRegistry()
    scoped.merge(metrics_since(metrics_before))
    table.metrics = scoped.collect()
    extras: dict[str, object] = {}
    state_cells = table.metrics.get("sim_state_bytes", {}).get("values", ())
    if state_cells:
        # Peak rumor-state bytes across the experiment's runs, so memory
        # regressions show up in provenance next to the timing spans.
        extras["peak_state_bytes"] = max(cell["value"] for cell in state_cells)
        extras["state_layouts"] = sorted(
            {cell["labels"].get("layout", "unknown") for cell in state_cells}
        )
    table.manifest = run_manifest(
        experiment=experiment_id,
        profile=profile,
        checked=checked,
        backend=backend,
        spans={
            name: {"count": count, "seconds": total, "max_seconds": maximum}
            for name, (count, total, maximum) in sorted(
                spans_since(spans_before).items()
            )
        },
        **extras,
    )
    return table


def _ensure_loaded() -> None:
    # Import experiment modules for their registration side effects.
    from repro.experiments import (  # noqa: F401
        e01_guessing,
        e03_theorem6,
        e04_theorem7,
        e05_theorem8,
        e06_pushpull,
        e07_spanner,
        e08_eid,
        e10_path_discovery,
        e11_unified,
        e12_ring,
        e13_dtg,
        e14_ablations,
        e15_failures,
        e16_restricted,
    )
