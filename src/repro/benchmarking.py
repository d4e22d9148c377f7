"""Microbenchmarks: the wall-clock trajectory of the hot paths.

This module defines small, stable sets of workloads and a runner that
times them and writes JSON reports under ``benchmarks/results/``.
:data:`repro.obs.regress.SUITE_FILES` is the benchmark record: one
report and one baseline file per suite, read by this runner, by the
gate and by ``repro regress``.  Its suites:

* ``engine`` — the simulation core: scalar/vector push--pull pairs on
  shared graphs, raw rumor-state churn (:class:`~repro.sim.state.VectorState`),
  done-node scheduling overhead, the phase-chained composite, the ℓ-DTG
  pair and vector flooding at ``n = 2.5·10^5``; writes
  ``BENCH_engine.json``.
* ``engine_scale`` — mega-scale vector-backend runs (``n = 10^5`` quick,
  ``n = 10^6`` full) recording peak rumor-state bytes and the layout
  label, so the memory story is gated like the timing story; writes
  ``BENCH_engine_scale.json``.
* ``conductance`` — the analysis pipeline (the ``φ_ℓ`` sweep-cut profile
  behind Definitions 1-2, single-threshold sweeps, ``φ*``/``ℓ*``);
  writes ``BENCH_conductance.json``.
* ``e2e`` — the six end-to-end workloads of ``BENCHMARK.json``, timed by
  ``bench/run.py`` (not by this runner); ``BENCH_e2e.json`` and its
  baseline are that script's results files, committed as written.

Every workload entry additionally records ``peak_rss_kb`` — the
process-wide resident-set high-water mark (``getrusage``) after the
workload ran — as a schema-compatible additive field.

The workloads use only the public library API, so the same definitions
can time any revision — that is how before/after numbers for a
performance PR are produced:

* ``python -m repro.benchmarking --suite conductance --profile full
  --write-baseline`` on the old revision captures
  ``BENCH_conductance_baseline.json``;
* the same command without ``--write-baseline`` (or the pytest suites
  ``benchmarks/test_bench_*_micro.py``) on the new revision writes the
  report embedding the baseline and per-workload speedups.

See ``docs/PERFORMANCE.md`` for how to read the numbers.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import pathlib
import platform
import subprocess
import sys
import time
from typing import Any, Callable, Optional

from repro.obs.regress import RESULTS_DIR, SUITE_FILES

__all__ = [
    "Workload",
    "engine_microbenchmarks",
    "engine_scale_microbenchmarks",
    "conductance_microbenchmarks",
    "microbenchmark_suite",
    "run_microbenchmarks",
    "peak_rss_kb",
    "write_report",
    "RESULTS_DIR",
    "BENCH_PATH",
    "BASELINE_PATH",
    "BENCH_CONDUCTANCE_PATH",
    "CONDUCTANCE_BASELINE_PATH",
    "BENCH_ENGINE_SCALE_PATH",
    "ENGINE_SCALE_BASELINE_PATH",
]

BENCH_PATH, BASELINE_PATH = SUITE_FILES["engine"]
BENCH_CONDUCTANCE_PATH, CONDUCTANCE_BASELINE_PATH = SUITE_FILES["conductance"]
BENCH_ENGINE_SCALE_PATH, ENGINE_SCALE_BASELINE_PATH = SUITE_FILES["engine_scale"]


def peak_rss_kb() -> Optional[int]:
    """The process resident-set high-water mark in KiB (``None`` if
    the platform lacks ``resource``; ``ru_maxrss`` is KiB on Linux)."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return None
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


@dataclasses.dataclass(frozen=True)
class Workload:
    """One named, deterministic engine workload.

    ``run`` executes the workload once and returns metadata to record
    (e.g. the completion round) — the runner times the call around it.
    ``warmup=False`` skips the untimed warmup run: the mega-scale
    workloads are dominated by steady-state array ops, and a second
    multi-minute run would double the suite's wall clock for nothing.
    """

    name: str
    description: str
    run: Callable[[], dict[str, Any]]
    repeats: int = 3
    warmup: bool = True


# ----------------------------------------------------------------------
# Workload definitions.  Keep these stable: BENCH_engine.json numbers are
# only comparable across revisions if the workloads never change shape.
# ----------------------------------------------------------------------

def _state_ops_workload(n: int, sweeps: int, repeats: int) -> Workload:
    def run() -> dict[str, Any]:
        from repro.sim.state import VectorState

        state = VectorState(range(n))
        state.seed_self_rumors()
        merges = 0
        for _ in range(sweeps):
            for node in range(n):
                state.merge(node, state.snapshot((node + 1) % n))
                merges += 1
            for node in range(n):
                state.count_knowing(node)
        return {"merges": merges, "n": n}

    return Workload(
        name=f"state_ops_n{n}",
        description=(
            f"raw rumor-state churn: {sweeps} ring sweeps of "
            "snapshot+merge plus count_knowing over every rumor"
        ),
        run=run,
        repeats=repeats,
    )


def _done_skip_workload(n: int, rounds: int, repeats: int) -> Workload:
    def run() -> dict[str, Any]:
        from repro.graphs.generators import cycle
        from repro.sim.engine import Engine, NodeProtocol

        class Chatter(NodeProtocol):
            """Node 0 keeps pinging its successor; everyone else is done."""

            def __init__(self, node):
                self._node = node

            def on_round(self, ctx):
                return 1 if self._node == 0 else None

            def is_done(self, ctx):
                return self._node != 0

        graph = cycle(n)
        engine = Engine(graph, Chatter)
        engine.run(until=lambda e: e.round >= rounds)
        return {"rounds": engine.round, "n": n}

    return Workload(
        name=f"done_skip_n{n}",
        description=(
            f"round-scan overhead: {n}-cycle where all but one node is "
            f"done from round 0, driven for {rounds} rounds"
        ),
        run=run,
        repeats=repeats,
    )


@functools.lru_cache(maxsize=None)
def _vector_bench_graph(n: int, avg_degree: float, max_latency: int):
    """The shared engine-backend benchmark graph: connected ER, 1..max_latency.

    Sampled with :func:`~repro.graphs.generators.erdos_renyi_fast` (the
    per-pair sampler is ``O(n²)`` and infeasible at ``n = 10^5``) and
    memoized so scalar and vector workloads time the *engines* on the very
    same graph, not graph construction.
    """
    import random

    from repro.graphs import generators
    from repro.graphs.latency_models import uniform_latency

    return generators.erdos_renyi_fast(
        n,
        avg_degree / n,
        latency_model=uniform_latency(1, max_latency),
        rng=random.Random(0),
    )


def _backend_pushpull_workload(
    backend: str, n: int, avg_degree: float, repeats: int, mode: str = "broadcast"
) -> Workload:
    def run() -> dict[str, Any]:
        from repro.protocols.push_pull import run_push_pull

        graph = _vector_bench_graph(n, avg_degree, 8)
        result = run_push_pull(graph, mode=mode, seed=0, backend=backend)
        return {
            "rounds": result.rounds,
            "exchanges": result.exchanges,
            "n": n,
            "backend": backend,
        }

    return Workload(
        name=f"pushpull_{mode}_{backend}_er_n{n}",
        description=(
            f"push--pull {mode} on the {backend} backend over fast-sampled "
            f"Erdős–Rényi G({n}, {avg_degree}/n) with uniform latencies 1..8, seed 0"
        ),
        run=run,
        repeats=repeats,
    )


def _backend_flooding_workload(n: int, avg_degree: float, repeats: int) -> Workload:
    def run() -> dict[str, Any]:
        from repro.protocols.flooding import run_flooding

        graph = _vector_bench_graph(n, avg_degree, 8)
        result = run_flooding(graph, backend="vector")
        return {"rounds": result.rounds, "exchanges": result.exchanges, "n": n}

    return Workload(
        name=f"flooding_vector_er_n{n}",
        description=(
            f"round-robin flooding on the vector backend over fast-sampled "
            f"Erdős–Rényi G({n}, {avg_degree}/n) with uniform latencies 1..8, "
            "seed 0 (scale smoke toward n = 10^6)"
        ),
        run=run,
        repeats=repeats,
    )


def _composite_chain_workload(
    backend: str, n: int, avg_degree: float, repeats: int
) -> Workload:
    """Phase-chained composite: broadcast phase, then all-to-all phase.

    The composite-dispatch acceptance workload: both phases are
    vector-eligible, so under ``backend="vector"`` the chain rides the
    array fast path end to end — including the state carry-over between
    phases (the one-word broadcast state widens in place when the second
    phase grows the rumor universe to all ``n`` ids).
    """

    def run() -> dict[str, Any]:
        from repro.protocols.base import PhaseRunner
        from repro.protocols.push_pull import PushPullProtocol
        from repro.sim.runner import min_rumors_complete
        from repro.sim.state import VectorState

        graph = _vector_bench_graph(n, avg_degree, 8)
        nodes = graph.nodes()
        state = VectorState(nodes)
        state.add_rumor(nodes[0], "chain-seed")
        runner = PhaseRunner(graph, state=state, backend=backend)
        cohort = PushPullProtocol.cohort(0)
        runner.run_phase(
            cohort,
            until=min_rumors_complete(1),
            name="broadcast",
        )
        runner.state.seed_self_rumors()
        runner.run_phase(
            cohort,
            until=min_rumors_complete(n + 1),
            name="all-to-all",
        )
        return {
            "rounds": runner.total_rounds,
            "exchanges": runner.total_exchanges,
            "n": n,
            "backend": backend,
            "phase_backends": [phase.backend for phase in runner.phases],
        }

    return Workload(
        name=f"composite_chain_{backend}_er_n{n}",
        description=(
            f"phase-chained push--pull (broadcast, then all-to-all over the "
            f"same state) on the {backend} backend via PhaseRunner over "
            f"fast-sampled Erdős–Rényi G({n}, {avg_degree}/n), latencies 1..8"
        ),
        run=run,
        repeats=repeats,
    )


def _ldtg_workload(
    backend: str, n: int, avg_degree: float, max_latency: int, repeats: int
) -> Workload:
    """ℓ-DTG — the E13 acceptance workload — on one engine backend.

    In a plain run the vector leg replays the phase as a lockstep ℓ-DTG
    plan on the array fast path; the pair is its speedup point.
    """

    def run() -> dict[str, Any]:
        from repro.protocols.dtg import run_ldtg

        graph = _vector_bench_graph(n, avg_degree, 8)
        result = run_ldtg(graph, max_latency, backend=backend)
        return {
            "rounds": result.rounds,
            "exchanges": result.exchanges,
            "n": n,
            "backend": backend,
            "complete": result.complete,
        }

    return Workload(
        name=f"ldtg_{backend}_er_n{n}",
        description=(
            f"{max_latency}-DTG (ℓ-local broadcast measurement phase) on "
            f"the {backend} backend over fast-sampled Erdős–Rényi "
            f"G({n}, {avg_degree}/n), latencies 1..8"
        ),
        run=run,
        repeats=repeats,
    )


def engine_microbenchmarks(profile: str) -> list[Workload]:
    """The engine suite for one profile (``quick`` or ``full``).

    Every push--pull point is a scalar/vector pair on one shared graph:
    broadcast and all-to-all at ``n = 400`` (quick) and ``n = 10^4``
    (full, the speedup points of PERFORMANCE.md *Measured speedups*).
    Around them: raw state churn, done-node scheduling, the phase-chained
    composite, and in the full profile the ℓ-DTG pair and vector flooding
    at ``n = 2.5·10^5``.  The ``n = 10^5`` broadcast, EID and recorded
    broadcast paths are left to ``bench/`` (``broadcast_vec_n1e5``,
    ``eid_vec_n300``, ``recorded_broadcast_n1e4``), which the ``e2e``
    suite gates.
    """
    from repro.experiments.harness import validate_profile

    validate_profile(profile)
    if profile == "quick":
        return [
            _backend_pushpull_workload("scalar", n=400, avg_degree=12.0, repeats=3),
            _backend_pushpull_workload("vector", n=400, avg_degree=12.0, repeats=3),
            _backend_pushpull_workload(
                "scalar", n=400, avg_degree=12.0, repeats=3, mode="all_to_all"
            ),
            _backend_pushpull_workload(
                "vector", n=400, avg_degree=12.0, repeats=3, mode="all_to_all"
            ),
            _state_ops_workload(n=400, sweeps=3, repeats=3),
            _done_skip_workload(n=400, rounds=2000, repeats=3),
            _composite_chain_workload("vector", n=2000, avg_degree=16.0, repeats=3),
        ]
    return [
        _backend_pushpull_workload("scalar", n=10_000, avg_degree=16.0, repeats=1),
        _backend_pushpull_workload("vector", n=10_000, avg_degree=16.0, repeats=3),
        _backend_pushpull_workload(
            "scalar", n=10_000, avg_degree=16.0, repeats=1, mode="all_to_all"
        ),
        _backend_pushpull_workload(
            "vector", n=10_000, avg_degree=16.0, repeats=1, mode="all_to_all"
        ),
        _state_ops_workload(n=2000, sweeps=3, repeats=1),
        _done_skip_workload(n=2000, rounds=2000, repeats=1),
        _backend_flooding_workload(n=250_000, avg_degree=8.0, repeats=1),
        _composite_chain_workload("scalar", n=10_000, avg_degree=16.0, repeats=1),
        _composite_chain_workload("vector", n=10_000, avg_degree=16.0, repeats=3),
        _ldtg_workload("scalar", n=1000, avg_degree=16.0, max_latency=2, repeats=3),
        _ldtg_workload("vector", n=1000, avg_degree=16.0, max_latency=2, repeats=3),
    ]


def _scale_broadcast_workload(
    n: int,
    avg_degree: float,
    repeats: int,
    warmup: bool = True,
) -> Workload:
    def run() -> dict[str, Any]:
        from repro.obs.metrics import MetricsRegistry, metrics_since, metrics_snapshot
        from repro.protocols.push_pull import run_push_pull

        graph = _vector_bench_graph(n, avg_degree, 8)
        before = metrics_snapshot()
        result = run_push_pull(graph, mode="broadcast", seed=0, backend="vector")
        scoped = MetricsRegistry()
        scoped.merge(metrics_since(before))
        cells = scoped.collect().get("sim_state_bytes", {}).get("values", [])
        return {
            "rounds": result.rounds,
            "exchanges": result.exchanges,
            "n": n,
            "backend": "vector",
            # The memory acceptance numbers: the state's layout label
            # and how many bytes its rumor state held at completion.
            "peak_state_bytes": max((cell["value"] for cell in cells), default=0),
            "layout": ",".join(
                sorted({cell["labels"].get("layout", "?") for cell in cells})
            ),
        }

    return Workload(
        name=f"scale_pushpull_broadcast_n{n}",
        description=(
            f"push--pull broadcast on the vector backend over fast-sampled "
            f"Erdős–Rényi G({n}, {avg_degree}/n) with uniform latencies 1..8, "
            "seed 0, recording peak rumor-state bytes and the layout label"
        ),
        run=run,
        repeats=repeats,
        warmup=warmup,
    )


def _scale_streamed_all_to_all_workload(
    n: int,
    avg_degree: float,
    repeats: int,
    max_state_bytes: int,
    warmup: bool = False,
) -> Workload:
    """Streamed all-to-all: the full ``n x n`` dissemination in blocks.

    Runs :func:`~repro.sim.stream.run_streamed_all_to_all` — the recorded
    schedule replayed per rumor block, each over its own bit matrix — whose
    result is bit-identical to the monolithic vector-backend all-to-all
    while only one block slice is resident.  Latencies are 1..2 (not the
    suite's usual 1..8): all-to-all wall clock scales with the completion
    round times ``n^2``, and the shorter latencies keep the benchmark's
    round count — and hours — honest at ``n = 10^6``.
    """

    def run() -> dict[str, Any]:
        from repro.sim.stream import run_streamed_all_to_all

        graph = _vector_bench_graph(n, avg_degree, 2)
        report = run_streamed_all_to_all(
            graph, seed=0, max_state_bytes=max_state_bytes
        )
        result = report.result
        return {
            "rounds": result.rounds,
            "exchanges": result.exchanges,
            "n": n,
            "backend": "vector",
            "blocks": report.blocks,
            "block_rumors": report.block_rumors,
            "max_state_bytes": max_state_bytes,
            # The memory acceptance numbers, matching the broadcast
            # entries: one block slice is the peak rumor-state residency.
            "peak_state_bytes": report.peak_state_bytes,
            "layout": "chunked",
        }

    return Workload(
        name=f"scale_pushpull_all_to_all_streamed_n{n}",
        description=(
            f"push--pull all-to-all streamed over rumor blocks (recorded "
            f"schedule, chunked layout, {max_state_bytes >> 20} MB state "
            f"budget) on fast-sampled Erdős–Rényi G({n}, {avg_degree}/n) "
            "with uniform latencies 1..2, seed 0, bit-identical to the "
            "monolithic vector-backend run"
        ),
        run=run,
        repeats=repeats,
        warmup=warmup,
    )


def engine_scale_microbenchmarks(profile: str) -> list[Workload]:
    """The mega-scale suite: vector-backend runs with memory accounting.

    The ``full`` profile holds the PR acceptance workloads: a true
    ``n = 10^6`` push--pull broadcast whose rumor state must stay O(n)
    (one bitset word per node — 8 MB — where an all-to-all bitset matrix
    would need ~125 GB), and the ``n = 10^6`` *all-to-all* run streamed
    over rumor blocks (the dense state would be ~125 GB; the streamed
    peak is one block slice under a 16 GiB budget).  The ``quick``
    profile is the CI smoke at ``n = 10^5`` — workload 0 must stay the
    broadcast run and workload 1 the streamed all-to-all, both small
    enough to run under an enforced memory ceiling (see
    ``benchmarks/test_bench_engine_scale.py``).
    """
    from repro.experiments.harness import validate_profile

    validate_profile(profile)
    if profile == "quick":
        return [
            _scale_broadcast_workload(n=100_000, avg_degree=8.0, repeats=1),
            _scale_streamed_all_to_all_workload(
                n=100_000, avg_degree=8.0, repeats=1, max_state_bytes=1 << 28
            ),
        ]
    return [
        _scale_broadcast_workload(n=100_000, avg_degree=8.0, repeats=1),
        _scale_streamed_all_to_all_workload(
            n=100_000, avg_degree=8.0, repeats=1, max_state_bytes=1 << 28
        ),
        _scale_broadcast_workload(
            n=1_000_000, avg_degree=8.0, repeats=1, warmup=False
        ),
        _scale_streamed_all_to_all_workload(
            n=1_000_000, avg_degree=8.0, repeats=1, max_state_bytes=16 << 30
        ),
    ]


@functools.lru_cache(maxsize=None)
def _bench_graph(n: int, p: float, max_latency: int):
    """The shared conductance-benchmark graph: connected ER, 1..max_latency.

    Memoized so the untimed warmup run pays for graph *generation* and the
    timed repeats measure only the analysis pipeline under test.
    """
    import random

    from repro.graphs import generators
    from repro.graphs.latency_models import uniform_latency

    return generators.erdos_renyi(
        n, p, latency_model=uniform_latency(1, max_latency), rng=random.Random(0)
    )


def _sweep_profile_workload(n: int, p: float, max_latency: int, repeats: int) -> Workload:
    def run() -> dict[str, Any]:
        from repro.conductance.sweep import sweep_conductance_profile

        graph = _bench_graph(n, p, max_latency)
        profile = sweep_conductance_profile(graph)
        return {
            "n": n,
            "edges": graph.num_edges,
            "thresholds": len(profile),
            "phi_max": round(max(profile.values()), 6),
        }

    return Workload(
        name=f"sweep_profile_er_n{n}",
        description=(
            f"sweep_conductance_profile over all distinct latency thresholds "
            f"of Erdős–Rényi G({n}, {p}) with uniform latencies 1..{max_latency}, seed 0"
        ),
        run=run,
        repeats=repeats,
    )


def _sweep_single_workload(n: int, p: float, max_latency: int, repeats: int) -> Workload:
    def run() -> dict[str, Any]:
        from repro.conductance.sweep import sweep_conductance

        graph = _bench_graph(n, p, max_latency)
        # The mid threshold keeps both the spectral solve and the prefix
        # evaluation honest: G_ℓ is a strict, connected-ish subgraph.
        ell = max_latency // 2
        phi = sweep_conductance(graph, ell)
        return {"n": n, "ell": ell, "phi": round(phi, 6)}

    return Workload(
        name=f"sweep_single_er_n{n}",
        description=(
            f"single-threshold sweep_conductance (ℓ = {max_latency // 2}) on "
            f"Erdős–Rényi G({n}, {p}) with uniform latencies 1..{max_latency}, seed 0"
        ),
        run=run,
        repeats=repeats,
    )


def _weighted_conductance_workload(n: int, p: float, max_latency: int, repeats: int) -> Workload:
    def run() -> dict[str, Any]:
        from repro.conductance.weighted import weighted_conductance

        graph = _bench_graph(n, p, max_latency)
        result = weighted_conductance(graph, method="sweep")
        return {
            "n": n,
            "ell_star": result.critical_latency,
            "phi_star": round(result.phi_star, 6),
        }

    return Workload(
        name=f"weighted_conductance_er_n{n}",
        description=(
            f"weighted_conductance (φ*/ℓ* over the full profile, sweep method) "
            f"on Erdős–Rényi G({n}, {p}) with uniform latencies 1..{max_latency}, seed 0"
        ),
        run=run,
        repeats=repeats,
    )


def conductance_microbenchmarks(profile: str) -> list[Workload]:
    """The conductance/analysis microbenchmark suite for one profile.

    The ``full``-profile ``sweep_profile_er_n2000`` entry is the PR
    acceptance workload: the profile over all distinct thresholds of a
    ``G(n=2000)`` latency graph.
    """
    from repro.experiments.harness import validate_profile

    validate_profile(profile)
    if profile == "quick":
        return [
            _sweep_profile_workload(n=400, p=0.03, max_latency=8, repeats=3),
            _sweep_single_workload(n=400, p=0.03, max_latency=8, repeats=3),
            _weighted_conductance_workload(n=400, p=0.03, max_latency=8, repeats=3),
        ]
    return [
        _sweep_profile_workload(n=2000, p=0.008, max_latency=8, repeats=1),
        _sweep_single_workload(n=2000, p=0.008, max_latency=8, repeats=1),
        _weighted_conductance_workload(n=2000, p=0.008, max_latency=8, repeats=1),
    ]


#: The suites this runner times; ``e2e`` is timed by ``bench/run.py``.
_SUITE_BUILDERS: dict[str, Callable[[str], list[Workload]]] = {
    "engine": engine_microbenchmarks,
    "engine_scale": engine_scale_microbenchmarks,
    "conductance": conductance_microbenchmarks,
}


def microbenchmark_suite(suite: str, profile: str) -> list[Workload]:
    """The workloads of one suite this runner times."""
    if suite not in _SUITE_BUILDERS:
        raise ValueError(
            f"unknown benchmark suite {suite!r}; use one of {tuple(_SUITE_BUILDERS)}"
            " (the e2e suite is timed by bench/run.py)"
        )
    return _SUITE_BUILDERS[suite](profile)


# ----------------------------------------------------------------------
# Runner and report writer.
# ----------------------------------------------------------------------

def _git_commit() -> Optional[str]:
    """The short ``HEAD`` hash, suffixed ``-dirty`` when tracked files
    differ from it, so a report never names code it did not run."""

    def git(*args: str) -> str:
        return subprocess.run(
            ["git", *args],
            cwd=pathlib.Path(__file__).parent,
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip()

    try:
        commit = git("rev-parse", "--short", "HEAD")
        if commit and git("status", "--porcelain", "--untracked-files=no"):
            commit += "-dirty"
    except OSError:
        return None
    return commit or None


def run_microbenchmarks(
    profile: str,
    progress: Optional[Callable[[str], None]] = None,
    suite: str = "engine",
) -> dict[str, Any]:
    """Time every workload of ``suite``/``profile``; return a report dict.

    Each workload gets one untimed warmup run (so one-time costs — lazy
    scipy imports, allocator growth — don't pollute the measurement), then
    runs ``repeats`` times and records the *best* wall-clock time (the
    standard way to suppress scheduler noise on a shared box).
    """
    workloads = microbenchmark_suite(suite, profile)
    entries: dict[str, Any] = {}
    for workload in workloads:
        best = None
        meta: dict[str, Any] = {}
        if workload.warmup:
            workload.run()
        for _ in range(workload.repeats):
            start = time.perf_counter()
            meta = workload.run()
            elapsed = time.perf_counter() - start
            best = elapsed if best is None else min(best, elapsed)
        rss = peak_rss_kb()
        entries[workload.name] = {
            "seconds": round(best, 4),
            "repeats": workload.repeats,
            "description": workload.description,
            **({"peak_rss_kb": rss} if rss is not None else {}),
            **meta,
        }
        if progress is not None:
            progress(f"{workload.name}: {best:.3f}s  {meta}")
    return {
        "schema": f"repro-{suite}-bench/1",
        "profile": profile,
        "captured_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "commit": _git_commit(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "workloads": entries,
    }


def write_report(
    report: dict[str, Any],
    out_path: pathlib.Path = BENCH_PATH,
    baseline_path: pathlib.Path = BASELINE_PATH,
) -> dict[str, Any]:
    """Merge the baseline (if captured) into ``report`` and write it.

    For every workload present in both runs a ``speedup`` factor
    (baseline seconds / current seconds) is recorded, so regressions show
    up as factors below 1.0 directly in the JSON artifact.
    """
    if baseline_path.exists():
        baseline = json.loads(baseline_path.read_text())
        report = dict(report)
        report["baseline"] = {
            "label": baseline.get("label"),
            "captured_at": baseline.get("captured_at"),
            "commit": baseline.get("commit"),
            "workloads": baseline.get("workloads", {}),
        }
        speedups = {}
        for name, entry in report["workloads"].items():
            base = report["baseline"]["workloads"].get(name)
            if base and entry["seconds"] > 0:
                speedups[name] = round(base["seconds"] / entry["seconds"], 2)
        report["speedup"] = speedups
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return report


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.benchmarking", description="hot-path microbenchmarks"
    )
    parser.add_argument("--profile", default="quick", choices=["quick", "full", "both"])
    parser.add_argument(
        "--suite",
        default="engine",
        choices=list(_SUITE_BUILDERS),
        help="which workload suite to run",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="write the suite's *_baseline.json instead of its report",
    )
    parser.add_argument("--label", default=None, help="free-text label for the run")
    parser.add_argument("--out", default=None, help="override the output path")
    args = parser.parse_args(argv)

    bench_path, baseline_path = SUITE_FILES[args.suite]
    profiles = ["quick", "full"] if args.profile == "both" else [args.profile]
    merged: dict[str, Any] = {}
    for profile in profiles:
        report = run_microbenchmarks(profile, progress=print, suite=args.suite)
        if not merged:
            merged = report
        else:
            merged["workloads"].update(report["workloads"])
            merged["profile"] = "both"
    if args.label:
        merged["label"] = args.label
    if args.write_baseline:
        out = pathlib.Path(args.out) if args.out else baseline_path
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(merged, indent=2, sort_keys=True) + "\n")
        print(f"baseline written to {out}")
    else:
        out = pathlib.Path(args.out) if args.out else bench_path
        write_report(merged, out_path=out, baseline_path=baseline_path)
        print(f"report written to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
