"""Shared Hypothesis strategies for randomized engine/protocol testing.

Centralizes the graph/seed/latency-model generators that the property
suites (``tests/test_properties.py``, ``tests/test_differential.py``) and
any future fuzzing harness draw from, so every randomized test explores
the same well-shaped input space: connected weighted graphs built as a
random spanning tree plus extra edges, integer latencies drawn from one
of the paper's latency models, and plain integer seeds.

Importing this module requires ``hypothesis``; the package ``__init__``
gates the import so the rest of :mod:`repro.testing` (reference engine,
differential runner, replay) works without it.
"""

from __future__ import annotations

import random

from hypothesis import strategies as st

from repro.graphs.latency_graph import LatencyGraph
from repro.graphs.latency_models import (
    LatencyModel,
    bimodal_latency,
    constant_latency,
    uniform_latency,
    zipf_latency,
)
from repro.sim.failures import CrashSchedule

__all__ = [
    "seeds",
    "latency_models",
    "connected_latency_graphs",
    "large_dense_graphs",
    "crash_schedules",
    "engine_configs",
    "sweep_recipes",
    "fault_points",
    "trial_plans",
]


def seeds(max_seed: int = 10_000) -> st.SearchStrategy[int]:
    """Plain integer RNG seeds, shrinking toward 0."""
    return st.integers(min_value=0, max_value=max_seed)


@st.composite
def latency_models(draw, max_latency: int = 8) -> LatencyModel:
    """One of the paper's latency models, with drawn parameters.

    Covers the unweighted baseline (constant 1), uniformly random integer
    latencies, the lower-bound gadgets' bimodal fast/slow mix, and the
    heavy-tailed Zipf model.
    """
    kind = draw(st.sampled_from(["constant", "uniform", "bimodal", "zipf"]))
    if kind == "constant":
        return constant_latency(draw(st.integers(min_value=1, max_value=max_latency)))
    if kind == "uniform":
        low = draw(st.integers(min_value=1, max_value=max_latency))
        high = draw(st.integers(min_value=low, max_value=max_latency))
        return uniform_latency(low, high)
    if kind == "bimodal":
        fast = draw(st.integers(min_value=1, max_value=max(1, max_latency // 2)))
        slow = draw(st.integers(min_value=fast, max_value=max_latency))
        probability = draw(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
        )
        return bimodal_latency(fast, slow, probability)
    return zipf_latency(max_latency)


@st.composite
def connected_latency_graphs(
    draw,
    min_nodes: int = 2,
    max_nodes: int = 10,
    max_latency: int = 8,
    latency_model: LatencyModel = None,
    density: float = None,
) -> LatencyGraph:
    """A connected :class:`LatencyGraph`: random spanning tree + extra edges.

    Latencies come from ``latency_model`` when given, otherwise from a
    freshly drawn :func:`latency_models` instance — so by default the
    strategy also varies the latency *distribution*, not just the wiring.

    ``density`` (a fraction of the ``n·(n-1)/2`` possible edges) pins the
    extra-edge budget for denser graphs; by default the strategy draws a
    sparse budget of up to ``2n`` extras.
    """
    n = draw(st.integers(min_value=min_nodes, max_value=max_nodes))
    seed = draw(seeds())
    model = (
        latency_model
        if latency_model is not None
        else draw(latency_models(max_latency=max_latency))
    )
    rng = random.Random(seed)
    graph = LatencyGraph(nodes=range(n))
    order = list(range(n))
    rng.shuffle(order)
    for i in range(1, n):
        parent = order[rng.randrange(i)]
        graph.add_edge(order[i], parent, model(order[i], parent, rng))
    if density is None:
        extra = draw(st.integers(min_value=0, max_value=2 * n))
    else:
        cap = max(0, int(density * n * (n - 1) / 2))
        extra = draw(st.integers(min_value=cap // 2, max_value=cap))
    for _ in range(extra):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v and not graph.has_edge(u, v):
            graph.add_edge(u, v, model(u, v, rng))
    return graph


def large_dense_graphs(
    min_nodes: int = 20, max_nodes: int = 40, max_latency: int = 8
) -> st.SearchStrategy[LatencyGraph]:
    """Larger, denser connected graphs for stressing the fast-path layout.

    Bitset masks, adjacency index arrays, and the delivery buckets all
    behave differently once node counts and degrees grow past toy sizes;
    the differential and equivalence suites draw from this strategy to
    cover that regime.
    """
    return connected_latency_graphs(
        min_nodes=min_nodes,
        max_nodes=max_nodes,
        max_latency=max_latency,
        density=0.5,
    )


@st.composite
def crash_schedules(
    draw, nodes, max_round: int = 10, protect=()
) -> CrashSchedule:
    """A deterministic :class:`CrashSchedule` over a subset of ``nodes``.

    At least one node always survives, and nodes in ``protect`` (e.g. the
    broadcast source) are never crashed.
    """
    candidates = [node for node in nodes if node not in set(protect)]
    max_crashes = max(0, len(candidates) - (0 if protect else 1))
    victims = draw(
        st.lists(
            st.sampled_from(candidates) if candidates else st.nothing(),
            unique=True,
            max_size=max_crashes,
        )
        if candidates
        else st.just([])
    )
    rounds = draw(
        st.lists(
            st.integers(min_value=0, max_value=max_round),
            min_size=len(victims),
            max_size=len(victims),
        )
    )
    return CrashSchedule(dict(zip(victims, rounds)))


@st.composite
def sweep_recipes(draw, experiment_ids=None):
    """A :class:`repro.experiments.sharding.SweepRecipe` over the registry.

    By default draws the experiment id from a fixed, registry-shaped pool
    (``E1``..``E16``) rather than importing every experiment module —
    fingerprint properties (determinism, sensitivity to each field) hold
    for any id string.  Pass ``experiment_ids`` to restrict to runnable
    experiments for end-to-end sweep properties.
    """
    from repro.experiments.sharding import SweepRecipe

    pool = (
        list(experiment_ids)
        if experiment_ids is not None
        else [f"E{index}" for index in range(1, 17)]
    )
    return SweepRecipe(
        experiment_id=draw(st.sampled_from(pool)),
        profile=draw(st.sampled_from(["quick", "full"])),
        checked=draw(st.booleans()),
        backend=draw(st.sampled_from([None, "scalar", "vector"])),
    )


@st.composite
def fault_points(draw, max_ordinal: int = 64) -> str:
    """A valid ``REPRO_FAULT_AT`` spec string.

    Spans the whole grammar: all four kinds, explicit and defaulted
    modes.  Feed to :func:`repro.experiments.sharding.parse_fault` or the
    :func:`~repro.experiments.sharding.fault_injection` scope.  ``exit``
    and ``kill`` modes are included — callers that can only survive
    ``raise`` (in-process suites) should pass the spec through
    ``parse_fault`` and filter on the mode, or draw with
    ``fault_points().filter(lambda s: s.endswith(':raise'))``.
    """
    kind = draw(st.sampled_from(["trial", "call", "merge", "final"]))
    parts = [kind]
    if kind in ("trial", "call"):
        parts.append(str(draw(st.integers(min_value=0, max_value=max_ordinal))))
    explicit_mode = draw(st.booleans())
    if explicit_mode:
        parts.append(draw(st.sampled_from(["raise", "exit", "kill"])))
    return ":".join(parts)


def trial_plans(
    max_calls: int = 6, max_call_size: int = 8
) -> st.SearchStrategy[list]:
    """Per-call trial counts shaped like a real sweep's ``map_trials`` calls.

    The raw input to :func:`repro.experiments.sharding.trial_plan` /
    :func:`~repro.experiments.sharding.shard_assignment` — a short list of
    small call sizes (including empty calls, which real experiments
    produce for degenerate parameter rungs).
    """
    return st.lists(
        st.integers(min_value=0, max_value=max_call_size),
        min_size=0,
        max_size=max_calls,
    )


@st.composite
def engine_configs(draw) -> dict:
    """Engine keyword arguments spanning the model variants.

    Draws ``fresh_snapshots`` (initiation-time vs delivery-time payload
    snapshots) and ``max_incoming_per_round`` (the restricted in-degree
    model of E16); pass the dict straight to ``Engine(**config)`` or
    ``run_differential``.
    """
    return {
        "fresh_snapshots": draw(st.booleans()),
        "max_incoming_per_round": draw(
            st.one_of(st.none(), st.integers(min_value=1, max_value=4))
        ),
    }
