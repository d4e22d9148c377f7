"""Engine build and round data movement of the vector fast path.

Two guards on :class:`~repro.sim.vector.VectorEngine`'s array paths:

* **Per-node rng parity.**  The fast path replays ``Random.choice`` as
  ``getrandbits`` draws with the rejected ones redrawn in batched passes.
  On graphs whose degrees are not powers of two (so draws are rejected)
  every node's stream must end in the state the scalar engine leaves it
  in, for push--pull and the gated push and pull variants, and for rngs
  of a ``random.Random`` subclass (the ``_randbelow`` fallback).
* **Allocation and cycle budget.**  A fast-path or mirror-path build
  allocates at most four GC-tracked objects per node (rng, protocol, its
  neighbor list, its program), holds no reference cycle — a dropped
  engine is freed by reference counting alone — and the buckets one
  round records share no memory, so each frees its rows when delivered.
"""

import gc
import itertools
import random
import weakref

import numpy as np
import pytest

from repro.graphs.generators import erdos_renyi, erdos_renyi_fast, star
from repro.graphs.latency_models import uniform_latency
from repro.obs.recorder import Recorder
from repro.protocols.base import per_node_rng_factory
from repro.protocols.push_pull import PullProtocol, PushProtocol, PushPullProtocol
from repro.sim.engine import Engine
from repro.sim.runner import broadcast_complete
from repro.sim.state import NetworkState
from repro.sim.vector import VectorEngine

RUMOR = "r"


class _SubclassRandom(random.Random):
    """A ``random.Random`` subclass: the vector backend cannot assume the
    C ``getrandbits`` replay and draws through ``_randbelow`` instead."""


def _graphs():
    return {
        "er60": erdos_renyi(60, 0.1, uniform_latency(1, 4), random.Random(3)),
        "star21": star(21, uniform_latency(1, 3), random.Random(4)),
    }


def _protocol(variant, rng):
    if variant == "push-pull":
        return PushPullProtocol(rng)
    cls = PushProtocol if variant == "push" else PullProtocol
    return cls(rng, RUMOR)


def _run(engine_cls, graph, variant, rng_cls, recorded):
    rngs = {}

    def factory(node):
        rngs[node] = rng_cls(f"5:{node!r}")
        return _protocol(variant, rngs[node])

    state = NetworkState(graph.nodes())
    state.add_rumor(graph.nodes()[0], RUMOR)
    recorder = Recorder.in_memory() if recorded else None
    engine = engine_cls(graph, factory, state=state, recorder=recorder)
    engine.run(until=broadcast_complete(RUMOR), max_rounds=10_000)
    return engine, rngs, recorder and recorder.events


@pytest.mark.parametrize("recorded", [False, True], ids=["plain", "recorded"])
@pytest.mark.parametrize(
    "rng_cls", [random.Random, _SubclassRandom], ids=["random", "subclass"]
)
@pytest.mark.parametrize("variant", ["push-pull", "push", "pull"])
@pytest.mark.parametrize("graph_name", ["er60", "star21"])
def test_per_node_rng_parity(graph_name, variant, rng_cls, recorded):
    graph = _graphs()[graph_name]
    vector, vector_rngs, vector_events = _run(
        VectorEngine, graph, variant, rng_cls, recorded
    )
    assert not vector._sequential and vector._mirror == recorded
    scalar, scalar_rngs, scalar_events = _run(
        Engine, graph, variant, rng_cls, recorded
    )
    assert (vector.round, vector.metrics) == (scalar.round, scalar.metrics)
    assert vector_events == scalar_events
    for node in graph.nodes():
        assert vector.state.rumors(node) == scalar.state.rumors(node)
        assert vector_rngs[node].getstate() == scalar_rngs[node].getstate()


def test_parity_graphs_reject_draws():
    """The parity graphs have degrees that are not powers of two, so the
    rejection redraw actually runs."""
    for graph in _graphs().values():
        degrees = {graph.degree(node) for node in graph.nodes()}
        assert any(d & (d - 1) for d in degrees)


# ----------------------------------------------------------------------
N = 2000
#: Objects a build may keep besides its four per-node ones: the engine,
#: its dicts and lists, metrics, cohort tables, and the like.
SLACK = 100


@pytest.fixture(scope="module")
def graph():
    return erdos_renyi_fast(N, 8 / N, uniform_latency(1, 8), random.Random(0))


def _build(graph, recorder_factory):
    make_rng = per_node_rng_factory(0)
    state = NetworkState(graph.nodes())
    state.add_rumor(graph.nodes()[0], RUMOR)
    return VectorEngine(
        graph,
        lambda node: PushPullProtocol(make_rng(node)),
        state=state,
        recorder=recorder_factory(),
    )


@pytest.mark.parametrize(
    "recorder_factory",
    [lambda: None, Recorder.in_memory],
    ids=["fast", "mirror"],
)
def test_build_allocation_and_cycle_budget(graph, recorder_factory):
    _build(graph, recorder_factory)  # warm class and CSR caches
    enabled = gc.isenabled()
    gc.disable()
    try:
        before = len(gc.get_objects())
        engine = _build(graph, recorder_factory)
        grown = len(gc.get_objects()) - before
        assert grown <= 4 * N + SLACK, f"{grown} tracked objects for n={N}"
        for _ in range(5):
            engine.step()
        assert engine.metrics.exchanges > 0
        ref = weakref.ref(engine)
        del engine
        assert ref() is None, "engine kept alive by a reference cycle"
    finally:
        if enabled:
            gc.enable()


def _buffer(array):
    """The array owning ``array``'s memory (itself unless it is a view)."""
    while isinstance(array.base, np.ndarray):
        array = array.base
    return array


def test_round_buckets_share_no_memory(graph):
    """Each bucket owns its rows: disjoint slices of one round-wide array
    would not overlap, but would pin that whole array until the slowest
    bucket is delivered, so buffers are compared, not just the views."""
    engine = _build(graph, lambda: None)
    engine.step()
    batches = [batch for bucket in engine._buckets.values() for batch in bucket]
    assert len(batches) > 1
    buffers = [
        [
            _buffer(array)
            for array in (
                batch.initiators,
                batch.responders,
                *batch.initiator_payloads,
                *batch.responder_payloads,
            )
        ]
        for batch in batches
    ]
    for mine, theirs in itertools.combinations(buffers, 2):
        for a, b in itertools.product(mine, theirs):
            assert not np.shares_memory(a, b)
