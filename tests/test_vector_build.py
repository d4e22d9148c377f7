"""Engine build and round data movement of the vector fast path.

Guards on :class:`~repro.sim.vector.VectorEngine`'s array paths:

* **Per-node rng parity.**  The array round draws every random cohort
  through one :class:`~repro.sim.streams.StreamWindow`: fresh
  seed-addressed handles are word-window rows, redrawn in batched passes
  when rejected, and any other rng is a live row calling its own
  ``_randbelow``.  On graphs whose degrees are not powers of two (so
  draws are rejected) every node's stream must end in the state the
  scalar engine leaves it in, for push--pull and the gated push and pull
  variants, for cohorts of plain ``random.Random`` objects, of a
  subclass, and of all kinds of rng mixed in one window.  Recorded runs
  under an in-degree cap must emit the scalar engine's rejections.
* **Allocation and cycle budget.**  A fast-path or mirror-path build
  from a declared cohort (``PushPullProtocol.cohort(seed)``) allocates a
  constant number of GC-tracked objects, whatever ``n``: no protocol,
  program, context or rng.  From a per-node factory it allocates at most
  two per node (the rng and the protocol; the program is shared).
  Neither holds a reference cycle — a dropped engine is freed by
  reference counting alone — and the in-flight
  entries one round sends share no memory, so each frees its rows when
  delivered.  A broadcast round gathers no payload row at all: every
  sender is saturated, so its payload is the shared full-row marker.
* **A fixed rumor universe.**  Interning a rumor mid-run raises, even
  when the state's storage does not grow.
* **A timed stage.**  The ``vector.deliver`` span counts one delivery
  stage per engine round and per streamed block round.
* **Counters without the edge set.**  Reading a run's counters never
  folds the activated-edge mask into its set of node pairs; reading
  ``activated_edges`` does, exactly.
"""

import gc
import itertools
import random
import weakref

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.graphs.generators import erdos_renyi, erdos_renyi_fast, star
from repro.graphs.latency_models import uniform_latency
from repro.obs.profile import reset_spans, span_aggregates
from repro.obs.recorder import Recorder
from repro.protocols.base import per_node_rng_factory
from repro.protocols.push_pull import PullProtocol, PushProtocol, PushPullProtocol
from repro.sim import vector as vector_module
from repro.sim.engine import Engine
from repro.sim import run_streamed_all_to_all
from repro.sim.runner import (
    all_to_all_complete,
    broadcast_complete,
    run_until_complete,
)
from repro.sim.state import VectorState
from repro.sim.streams import SeedStream
from repro.sim.vector import VectorEngine

RUMOR = "r"


class _SubclassRandom(random.Random):
    """A ``random.Random`` subclass: a live row of its cohort's window,
    drawn through the subclass's own ``_randbelow``."""


def _mixed(key, position):
    """Every kind of rng in one cohort, by node position: fresh handles
    (window rows), plain and subclass ``Random`` objects, and handles
    materialised before the build (live rows)."""
    kind = position % 4
    if kind == 0:
        return SeedStream(key)
    if kind == 1:
        return random.Random(key)
    if kind == 2:
        return _SubclassRandom(key)
    handle = SeedStream(key)
    handle.getstate()
    return handle


RNGS = {
    "random": lambda key, _: random.Random(key),
    "subclass": lambda key, _: _SubclassRandom(key),
    "mixed": _mixed,
}


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


def _run(engine_cls, graph, variant, make_rng, recorded, cap=None):
    rngs = {}
    position = {node: p for p, node in enumerate(graph.nodes())}

    def factory(node):
        rngs[node] = make_rng(f"5:{node!r}", position[node])
        return _protocol(variant, rngs[node])

    state = VectorState(graph.nodes())
    state.add_rumor(graph.nodes()[0], RUMOR)
    recorder = Recorder.in_memory() if recorded else None
    engine = engine_cls(
        graph, factory, state=state, recorder=recorder, max_incoming_per_round=cap
    )
    engine.run(until=broadcast_complete(RUMOR), max_rounds=10_000)
    return engine, rngs, recorder and recorder.events


@pytest.mark.parametrize("recorded", [False, True], ids=["plain", "recorded"])
@pytest.mark.parametrize("make_rng", list(RNGS.values()), ids=list(RNGS))
@pytest.mark.parametrize("variant", ["push-pull", "push", "pull"])
@pytest.mark.parametrize("graph_name", ["er60", "star21"])
def test_per_node_rng_parity(graph_name, variant, make_rng, recorded):
    graph = _graphs()[graph_name]
    vector, vector_rngs, vector_events = _run(
        VectorEngine, graph, variant, make_rng, recorded
    )
    assert vector._mirror == recorded
    if make_rng is _mixed:
        # Window rows and live rows share the window until the reads below.
        rows = vector._window_ids.tolist()
        window_rows = {t for t, i in enumerate(rows) if i % 4 == 0}
        assert window_rows and set(vector._window._live) == (
            set(range(len(rows))) - window_rows
        )
    scalar, scalar_rngs, scalar_events = _run(
        Engine, graph, variant, make_rng, recorded
    )
    assert (vector.round, vector.metrics) == (scalar.round, scalar.metrics)
    assert vector_events == scalar_events
    for node in graph.nodes():
        assert vector.state.rumors(node) == scalar.state.rumors(node)
        assert vector_rngs[node].getstate() == scalar_rngs[node].getstate()


@pytest.mark.parametrize("cap", [1, 2])
@pytest.mark.parametrize("graph_name", ["er60", "star21"])
def test_recorded_cap_parity(graph_name, cap):
    """The batched mirror under an in-degree cap emits the scalar run's
    rejected and accepted initiations, in scan order."""
    graph = _graphs()[graph_name]
    vector, _, vector_events = _run(
        VectorEngine, graph, "push-pull", RNGS["mixed"], True, cap
    )
    assert vector._mirror
    scalar, _, scalar_events = _run(
        Engine, graph, "push-pull", RNGS["mixed"], True, cap
    )
    assert vector.metrics.rejected_initiations > 0
    assert (vector.round, vector.metrics) == (scalar.round, scalar.metrics)
    assert vector_events == scalar_events


def test_parity_graphs_reject_draws():
    """The parity graphs have degrees that are not powers of two, so the
    rejection redraw actually runs."""
    for graph in _graphs().values():
        degrees = {graph.degree(node) for node in graph.nodes()}
        assert any(d & (d - 1) for d in degrees)


# ----------------------------------------------------------------------
N = 2000
#: Objects a build may keep besides its per-node ones: the engine, its
#: dicts and lists, metrics, cohort tables, and the like.
SLACK = 50


@pytest.fixture(scope="module")
def graph():
    return erdos_renyi_fast(N, 8 / N, uniform_latency(1, 8), random.Random(0))


def _per_node_factory():
    make_rng = per_node_rng_factory(0)
    return lambda node: PushPullProtocol(make_rng(node))


def _build(graph, recorder_factory, make_factory=_per_node_factory):
    state = VectorState(graph.nodes())
    state.add_rumor(graph.nodes()[0], RUMOR)
    return VectorEngine(
        graph, make_factory(), state=state, recorder=recorder_factory()
    )


@pytest.mark.parametrize(
    "recorder_factory",
    [lambda: None, Recorder.in_memory],
    ids=["fast", "mirror"],
)
def test_build_allocation_and_cycle_budget(graph, recorder_factory):
    legs = [
        ("per-node", _per_node_factory, 2 * N + SLACK),
        ("declared", lambda: PushPullProtocol.cohort(0), SLACK),
    ]
    for leg, make_factory, budget in legs:
        _build(graph, recorder_factory, make_factory)  # warm class and CSR caches
        enabled = gc.isenabled()
        gc.disable()
        try:
            before = len(gc.get_objects())
            engine = _build(graph, recorder_factory, make_factory)
            grown = len(gc.get_objects()) - before
            assert grown <= budget, f"{leg}: {grown} tracked objects for n={N}"
            for _ in range(5):
                engine.step()
            assert engine.metrics.exchanges > 0
            # A protocol built on demand keeps no cycle either.
            assert engine.protocol(graph.nodes()[1])._rng.position() > 0
            ref = weakref.ref(engine)
            del engine
            assert ref() is None, f"{leg}: engine kept alive by a reference cycle"
        finally:
            if enabled:
                gc.enable()


def _buffer(array):
    """The array owning ``array``'s memory (itself unless it is a view)."""
    while isinstance(array.base, np.ndarray):
        array = array.base
    return array


def _entries(engine):
    """Every entry in flight in ``engine``'s delivery stage."""
    return [entry for due in engine._stage.due.values() for entry in due]


def _all_to_all(graph):
    make_rng = per_node_rng_factory(0)
    state = VectorState(graph.nodes())
    state.seed_self_rumors()
    return VectorEngine(
        graph, lambda node: PushPullProtocol(make_rng(node)), state=state
    )


def test_round_buckets_share_no_memory(graph):
    """Each in-flight entry owns its rows and payload: disjoint slices of
    one round-wide array would not overlap, but would pin that whole
    array until the slowest entry is delivered, so buffers are compared,
    not just the views."""
    engine = _all_to_all(graph)
    engine.step()
    entries = _entries(engine)
    assert len(entries) > 1
    assert all(pack is not None for _, pack, _ in entries)
    buffers = [[_buffer(array) for array in (rows, *pack)] for rows, pack, _ in entries]
    for mine, theirs in itertools.combinations(buffers, 2):
        for a, b in itertools.product(mine, theirs):
            assert not np.shares_memory(a, b)


def test_broadcast_round_gathers_no_payload(graph):
    """A broadcast row knows one rumor or none: empty senders are dropped
    and every other sender is saturated, so its round sends only the
    full-row marker (``None`` in place of a gathered pack)."""
    engine = _build(graph, lambda: None)
    sent = 0
    while not broadcast_complete(RUMOR)(engine):
        engine.step()
        entries = _entries(engine)
        sent += len(entries)
        assert all(pack is None for _, pack, _ in entries)
    assert sent > 0


def test_rumor_interned_mid_run_raises():
    """A new rumor that fits the state's first word leaves the matrix
    width unchanged, but it changes what a saturated row is; rumors past
    that word widen the state into a new matrix, which leaves the
    delivery stage holding a stale one."""
    for late in (["late"], [("late", i) for i in range(64)]):
        engine = _all_to_all(star(8))
        engine.step()
        for rumor in late:
            engine.state.add_rumor(engine.graph.nodes()[0], rumor)
        widened = engine.state._words is not engine._stage.words
        assert widened == (len(late) > 1)
        with pytest.raises(SimulationError, match="rumor space grew mid-run"):
            engine.step()


def test_delivery_stage_is_spanned():
    """``vector.deliver`` times the one delivery stage: once per engine
    round, and once per round of every rumor block of a streamed run."""
    graph = _graphs()["er60"]
    reset_spans()
    engine = _all_to_all(graph)
    result = run_until_complete(engine, all_to_all_complete(), "all-to-all")
    assert span_aggregates()["vector.deliver"]["count"] == result.rounds
    reset_spans()
    report = run_streamed_all_to_all(graph, seed=0, block_rumors=16)
    assert report.blocks == 4
    blocks_rounds = sum(phase.rounds for phase in report.phases)
    assert span_aggregates()["vector.deliver"]["count"] == blocks_rounds


def test_counters_never_fold_activated_edges(monkeypatch):
    """``run_until_complete`` reads the counters of the engine's metrics;
    on the vector backend that must not build the activated-edge set."""
    folds = []
    fold = vector_module._fold_edges

    def counted(*args):
        folds.append(args)
        return fold(*args)

    monkeypatch.setattr(vector_module, "_fold_edges", counted)
    graph = _graphs()["er60"]
    runs = []
    for engine_cls in (VectorEngine, Engine):
        make_rng = per_node_rng_factory(0)
        state = VectorState(graph.nodes())
        state.add_rumor(graph.nodes()[0], RUMOR)
        engine = engine_cls(
            graph, lambda node: PushPullProtocol(make_rng(node)), state=state
        )
        result = run_until_complete(engine, broadcast_complete(RUMOR), "push-pull")
        runs.append((engine, result))
    (vector, vector_result), (scalar, scalar_result) = runs
    assert vector_result == scalar_result and vector_result.exchanges > 0
    assert not folds
    assert vector.metrics.activated_edges == scalar.metrics.activated_edges
    assert vector.metrics == scalar.metrics
    assert len(folds) == 1
    vector.step()
    scalar.step()
    assert vector.metrics == scalar.metrics
    assert len(folds) == 2
