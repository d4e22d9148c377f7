"""Seed-addressed streams (:mod:`repro.sim.streams`) against ``random.Random``.

* **Kernel.**  :func:`first_words` must return exactly the words
  ``random.Random(key).getrandbits(32)`` returns, for keys in every
  ``len % 4`` class, non-ASCII and tuple node reprs, negative and
  multi-digit seeds, on cohorts seeded by the numpy kernel and by the
  ``Random`` path below the crossover.
* **Engine parity.**  On the vector engine's array paths a cohort of
  :class:`SeedStream` handles draws from word windows; every node's
  ``protocol(node)._rng.getstate()`` must equal the scalar engine's after
  runs long enough to refill every window at least twice, for push--pull,
  push and pull, plain and recorded, also when some handles are read
  mid-run (which hands their rows to the live ``Random``).  Each case
  runs twice on the vector engine: from a per-node factory of handles,
  and from the declared cohort (``PushPullProtocol.cohort(seed)``), whose
  protocols are built only when ``protocol(node)`` asks, with handles
  linked to their window rows.
* **Handles.**  Inspecting, copying or pickling a handle neither builds
  its ``Random`` nor loses its position.
"""

import copy
import pickle
import random

import numpy as np
import pytest

from repro.graphs.generators import erdos_renyi, star
from repro.graphs.latency_models import uniform_latency
from repro.obs.recorder import Recorder
from repro.protocols.base import per_node_rng_factory
from repro.protocols.push_pull import PullProtocol, PushProtocol, PushPullProtocol
from repro.sim import streams
from repro.sim.engine import Engine
from repro.sim.state import VectorState
from repro.sim.streams import SeedStream, first_words, stream_words
from repro.sim.vector import VectorEngine

RUMOR = "r"
NODES = [0, 9, 10, 123, 4567, -5, "ab", "é", "节点", ("x", 1), (2, (3, "ü"))]
SEEDS = [0, 7, -3, 12345678901]
KEYS = [f"{seed}:{node!r}" for seed in SEEDS for node in NODES]


def _oracle(key: str, count: int) -> list[int]:
    rng = random.Random(key)
    return [rng.getrandbits(32) for _ in range(count)]


def test_keys_cover_every_length_class():
    assert {len(key.encode()) % 4 for key in KEYS} == {0, 1, 2, 3}


@pytest.mark.parametrize("crossover", [1, 10**9], ids=["kernel", "random"])
def test_first_words_bit_exact(monkeypatch, crossover):
    monkeypatch.setattr(streams, "CROSSOVER", crossover)
    keys = KEYS + ["\0lead", "", "x" * 3000]
    words = first_words(keys, 227)
    assert words.dtype == np.uint32 and words.shape == (len(keys), 227)
    for key, row in zip(keys, words):
        assert row.tolist() == _oracle(key, 227), key


def test_first_words_natural_cohort_above_crossover():
    """Enough same-length keys that the kernel runs without patching,
    in batches smaller than the cohort, next to a group below it."""
    keys = [f"-41:{i!r}" for i in range(10_000, 10_000 + streams.CROSSOVER + 50)]
    keys += [f"-41:{i!r}" for i in range(20)]
    words = first_words(keys, 40)
    for key, row in zip(keys, words):
        assert row.tolist() == _oracle(key, 40), key


def test_first_words_in_batches(monkeypatch):
    monkeypatch.setattr(streams, "CROSSOVER", 1)
    monkeypatch.setattr(streams, "BATCH", 5)
    keys = [f"3:{i!r}" for i in range(17)] + KEYS
    random.Random(0).shuffle(keys)
    words = first_words(keys, 16)
    for key, row in zip(keys, words):
        assert row.tolist() == _oracle(key, 16), key


def test_first_words_width_bound():
    first_words(KEYS[:1], 227)
    with pytest.raises(ValueError):
        first_words(KEYS[:1], 228)


def test_stream_words_from_an_offset():
    key = KEYS[5]
    assert stream_words(key, 300, 9).tolist() == _oracle(key, 309)[300:]


# ----------------------------------------------------------------------
def _graphs():
    return {
        "er60": erdos_renyi(60, 0.1, uniform_latency(1, 4), random.Random(3)),
        "star21": star(21, uniform_latency(1, 3), random.Random(4)),
    }


def _factory(variant, declared):
    """``variant``'s protocols over ``per_node_rng_factory(5)``'s streams:
    the declared cohort, or a per-node factory of handles."""
    if declared:
        if variant == "push-pull":
            return PushPullProtocol.cohort(5)
        cls = PushProtocol if variant == "push" else PullProtocol
        return cls.cohort(5, RUMOR)
    make_rng = per_node_rng_factory(5)

    def factory(node):
        rng = make_rng(node)
        if variant == "push-pull":
            return PushPullProtocol(rng)
        cls = PushProtocol if variant == "push" else PullProtocol
        return cls(rng, RUMOR)

    return factory


def _run(
    engine_cls, graph, variant, holders, rounds, recorded, read_at=None, declared=False
):
    """``rounds`` rounds of ``variant`` from ``per_node_rng_factory(5)``;
    at round ``read_at`` every third node's rng state is read."""
    factory = _factory(variant, declared)

    state = VectorState(graph.nodes())
    for node in holders(graph.nodes()):
        state.add_rumor(node, RUMOR)
    recorder = Recorder.in_memory() if recorded else None
    engine = engine_cls(graph, factory, state=state, recorder=recorder)
    for rnd in range(rounds):
        if rnd == read_at:
            for node in graph.nodes()[::3]:
                engine.protocol(node)._rng.getstate()
        engine.step()
    return engine, recorder and recorder.events


def _assert_parity(graph, variant, holders, rounds, recorded, read_at=None):
    """Both vector runs (per-node handles, declared cohort) against the
    scalar run; returns the per-node run's window and live node ids."""
    scalar, scalar_events = _run(
        Engine, graph, variant, holders, rounds, recorded, read_at
    )
    runs = []
    for declared in (False, True):
        vector, vector_events = _run(
            VectorEngine, graph, variant, holders, rounds, recorded, read_at, declared
        )
        assert vector._mirror == recorded
        window = vector._window
        live = vector._window_ids[sorted(window._live)].tolist()
        assert (vector.round, vector.metrics) == (scalar.round, scalar.metrics)
        assert vector_events == scalar_events
        for node in graph.nodes():
            assert vector.state.rumors(node) == scalar.state.rumors(node)
            assert (
                vector.protocol(node)._rng.getstate()
                == scalar.protocol(node)._rng.getstate()
            ), (declared, node)
        runs.append((window, live))
    (window, live), (declared_window, declared_live) = runs
    assert declared_live == live
    assert (declared_window._base == window._base).all()
    return window, live


#: Who knows the rumor at the start: push then draws in every round (all
#: informed), pull too (nobody ever is), push--pull always does.
HOLDERS = {
    "push-pull": lambda nodes: nodes[:1],
    "push": lambda nodes: nodes,
    "pull": lambda nodes: [],
}


@pytest.mark.parametrize("crossover", [1, 10**9], ids=["kernel", "random"])
@pytest.mark.parametrize("recorded", [False, True], ids=["plain", "recorded"])
@pytest.mark.parametrize("variant", ["push-pull", "push", "pull"])
@pytest.mark.parametrize("graph_name", ["er60", "star21"])
def test_rng_state_parity_through_refills(
    monkeypatch, graph_name, variant, recorded, crossover
):
    monkeypatch.setattr(streams, "CROSSOVER", crossover)
    rounds = 300
    window, _ = _assert_parity(
        _graphs()[graph_name], variant, HOLDERS[variant], rounds, recorded
    )
    # Every node drew at least once per round: every window moved on
    # past its first two fills.
    assert int(window._base.min()) >= 2 * streams.WINDOW


@pytest.mark.parametrize("read_at", [None, 6], ids=["unread", "read"])
@pytest.mark.parametrize("recorded", [False, True], ids=["plain", "recorded"])
@pytest.mark.parametrize("variant", ["push", "pull"])
def test_gated_parity_with_small_windows(monkeypatch, variant, recorded, read_at):
    """Gates that open and close mid-run, with four-word windows so that
    gated-out rows sit at every pointer position when they refill, and
    with some rows handed to their live Random while gated."""
    monkeypatch.setattr(streams, "WINDOW", 4)
    window, live = _assert_parity(
        _graphs()["er60"], variant, lambda nodes: nodes[:1], 40, recorded, read_at
    )
    assert int(window._base.max()) >= 2 * 4
    assert bool(live) == (read_at is not None)


@pytest.mark.parametrize("recorded", [False, True], ids=["plain", "recorded"])
def test_mid_run_read_keeps_parity(recorded):
    graph = _graphs()["er60"]
    _, live = _assert_parity(
        graph, "push-pull", HOLDERS["push-pull"], 300, recorded, 100
    )
    # The rows read mid-run were handed to their live Random.
    read = [graph.index_of(node) for node in graph.nodes()[::3]]
    assert live == [i for i in read if graph.degree(graph.nodes()[i])]


def test_handles_adopted_by_later_engines():
    """A handle still linked to a finished engine's window, or restored
    from a pickle part-way through its stream, draws from its live
    Random in the next engine, from where it stood."""
    graph = _graphs()["er60"]
    make_rng = per_node_rng_factory(1)
    handles = {node: make_rng(node) for node in graph.nodes()}
    twins = {node: random.Random(f"1:{node!r}") for node in graph.nodes()}

    def run(rngs):
        engine = VectorEngine(graph, lambda node: PushPullProtocol(rngs[node]))
        for _ in range(150):
            engine.step()

    run(handles)
    clones = pickle.loads(pickle.dumps(handles))
    assert not any(clone.materialised for clone in clones.values())
    run(handles)
    run(clones)
    run(twins)
    run(twins)
    for node in graph.nodes():
        assert handles[node].getstate() == twins[node].getstate()
        assert clones[node].getstate() == twins[node].getstate()


# ----------------------------------------------------------------------
def test_handle_is_its_random():
    handle, twin = SeedStream(KEYS[3]), random.Random(KEYS[3])
    assert not handle.materialised
    assert [handle.random() for _ in range(5)] == [twin.random() for _ in range(5)]
    assert handle.materialised
    # Bound methods are cached on the handle: later calls run no
    # __getattr__ frame.
    assert "random" in vars(handle)
    assert handle.getstate() == twin.getstate()


def test_inspecting_or_pickling_does_not_materialise():
    """For handles from a per-node factory and for the handles a declared
    cohort's protocols are built with on demand."""
    graph = _graphs()["er60"]
    make_rng = per_node_rng_factory(2)
    factories = [
        lambda node: PushPullProtocol(make_rng(node)),
        PushPullProtocol.cohort(2),
    ]
    for factory in factories:
        engine = VectorEngine(graph, factory)
        for _ in range(30):
            engine.step()
        node = graph.nodes()[4]
        handle = engine.protocol(node)._rng
        assert engine.protocol(node)._rng is handle
        position = handle.position()
        assert position >= 30
        clones = [
            copy.copy(handle),
            copy.deepcopy(handle),
            pickle.loads(pickle.dumps(handle)),
        ]
        assert repr(handle) == f"SeedStream({'2:' + repr(node)!r}, position={position})"
        assert not hasattr(handle, "__getnewargs_ex__")
        assert not hasattr(handle, "no_such_attribute")
        assert not handle.materialised
        for clone in clones:
            assert not clone.materialised and clone.position() == position
        twin = random.Random(f"2:{node!r}")
        twin.getrandbits(32 * position)
        for clone in clones + [handle]:
            assert clone.getstate() == twin.getstate()


def test_copies_of_a_materialised_handle_are_independent():
    handle = SeedStream(KEYS[0])
    handle.random()
    for clone in (copy.copy(handle), pickle.loads(pickle.dumps(handle))):
        assert clone.materialised and clone.getstate() == handle.getstate()
        clone.random()
        assert clone.getstate() != handle.getstate()
