"""Differential legs for a caller-built vector rumor state.

Every engine stores rumor knowledge in one
:class:`~repro.sim.state.VectorState`: a single ``n x words`` bitset
matrix whose layout label is the constant ``dense``.  Every leg here
builds that state itself, seeds it directly and hands it to the engine,
and checks the label it carries; the mirror it is compared against is
the set-backed :class:`~repro.testing.reference.ReferenceNetworkState`.
The array round must be bit-identical to the scalar
:class:`~repro.sim.engine.Engine`: same completion rounds, same per-node
knowledge, same metrics, for every oblivious protocol, under crash
schedules and responder caps.  This suite pins that with a hypothesis
matrix over {push--pull, push, pull, flooding} x engine configs, plus
deterministic legs for responder-cap starvation, RR Broadcast on custom
target tables, and a committed golden event stream built with explicit
engines that must match byte for byte (re-bless with
``REPRO_UPDATE_GOLDEN=1`` after a deliberate semantic change).
"""

import os
import pathlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import generators
from repro.graphs.latency_graph import LatencyGraph
from repro.graphs.latency_models import uniform_latency
from repro.obs import Recorder, events_to_jsonl
from repro.protocols.base import PhaseRunner, per_node_rng_factory
from repro.protocols.flooding import FloodingProtocol
from repro.protocols.push_pull import (
    PullProtocol,
    PushProtocol,
    PushPullProtocol,
)
from repro.protocols.rr_broadcast import rr_broadcast_factory
from repro.protocols.spanner import DirectedSpanner
from repro.sim.engine import Engine
from repro.sim.runner import broadcast_complete, run_until_complete
from repro.sim.state import VectorState
from repro.sim.vector import VectorEngine
from repro.testing import (
    ReferenceNetworkState,
    assert_engines_agree,
    connected_latency_graphs,
    crash_schedules,
    engine_configs,
    run_differential,
    seeds,
)

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

#: The layout labels a :class:`VectorState` can carry: one matrix, one
#: label.  Each leg asserts the state it built carries its label.
LAYOUT_LEGS = ("dense",)

#: name -> builder(rumor) -> per-node protocol constructor over an rng.
#: ``flooding`` is the knows-gated (push-only) variant, so the matrix
#: also exercises the gated fast path.
PROTOCOLS = {
    "push-pull": lambda rumor: (lambda rng: PushPullProtocol(rng)),
    "push": lambda rumor: (lambda rng: PushProtocol(rng, rumor)),
    "pull": lambda rumor: (lambda rng: PullProtocol(rng, rumor)),
    "flooding": lambda rumor: (lambda rng: FloodingProtocol(rumor)),
}


def broadcast_setup(graph):
    """The source rumor and two builders of the seeded start state: the
    caller-built :class:`VectorState` and its set-backed mirror."""
    source = graph.nodes()[0]
    rumor = ("rumor", source)

    def seeded(state_cls):
        def make_state():
            state = state_cls(graph.nodes())
            state.add_rumor(source, rumor)
            return state

        return make_state

    return rumor, seeded(VectorState), seeded(ReferenceNetworkState)


class TestLayoutMatrix:
    """The caller-built state x every oblivious protocol vs the scalar engine."""

    @pytest.mark.parametrize("layout", LAYOUT_LEGS)
    @pytest.mark.parametrize("variant", sorted(PROTOCOLS))
    @given(connected_latency_graphs(max_nodes=12), seeds(), engine_configs())
    @settings(max_examples=6, deadline=None)
    def test_layouts_bit_identical_to_scalar(
        self, layout, variant, graph, seed, config
    ):
        rumor, make_state, make_mirror = broadcast_setup(graph)
        assert make_state().layout == layout
        build = PROTOCOLS[variant](rumor)

        def make_factory():
            make_rng = per_node_rng_factory(seed)
            return lambda node: build(make_rng(node))

        report = run_differential(
            graph,
            make_factory=make_factory,
            make_state=make_state,
            make_reference_state=make_mirror,
            predicate=broadcast_complete(rumor),
            fresh_snapshots=config["fresh_snapshots"],
            max_incoming_per_round=config["max_incoming_per_round"],
            max_rounds=5_000,
            backend="vector",
            reference_cls=Engine,
        )
        assert_engines_agree(report)
        # A responder cap gives no liveness guarantee (docs/MODEL.md §4),
        # so completion is only owed to uncapped runs.
        if config["max_incoming_per_round"] is None:
            assert report.rounds is not None

    @pytest.mark.parametrize("seed", [0, 1, 85])
    def test_cap_starvation_never_completes_on_any_engine(self, seed):
        # The cap is first-come-first-served in node scan order: node 1
        # takes node 3's only slot every round and node 0 takes node 2's,
        # so the rumor never crosses edge 2-3.  Every engine must agree on
        # that non-completion and on the metrics.
        graph = LatencyGraph(nodes=[0, 1, 2, 3], edges=[(0, 2, 6), (2, 3, 5), (3, 1, 4)])
        rumor, make_state, make_mirror = broadcast_setup(graph)
        assert make_state().layout in LAYOUT_LEGS

        def make_factory():
            make_rng = per_node_rng_factory(seed)
            return lambda node: PushPullProtocol(make_rng(node))

        candidates = [
            {"engine_cls": Engine, "make_state": make_state},
            {"backend": "vector", "make_state": make_state},
        ]
        for candidate in candidates:
            report = run_differential(
                graph,
                make_factory=make_factory,
                make_reference_state=make_mirror,
                predicate=broadcast_complete(rumor),
                max_incoming_per_round=1,
                max_rounds=300,
                **candidate,
            )
            assert_engines_agree(report)
            assert report.rounds is None and report.reference_rounds is None

    @given(
        st.sampled_from(LAYOUT_LEGS),
        connected_latency_graphs(min_nodes=6, max_nodes=12),
        seeds(100),
        st.data(),
    )
    @settings(max_examples=10, deadline=None)
    def test_crash_schedules_agree(self, layout, graph, seed, data):
        rumor, make_state, make_mirror = broadcast_setup(graph)
        assert make_state().layout == layout
        source = graph.nodes()[0]
        crashes = data.draw(crash_schedules(graph.nodes(), protect=[source]))

        def make_factory():
            make_rng = per_node_rng_factory(seed)
            return lambda node: PushPullProtocol(make_rng(node))

        report = run_differential(
            graph,
            make_factory=make_factory,
            make_state=make_state,
            make_reference_state=make_mirror,
            predicate=lambda engine: engine.round >= 25,
            make_failure_model=lambda: crashes,  # stateless: sharable
            backend="vector",
            reference_cls=Engine,
        )
        assert_engines_agree(report)


def _oriented_spanner(graph) -> DirectedSpanner:
    """The graph itself, oriented from repr-lower to repr-higher node."""
    out_edges = {v: [] for v in graph.nodes()}
    for u, v, _ in graph.edges():
        tail, head = (u, v) if repr(u) <= repr(v) else (v, u)
        out_edges[tail].append(head)
    return DirectedSpanner(graph=graph, out_edges=out_edges, k=1)


class TestRRBroadcastVector:
    """RR Broadcast (fixed-duration round-robin over custom targets)."""

    GRAPH = generators.ring_of_cliques(4, 4, inter_latency=2, rng=random.Random(2))

    def _run(self, backend, state=None):
        runner = PhaseRunner(self.GRAPH, state=state, backend=backend)
        runner.run_phase(
            rr_broadcast_factory(_oriented_spanner(self.GRAPH), 3),
            latencies_known=True,
        )
        return (
            runner.total_rounds,
            {v: runner.state.rumors(v) for v in self.GRAPH.nodes()},
        )

    def test_vector_backend_matches_scalar(self):
        assert self._run("vector") == self._run("scalar")

    @pytest.mark.parametrize("layout", LAYOUT_LEGS)
    def test_every_layout_matches_scalar(self, layout):
        seeded = VectorState(self.GRAPH.nodes())
        seeded.seed_self_rumors()
        assert seeded.layout == layout
        assert self._run("vector", state=seeded) == self._run("scalar")


def _bucketed_trace(backend, layout=None) -> str:
    """Push--pull broadcast over latencies 1..5, recorded event stream.

    The recorder puts the vector engine on its batched mirror path,
    which must replay the scalar engine's canonical stream byte for
    byte over a caller-built bitset state.
    """
    graph = generators.erdos_renyi(
        16, 0.3, latency_model=uniform_latency(1, 5), rng=random.Random(3)
    )
    source = graph.nodes()[0]
    rumor = ("rumor", source)
    state = VectorState(graph.nodes())
    state.add_rumor(source, rumor)
    make_rng = per_node_rng_factory(5)

    def factory(node):
        return PushPullProtocol(make_rng(node))

    recorder = Recorder.in_memory()
    if backend == "vector":
        assert state.layout == layout
        engine = VectorEngine(graph, factory, state=state, recorder=recorder)
    else:
        engine = Engine(graph, factory, state=state, recorder=recorder)
    run_until_complete(engine, broadcast_complete(rumor), "layout-golden")
    return events_to_jsonl(recorder.events)


#: The bucketed stream ``tests/test_vector_golden.py`` owns: this suite
#: builds it a second way (explicit engines, caller-built state) and must
#: match.
GOLDEN_FILE = "push_pull_vector_bucketed.jsonl"


class TestLayoutGoldenTraces:
    def test_scalar_golden_committed(self):
        generated = _bucketed_trace("scalar")
        path = GOLDEN_DIR / GOLDEN_FILE
        if os.environ.get("REPRO_UPDATE_GOLDEN"):
            GOLDEN_DIR.mkdir(exist_ok=True)
            path.write_bytes(generated.encode("ascii"))
            pytest.skip(f"re-blessed {GOLDEN_FILE}")
        assert path.exists(), (
            f"missing golden file {path}; generate with REPRO_UPDATE_GOLDEN=1"
        )
        assert path.read_bytes() == generated.encode("ascii"), (
            f"{GOLDEN_FILE} drifted from the committed scalar stream — if "
            "intentional, re-bless with REPRO_UPDATE_GOLDEN=1 and review"
        )

    @pytest.mark.parametrize("layout", LAYOUT_LEGS)
    def test_layout_reproduces_committed_bytes(self, layout):
        path = GOLDEN_DIR / GOLDEN_FILE
        assert path.exists(), (
            f"missing golden file {path}; generate with REPRO_UPDATE_GOLDEN=1"
        )
        generated = _bucketed_trace("vector", layout=layout)
        assert path.read_bytes() == generated.encode("ascii"), (
            f"layout {layout!r} diverged from the committed golden stream — "
            "the caller-built state must replay the scalar engine byte for byte"
        )
