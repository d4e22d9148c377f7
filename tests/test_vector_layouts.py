"""Differential matrix for the vector backend's rumor-state layouts.

The vector engine stores rumor knowledge in one
:class:`~repro.sim.vector.VectorState`: a bitset matrix in budget-bounded
column parts, labelled ``dense`` while it is one part and ``chunked``
once it spans several.  The ``chunked`` leg runs that storage under a
one-word part budget, so every universe past 64 rumors spans parts.
The layout is a *representation* choice, so every layout must be
bit-identical to the scalar :class:`~repro.sim.engine.Engine`: same
completion rounds, same per-node knowledge, same metrics, for every
oblivious protocol, under crash schedules and responder caps (a crash
schedule runs the scalar engine's own per-exchange step over the layout
state, so those legs pin that path per layout).  This suite pins that
with a hypothesis matrix over
layouts x {push--pull, push, pull, flooding} x engine configs, plus
deterministic legs for layout labels, multi-part chunked runs,
part budgets under growth (add_rumor, merge, ℓ-DTG token interning, an
EID run crossing parts mid-run),
RR Broadcast on custom target tables, and a committed golden event
stream each layout must reproduce byte for byte (re-bless with
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
from repro.protocols.dtg import ldtg_factory
from repro.protocols.eid import run_eid
from repro.protocols.flooding import FloodingProtocol
from repro.protocols.push_pull import (
    PullProtocol,
    PushProtocol,
    PushPullProtocol,
)
from repro.protocols.rr_broadcast import rr_broadcast_factory
from repro.protocols.spanner import DirectedSpanner
from repro.sim.engine import Engine
from repro.sim.runner import all_to_all_complete, broadcast_complete, run_until_complete
from repro.sim.state import NetworkState
from repro.sim.vector import (
    DEFAULT_MAX_STATE_BYTES,
    VectorEngine,
    VectorState,
    current_max_state_bytes,
    state_budget,
)
from repro.testing import (
    LAYOUT_LEGS,
    assert_engines_agree,
    connected_latency_graphs,
    crash_schedules,
    engine_configs,
    layout_state,
    run_differential,
    seeds,
    state_layouts,
)

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

#: name -> builder(rumor) -> per-node protocol constructor over an rng.
#: ``flooding`` is the knows-gated (push-only) variant, so the matrix
#: also exercises the gated fast path on every layout.
PROTOCOLS = {
    "push-pull": lambda rumor: (lambda rng: PushPullProtocol(rng)),
    "push": lambda rumor: (lambda rng: PushProtocol(rng, rumor)),
    "pull": lambda rumor: (lambda rng: PullProtocol(rng, rumor)),
    "flooding": lambda rumor: (lambda rng: FloodingProtocol(rumor)),
}


def broadcast_setup(graph):
    source = graph.nodes()[0]
    rumor = ("rumor", source)

    def make_state():
        state = NetworkState(graph.nodes())
        state.add_rumor(source, rumor)
        return state

    return rumor, make_state


def forced_layout(make_base, layout):
    """A state builder yielding ``make_base()`` in the given layout."""

    def make_state():
        return layout_state(make_base(), layout)

    return make_state


class TestLayoutMatrix:
    """Every layout x every oblivious protocol vs the scalar engine."""

    @pytest.mark.parametrize("layout", LAYOUT_LEGS)
    @pytest.mark.parametrize("variant", sorted(PROTOCOLS))
    @given(connected_latency_graphs(max_nodes=12), seeds(), engine_configs())
    @settings(max_examples=6, deadline=None)
    def test_layouts_bit_identical_to_scalar(
        self, layout, variant, graph, seed, config
    ):
        rumor, make_base = broadcast_setup(graph)
        build = PROTOCOLS[variant](rumor)

        def make_factory():
            make_rng = per_node_rng_factory(seed)
            return lambda node: build(make_rng(node))

        report = run_differential(
            graph,
            make_factory=make_factory,
            make_state=forced_layout(make_base, layout),
            make_reference_state=make_base,
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
        # so the rumor never crosses edge 2-3.  Every engine and layout
        # must agree on that non-completion and on the metrics.
        graph = LatencyGraph(nodes=[0, 1, 2, 3], edges=[(0, 2, 6), (2, 3, 5), (3, 1, 4)])
        rumor, make_base = broadcast_setup(graph)

        def make_factory():
            make_rng = per_node_rng_factory(seed)
            return lambda node: PushPullProtocol(make_rng(node))

        candidates = [{"engine_cls": Engine, "make_state": make_base}] + [
            {"backend": "vector", "make_state": forced_layout(make_base, layout)}
            for layout in LAYOUT_LEGS
        ]
        for candidate in candidates:
            report = run_differential(
                graph,
                make_factory=make_factory,
                make_reference_state=make_base,
                predicate=broadcast_complete(rumor),
                max_incoming_per_round=1,
                max_rounds=300,
                **candidate,
            )
            assert_engines_agree(report)
            assert report.rounds is None and report.reference_rounds is None

    @given(
        state_layouts(),
        connected_latency_graphs(min_nodes=6, max_nodes=12),
        seeds(100),
        st.data(),
    )
    @settings(max_examples=10, deadline=None)
    def test_crash_schedules_agree(self, layout, graph, seed, data):
        rumor, make_base = broadcast_setup(graph)
        source = graph.nodes()[0]
        crashes = data.draw(crash_schedules(graph.nodes(), protect=[source]))

        def make_factory():
            make_rng = per_node_rng_factory(seed)
            return lambda node: PushPullProtocol(make_rng(node))

        report = run_differential(
            graph,
            make_factory=make_factory,
            make_state=forced_layout(make_base, layout),
            make_reference_state=make_base,
            predicate=lambda engine: engine.round >= 25,
            make_failure_model=lambda: crashes,  # stateless: sharable
            backend="vector",
            reference_cls=Engine,
        )
        assert_engines_agree(report)

    def test_chunked_multi_block_all_to_all_agrees(self):
        # 80 self-rumors need 2 bitset words; a budget of n*8 bytes caps
        # parts at one word each, so the run genuinely spans parts.
        graph = generators.erdos_renyi(
            80, 0.08, latency_model=uniform_latency(1, 4), rng=random.Random(7)
        )

        def make_base():
            state = NetworkState(graph.nodes())
            state.seed_self_rumors()
            return state

        def make_state():
            with state_budget(len(graph.nodes()) * 8):
                state = VectorState.from_network_state(make_base())
            assert state.layout == "chunked"
            assert len(state._parts) == 2
            return state

        def make_factory():
            make_rng = per_node_rng_factory(11)
            return lambda node: PushPullProtocol(make_rng(node))

        report = run_differential(
            graph,
            make_factory=make_factory,
            make_state=make_state,
            make_reference_state=make_base,
            predicate=all_to_all_complete(),
            max_rounds=5_000,
            backend="vector",
            reference_cls=Engine,
        )
        assert_engines_agree(report)
        assert report.rounds is not None


class TestLayoutSelection:
    """The layout label follows the part count of the observed universe."""

    def test_medium_universe_within_budget_stays_dense(self):
        state = NetworkState(range(10))
        state.seed_self_rumors()
        vector = VectorState.from_network_state(state)
        assert vector.layout == "dense"
        assert len(vector._parts) == 1

    def test_over_budget_universe_chunks(self):
        state = NetworkState(range(100))
        state.seed_self_rumors()  # dense would need n * 2 words * 8 bytes
        vector = VectorState.from_network_state(state, max_state_bytes=100 * 8)
        assert vector.layout == "chunked"
        assert [part.nbytes for part in vector._parts] == [100 * 8, 100 * 8]

    @pytest.mark.parametrize("layout", LAYOUT_LEGS)
    def test_forced_layout_is_respected(self, layout):
        # 70 rumors: two bitset words, so the one-word chunked leg splits.
        state = NetworkState(range(6))
        for r in range(70):
            state.add_rumor(r % 6, ("r", r))
        vector = layout_state(state, layout)
        assert vector.layout == layout
        for node in range(6):
            assert vector.rumors(node) == state.rumors(node)

    def test_budget_scope_and_env_var(self, monkeypatch):
        monkeypatch.delenv("REPRO_MAX_STATE_BYTES", raising=False)
        assert current_max_state_bytes() == DEFAULT_MAX_STATE_BYTES
        monkeypatch.setenv("REPRO_MAX_STATE_BYTES", "4096")
        assert current_max_state_bytes() == 4096
        with state_budget(123):
            assert current_max_state_bytes() == 123
        assert current_max_state_bytes() == 4096

    def test_state_nbytes_tracks_layout(self):
        base = NetworkState(range(64))
        base.add_rumor(0, "r")
        # scalar masks: one node holds bit 0 -> one byte
        assert base.state_nbytes() == 1
        # a broadcast is the one-part, one-word bitset: n * 8 bytes
        dense = VectorState.from_network_state(base)
        assert dense.state_nbytes() == 64 * 8
        assert dense.layout == "dense"
        assert [part.shape[1] for part in dense._parts] == [1]
        chunked = layout_state(base, "chunked")
        assert chunked.state_nbytes() == 64 * 8  # one one-word part
        assert chunked.layout == "dense"  # one part reads dense


class TestPartBudget:
    """A bitset state never holds a part bigger than its budget, however
    it grows, and growth never changes the rumor sets."""

    N = 100
    BUDGET = 1600  # two words per part at n = 100

    def _pick_within_budget(self, nodes=None):
        """70 rumors over 100 nodes: two words, exactly one full part."""
        base = NetworkState(nodes if nodes is not None else range(self.N))
        order = base.nodes()
        for r in range(70):
            base.add_rumor(order[r], ("r", r))
        vector = VectorState.from_network_state(base)
        assert vector.layout == "dense"
        assert vector.state_nbytes() == self.BUDGET
        return base, vector

    def _assert_parts_fit(self, vector):
        if vector.layout == "dense":  # one part: the whole storage
            assert vector.state_nbytes() <= self.BUDGET
        else:
            assert max(part.nbytes for part in vector._parts) <= self.BUDGET

    def _assert_grown_within_budget(self, vector, mirror):
        self._assert_parts_fit(vector)
        assert vector.layout == "chunked"
        for node in mirror.nodes():
            assert vector.rumors(node) == mirror.rumors(node)

    def test_add_rumor_appends_parts(self):
        with state_budget(self.BUDGET):
            base, vector = self._pick_within_budget()
            for r in range(70, 200):
                base.add_rumor(r % self.N, ("r", r))
                vector.add_rumor(r % self.N, ("r", r))
                self._assert_parts_fit(vector)
        self._assert_grown_within_budget(vector, base)
        assert [part.shape[1] for part in vector._parts] == [2, 2]

    def test_merge_appends_parts(self):
        donor = NetworkState(range(self.N))
        for r in range(200):
            donor.add_rumor(0, ("r", r))
        payload = donor.snapshot(0)
        with state_budget(self.BUDGET):
            base, vector = self._pick_within_budget()
            assert base.merge(5, payload)
            assert vector.merge(5, payload)
        self._assert_grown_within_budget(vector, base)

    def test_ldtg_token_interning_appends_parts(self):
        graph = generators.ring_of_cliques(
            10, 10, inter_latency=2, rng=random.Random(3)
        )
        factory = ldtg_factory(graph, 1, run_tag="grow")
        with state_budget(self.BUDGET):
            base, vector = self._pick_within_budget(graph.nodes())
            scalar = Engine(graph, factory, state=base, latencies_known=True)
            engine = VectorEngine(graph, factory, state=vector, latencies_known=True)
        self._assert_grown_within_budget(vector, base)
        # 70 rumors + 100 tokens: three words, the third in a new part.
        assert [part.shape[1] for part in vector._parts] == [2, 1]
        while not scalar.all_done():
            scalar.step()
            engine.step()
        assert engine.all_done() and engine.round == scalar.round
        assert engine.metrics == scalar.metrics
        self._assert_grown_within_budget(vector, base)

    def test_eid_crosses_parts_mid_run(self):
        # n self-rumors fit one word; the ℓ-DTG tokens EID interns push
        # the universe past 64 bits, so a one-word part budget makes the
        # vector state append parts between phases.
        graph = generators.ring_of_cliques(
            5, 8, inter_latency=3, rng=random.Random(1)
        )
        n = graph.num_nodes

        def run(backend):
            state = NetworkState(graph.nodes())
            state.seed_self_rumors()
            runner = PhaseRunner(graph, state=state, backend=backend)
            report = run_eid(graph, diameter=graph.weighted_diameter(), runner=runner)
            return runner, report

        with state_budget(n * 8):
            vector, vector_report = run("vector")
        scalar, scalar_report = run(None)
        assert vector.state.layout == "chunked"
        assert len(vector.state._parts) > 1
        assert max(part.nbytes for part in vector.state._parts) <= n * 8
        assert vector_report == scalar_report
        assert vector.total_rounds == scalar.total_rounds
        assert vector.total_exchanges == scalar.total_exchanges
        assert vector.total_messages == scalar.total_messages
        assert [(p.name, p.rounds, p.exchanges) for p in vector.phases] == [
            (p.name, p.rounds, p.exchanges) for p in scalar.phases
        ]
        for node in graph.nodes():
            assert vector.state.rumors(node) == scalar.state.rumors(node)


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
        seeded = NetworkState(self.GRAPH.nodes())
        seeded.seed_self_rumors()
        forced = layout_state(seeded, layout)
        assert self._run("vector", state=forced) == self._run("scalar")


def _bucketed_trace(backend, layout=None) -> str:
    """Push--pull broadcast over latencies 1..5, recorded event stream.

    The recorder puts the vector engine on its batched mirror path,
    which must replay the scalar engine's canonical stream byte for
    byte whatever the storage layout underneath.
    """
    graph = generators.erdos_renyi(
        16, 0.3, latency_model=uniform_latency(1, 5), rng=random.Random(3)
    )
    source = graph.nodes()[0]
    rumor = ("rumor", source)
    state = NetworkState(graph.nodes())
    state.add_rumor(source, rumor)
    make_rng = per_node_rng_factory(5)

    def factory(node):
        return PushPullProtocol(make_rng(node))

    recorder = Recorder.in_memory()
    if backend == "vector":
        engine = VectorEngine(
            graph,
            factory,
            state=layout_state(state, layout),
            recorder=recorder,
        )
    else:
        engine = Engine(graph, factory, state=state, recorder=recorder)
    run_until_complete(engine, broadcast_complete(rumor), "layout-golden")
    return events_to_jsonl(recorder.events)


#: The bucketed stream ``tests/test_vector_golden.py`` owns: this suite
#: builds it a second way (explicit engines, every layout) and must match.
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
            "every layout must replay the scalar engine byte for byte"
        )
