"""Differential tests for the vector engine backend.

:class:`~repro.sim.vector.VectorEngine` must be *field-identical* to both
the production scalar :class:`~repro.sim.engine.Engine` and the naive
:class:`~repro.testing.ReferenceEngine` for every oblivious protocol:
same completion rounds, same per-node knowledge, same metrics (including
activated edges), under random graphs, seeds, engine configs, crash
schedules, and responder caps.  Protocols that are not oblivious must be
rejected loudly at construction, and the invariant checkers (which put
the vector backend on the scalar engine's per-exchange step) must keep
their teeth.  The rumor state is one bitset matrix that widens in place
(``add_rumor``, merges, ℓ-DTG token interning, EID between phases)
without changing any rumor set.
"""

import io
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ProtocolError, SimulationError
from repro.graphs.generators import erdos_renyi, ring_of_cliques
from repro.graphs.latency_models import uniform_latency
from repro.obs.recorder import Recorder
from repro.protocols.base import PhaseRunner, per_node_rng_factory
from repro.protocols.discovery import LatencyDiscoveryProtocol
from repro.protocols.dtg import ldtg_factory
from repro.protocols.eid import run_eid
from repro.protocols.flooding import FloodingProtocol
from repro.protocols.push_pull import (
    PullProtocol,
    PushProtocol,
    PushPullProtocol,
    run_push_pull,
)
from repro.sim.engine import Engine, NodeProtocol
from repro.sim.failures import CrashSchedule
from repro.sim.invariants import checked, default_checkers
from repro.sim.runner import all_to_all_complete, broadcast_complete
from repro.sim.state import VectorState
from repro.sim.vector import (
    ObliviousCohort,
    ObliviousProtocol,
    VectorEngine,
    VectorProgram,
    resolve_engine_backend,
)
from repro.testing import (
    ReferenceEngine,
    ReferenceNetworkState,
    assert_engines_agree,
    connected_latency_graphs,
    crash_schedules,
    engine_configs,
    large_dense_graphs,
    run_differential,
    seeds,
)


def broadcast_setup(graph):
    source = graph.nodes()[0]
    rumor = ("rumor", source)

    def make_state():
        state = VectorState(graph.nodes())
        state.add_rumor(source, rumor)
        return state

    return rumor, make_state


#: name -> builder(rumor) -> per-node protocol constructor args.
RNG_PROTOCOLS = {
    "push-pull": lambda rumor: (lambda rng: PushPullProtocol(rng)),
    "push": lambda rumor: (lambda rng: PushProtocol(rng, rumor)),
    "pull": lambda rumor: (lambda rng: PullProtocol(rng, rumor)),
}


class TestVectorVsReference:
    """backend="vector" against the naive oracle, all oblivious variants."""

    @pytest.mark.parametrize("variant", sorted(RNG_PROTOCOLS))
    @given(connected_latency_graphs(), seeds())
    @settings(max_examples=15, deadline=None)
    def test_rng_protocols_agree(self, variant, graph, seed):
        rumor, make_state = broadcast_setup(graph)
        build = RNG_PROTOCOLS[variant](rumor)

        def make_factory():
            make_rng = per_node_rng_factory(seed)
            return lambda node: build(make_rng(node))

        report = run_differential(
            graph,
            make_factory=make_factory,
            make_state=make_state,
            predicate=broadcast_complete(rumor),
            max_rounds=5_000,
            backend="vector",
        )
        assert_engines_agree(report)
        assert report.rounds is not None

    @given(connected_latency_graphs())
    @settings(max_examples=15, deadline=None)
    def test_flooding_agrees(self, graph):
        rumor, make_state = broadcast_setup(graph)
        report = run_differential(
            graph,
            make_factory=lambda: (lambda node: FloodingProtocol(None)),
            make_state=make_state,
            predicate=broadcast_complete(rumor),
            max_rounds=5_000,
            backend="vector",
        )
        assert_engines_agree(report)

    @given(connected_latency_graphs(max_nodes=10), seeds())
    @settings(max_examples=10, deadline=None)
    def test_all_to_all_agrees(self, graph, seed):
        def make_state():
            state = VectorState(graph.nodes())
            state.seed_self_rumors()
            return state

        def make_factory():
            make_rng = per_node_rng_factory(seed)
            return lambda node: PushPullProtocol(make_rng(node))

        report = run_differential(
            graph,
            make_factory=make_factory,
            make_state=make_state,
            predicate=all_to_all_complete(),
            max_rounds=5_000,
            backend="vector",
        )
        assert_engines_agree(report)
        assert report.rounds is not None


def _per_node(build):
    """``make(seed, rumor)``: the per-node factory whose node runs
    ``build(rng, rumor)`` over ``per_node_rng_factory(seed)``'s stream."""

    def make(seed, rumor):
        make_rng = per_node_rng_factory(seed)
        return lambda node: build(make_rng(node), rumor)

    return make


OFFSET_BUDGET = VectorProgram(kind="round_robin", start=3, duration=6)

#: name -> (declared cohort, per-node factory), each made by make(seed, rumor).
DECLARED = {
    "push-pull": (
        lambda seed, rumor: PushPullProtocol.cohort(seed),
        _per_node(lambda rng, rumor: PushPullProtocol(rng)),
    ),
    "push": (PushProtocol.cohort, _per_node(PushProtocol)),
    "pull": (PullProtocol.cohort, _per_node(PullProtocol)),
    "flooding": (
        lambda seed, rumor: FloodingProtocol.cohort(),
        lambda seed, rumor: lambda node: FloodingProtocol(None),
    ),
    # A program no shipped cohort declares: a round-robin offset and a
    # budget, so the run stops when every node is done.
    "offset-budget": (
        lambda seed, rumor: ObliviousCohort(FloodingProtocol, OFFSET_BUDGET),
        lambda seed, rumor: lambda node: ObliviousProtocol(OFFSET_BUDGET),
    ),
}


class TestDeclaredCohort:
    """A declared cohort (``PushPullProtocol.cohort(seed)``, ...) is the
    per-node factory it replaces, on every engine: the same rounds,
    knowledge, metrics, rng states and event bytes.  The vector engine
    builds no node protocol from it, only those ``protocol(node)`` asks
    for."""

    @pytest.mark.parametrize("variant", sorted(DECLARED))
    @given(connected_latency_graphs(max_nodes=16), seeds())
    @settings(max_examples=10, deadline=None)
    def test_declared_equals_per_node(self, variant, graph, seed):
        rumor, make_state = broadcast_setup(graph)
        complete = broadcast_complete(rumor)

        def done(engine):
            return complete(engine) or engine.all_done()

        def run(engine_cls, make_factory):
            options = {}
            stream = io.StringIO()
            if engine_cls is not ReferenceEngine:
                options["recorder"] = Recorder.to_jsonl(stream)
            engine = engine_cls(
                graph, make_factory(seed, rumor), state=make_state(), **options
            )
            engine.run(until=done, max_rounds=5_000)
            rngs = [
                getattr(engine.protocol(node), "_rng", None) for node in graph.nodes()
            ]
            return (
                engine.round,
                engine.metrics,
                [engine.state.rumors(node) for node in graph.nodes()],
                [None if rng is None else rng.getstate() for rng in rngs],
                stream.getvalue(),
            )

        declared, per_node = DECLARED[variant]
        for engine_cls in (Engine, VectorEngine, ReferenceEngine):
            assert run(engine_cls, declared) == run(engine_cls, per_node), engine_cls
        assert run(VectorEngine, declared) == run(Engine, declared)

    def test_vector_build_makes_no_protocol(self):
        graph = ring_of_cliques(3, 3, inter_latency=2, rng=random.Random(0))
        engine = VectorEngine(graph, PushPullProtocol.cohort(0))
        assert engine._protocols == {}
        node = graph.nodes()[2]
        protocol = engine.protocol(node)
        assert type(protocol) is PushPullProtocol
        assert engine.protocol(node) is protocol
        assert list(engine._protocols) == [node]

    @pytest.mark.parametrize(
        "cls, program, seed, pattern",
        [
            (PushPullProtocol, VectorProgram(kind="random"), None, "seeds"),
            (FloodingProtocol, VectorProgram(kind="round_robin"), 0, "seeds"),
            (
                FloodingProtocol,
                VectorProgram(kind="round_robin", targets=(1,)),
                None,
                "targets",
            ),
            (NodeProtocol, VectorProgram(kind="round_robin"), None, "Oblivious"),
        ],
        ids=["random-unseeded", "round-robin-seeded", "targets", "not-oblivious"],
    )
    def test_malformed_cohorts_rejected(self, cls, program, seed, pattern):
        with pytest.raises(ProtocolError, match=pattern):
            ObliviousCohort(cls, program, seed)


class TestVectorVsScalar:
    """backend="vector" against the production scalar engine itself."""

    @given(large_dense_graphs(max_nodes=25), seeds(100))
    @settings(max_examples=10, deadline=None)
    def test_dense_graphs_agree(self, graph, seed):
        rumor, make_state = broadcast_setup(graph)

        def make_factory():
            make_rng = per_node_rng_factory(seed)
            return lambda node: PushPullProtocol(make_rng(node))

        report = run_differential(
            graph,
            make_factory=make_factory,
            make_state=make_state,
            predicate=broadcast_complete(rumor),
            max_rounds=5_000,
            backend="vector",
            reference_cls=Engine,
        )
        assert_engines_agree(report)
        assert report.rounds is not None

    @given(connected_latency_graphs(max_nodes=12), seeds(), engine_configs())
    @settings(max_examples=15, deadline=None)
    def test_fresh_snapshots_and_cap_agree(self, graph, seed, config):
        rumor, make_state = broadcast_setup(graph)

        def make_factory():
            make_rng = per_node_rng_factory(seed)
            return lambda node: PushPullProtocol(make_rng(node))

        report = run_differential(
            graph,
            make_factory=make_factory,
            make_state=make_state,
            predicate=broadcast_complete(rumor),
            fresh_snapshots=config["fresh_snapshots"],
            max_incoming_per_round=config["max_incoming_per_round"],
            max_rounds=5_000,
            backend="vector",
            reference_cls=Engine,
        )
        assert_engines_agree(report)

    @pytest.mark.parametrize("extra", ["enforce_blocking", "note_boards"])
    @given(connected_latency_graphs(max_nodes=12), seeds(), engine_configs())
    @settings(max_examples=15, deadline=None)
    def test_blocking_and_note_boards_agree(self, extra, graph, seed, config):
        """The two per-exchange triggers no other leg drives, under every
        engine config: blocking enforcement (push--pull must raise the same
        violation in the same round on both engines) and an inherited
        note board (notes must travel identically)."""
        rumor, seeded_state = broadcast_setup(graph)
        blocking = extra == "enforce_blocking"

        def make_state():
            state = seeded_state()
            if extra == "note_boards":
                state.publish_note(graph.nodes()[-1], hops=0)
            return state

        def make_factory():
            make_rng = per_node_rng_factory(seed)
            return lambda node: PushPullProtocol(make_rng(node))

        if not blocking:
            report = run_differential(
                graph,
                make_factory=make_factory,
                make_state=make_state,
                predicate=broadcast_complete(rumor),
                fresh_snapshots=config["fresh_snapshots"],
                max_incoming_per_round=config["max_incoming_per_round"],
                max_rounds=5_000,
                backend="vector",
                reference_cls=Engine,
            )
            assert_engines_agree(report)

        complete = broadcast_complete(rumor)

        def run(engine_cls):
            engine = engine_cls(
                graph,
                make_factory(),
                state=make_state(),
                enforce_blocking=blocking,
                **config,
            )
            try:
                # A capped broadcast may never complete: stop at a budget.
                engine.run(until=lambda e: e.round >= 200 or complete(e))
            except ProtocolError as exc:
                return engine, str(exc)
            return engine, None

        (vector, vector_error), (scalar, scalar_error) = (
            run(resolve_engine_backend("vector")),
            run(Engine),
        )
        assert vector_error == scalar_error
        if scalar_error is not None:
            assert scalar.metrics.blocked_initiations == 1
        assert (vector.round, vector.metrics) == (scalar.round, scalar.metrics)
        for node in graph.nodes():
            assert vector.state.rumors(node) == scalar.state.rumors(node)
            vector_notes, scalar_notes = (
                {o: state.note_of(node, o) for o in state.known_note_origins(node)}
                for state in (vector.state, scalar.state)
            )
            assert vector_notes == scalar_notes

    @pytest.mark.parametrize(
        "recorded, mix",
        [
            (False, "push-pull"),
            (True, "push-pull"),
            (False, "alternating"),
            (True, "alternating"),
        ],
        ids=["plain", "recorded", "plain-alternating", "recorded-alternating"],
    )
    def test_shared_rng_agrees(self, recorded, mix):
        """Every node drawing from one ``Random``: the vector backend must
        consume it in the scalar scan order.  Alternating push--pull and
        push nodes puts the rng in two cohorts, so the engine's one window
        must draw both cohorts' rows in one dense-id pass."""
        graph = erdos_renyi(40, 0.15, uniform_latency(1, 4), random.Random(1))
        rumor, make_state = broadcast_setup(graph)
        complete = broadcast_complete(rumor)

        def run(engine_cls):
            shared = random.Random(7)
            recorder = Recorder.in_memory() if recorded else None

            def factory(node):
                if mix == "alternating" and node % 2:
                    return PushProtocol(shared, rumor)
                return PushPullProtocol(shared)

            engine = engine_cls(
                graph, factory, state=make_state(), recorder=recorder
            )
            engine.run(until=complete)
            return engine, shared.getstate(), recorder and recorder.events

        vector, vector_rng, vector_events = run(resolve_engine_backend("vector"))
        scalar, scalar_rng, scalar_events = run(Engine)
        assert isinstance(vector, VectorEngine)
        expected = {"push-pull": (10, 400), "alternating": (17, 496)}[mix]
        assert (scalar.round, scalar.metrics.exchanges) == expected
        assert (vector.round, vector.metrics) == (scalar.round, scalar.metrics)
        assert vector_rng == scalar_rng
        assert vector_events == scalar_events
        for node in graph.nodes():
            assert vector.state.rumors(node) == scalar.state.rumors(node)

    @given(large_dense_graphs(min_nodes=8, max_nodes=16), seeds(100), st.data())
    @settings(max_examples=8, deadline=None)
    def test_crash_schedules_agree(self, graph, seed, data):
        rumor, make_state = broadcast_setup(graph)
        source = graph.nodes()[0]
        crashes = data.draw(crash_schedules(graph.nodes(), protect=[source]))

        def make_factory():
            make_rng = per_node_rng_factory(seed)
            return lambda node: PushPullProtocol(make_rng(node))

        report = run_differential(
            graph,
            make_factory=make_factory,
            make_state=make_state,
            predicate=lambda engine: engine.round >= 25,
            make_failure_model=lambda: crashes,  # stateless: sharable
            backend="vector",
            reference_cls=Engine,
        )
        assert_engines_agree(report)


@st.composite
def unshipped_programs(draw, graph, rumor):
    """node -> builder(rng) -> VectorProgram, drawn from programs no
    shipped protocol declares: ``random`` with a ``duration`` (optionally
    gated), and a knows/not_knows-gated ``round_robin`` over explicit
    ``targets`` with a ``duration`` and a non-zero ``start``."""
    builders = {}
    for node in graph.nodes():
        neighbors = sorted(graph.neighbors(node), key=repr)
        duration = draw(st.integers(0, 8))
        if draw(st.booleans()):
            gate = draw(
                st.sampled_from([None, ("knows", rumor), ("not_knows", rumor)])
            )
            builders[node] = lambda rng, gate=gate, duration=duration: VectorProgram(
                kind="random", rng=rng, gate=gate, duration=duration
            )
        else:
            program = VectorProgram(
                kind="round_robin",
                gate=(draw(st.sampled_from(["knows", "not_knows"])), rumor),
                targets=tuple(draw(st.lists(st.sampled_from(neighbors), max_size=4))),
                duration=duration,
                start=draw(st.integers(1, 5)),
            )
            builders[node] = lambda rng, program=program: program
    return builders


class TestUnshippedPrograms:
    """:class:`ObliviousProtocol` runs any random or round-robin program
    the same way on the reference oracle, the scalar engine and the array
    round, including programs no shipped protocol declares."""

    @given(connected_latency_graphs(max_nodes=12), seeds(), st.data())
    @settings(max_examples=25, deadline=None)
    def test_three_engines_agree(self, graph, seed, data):
        rumor, make_state = broadcast_setup(graph)
        builders = data.draw(unshipped_programs(graph, rumor))
        # Past every budget (<= 8 rounds) and its last exchanges' delivery.
        horizon = 8 + max(graph.max_latency(), 1) + 2

        def run(engine_cls, recorded=False):
            rngs = {}

            def factory(node):
                rng = rngs[node] = random.Random(f"{seed}:{node}")
                return ObliviousProtocol(builders[node](rng))

            stream = io.StringIO()
            options = {"recorder": Recorder.to_jsonl(stream)} if recorded else {}
            engine = engine_cls(graph, factory, state=make_state(), **options)
            rounds = []
            while engine.round < horizon:
                engine.step()
                rounds.append(
                    (
                        engine.all_done(),
                        [engine.state.rumors(node) for node in graph.nodes()],
                    )
                )
            rng_states = {node: rng.getstate() for node, rng in rngs.items()}
            return engine, rounds, rng_states, stream.getvalue().encode()

        reference, ref_rounds, ref_rngs, _ = run(ReferenceEngine)
        scalar, scalar_rounds, scalar_rngs, _ = run(Engine)
        vector, vector_rounds, vector_rngs, _ = run(VectorEngine)
        assert vector_rounds == scalar_rounds == ref_rounds
        assert vector.metrics == scalar.metrics == reference.metrics
        assert vector_rngs == scalar_rngs == ref_rngs
        scalar_bytes = run(Engine, recorded=True)[3]
        vector_bytes = run(VectorEngine, recorded=True)[3]
        assert scalar_bytes and vector_bytes == scalar_bytes


class _NoProgram(NodeProtocol):
    """Oblivious-looking protocol that declares no vector program."""

    def on_round(self, ctx):
        return None


class _Terminating(PushPullProtocol):
    """Locally-terminating variant: not oblivious, must be rejected."""

    def is_done(self, ctx):
        return False


class _DeliveryHook(PushPullProtocol):
    """Variant with a per-delivery callback: cannot be replayed as arrays."""

    def on_deliver(self, ctx, exchange):
        pass


class _PingOnly(PushPullProtocol):
    """Payload-free variant: the vector backend only ships rumors."""

    sends_payload = False


class _BadKind(PushPullProtocol):
    def vector_program(self):
        return VectorProgram(kind="telepathy", rng=super().vector_program().rng)


class _RandomWithoutRng(PushPullProtocol):
    def vector_program(self):
        return VectorProgram(kind="random", rng=None)


#: The per-exchange engine options (as builders: checkers hold per-run
#: state) and the label the refusal names them by.
PER_EXCHANGE_OPTIONS = [
    (lambda: {"failure_model": CrashSchedule({})}, "a failure model"),
    (lambda: {"checkers": default_checkers()}, "invariant checkers"),
    (lambda: {"fresh_snapshots": True}, "fresh snapshots"),
    (lambda: {"enforce_blocking": True}, "blocking enforcement"),
]


class TestEligibility:
    """Non-oblivious protocols are rejected at engine construction."""

    GRAPH = ring_of_cliques(3, 3, inter_latency=2, rng=random.Random(0))

    def _factory(self, protocol_cls):
        make_rng = per_node_rng_factory(0)
        return lambda node: protocol_cls(make_rng(node))

    @pytest.mark.parametrize(
        "protocol_cls, pattern",
        [
            (_Terminating, "is_done"),
            (_DeliveryHook, "on_deliver"),
            (_PingOnly, "ping-only"),
            (_BadKind, "telepathy"),
            (_RandomWithoutRng, "rng"),
        ],
    )
    def test_ineligible_protocols_rejected(self, protocol_cls, pattern):
        with pytest.raises(SimulationError, match=pattern):
            VectorEngine(self.GRAPH, self._factory(protocol_cls))

    def test_protocol_without_program_rejected(self):
        with pytest.raises(SimulationError, match="vector_program"):
            VectorEngine(self.GRAPH, lambda node: _NoProgram())

    def test_scalar_engine_still_accepts_them(self):
        # The same protocols are fine on the scalar backend: eligibility
        # is a vector-backend restriction, not a model restriction.
        engine = Engine(self.GRAPH, self._factory(_Terminating))
        engine.step()
        assert engine.round == 1

    @pytest.mark.parametrize("option, label", PER_EXCHANGE_OPTIONS)
    def test_per_exchange_options_rejected(self, option, label):
        # VectorEngine runs only the array round; the backend routes
        # these runs to the scalar engine over a VectorState instead.
        factory = self._factory(PushPullProtocol)
        with pytest.raises(SimulationError, match=label):
            VectorEngine(self.GRAPH, factory, **option())
        vector = resolve_engine_backend("vector")
        engine = vector(self.GRAPH, factory, **option())
        assert type(engine) is Engine
        assert isinstance(engine.state, VectorState)
        assert isinstance(vector(self.GRAPH, factory), VectorEngine)

    @pytest.mark.parametrize(
        "make_protocol, slug",
        [
            (lambda rng: LatencyDiscoveryProtocol(2), "no-vector-program"),
            (_PingOnly, "ping-only"),
        ],
        ids=["latency-discovery", "ping-only"],
    )
    def test_refused_protocols_route_to_engine(self, make_protocol, slug):
        # The backend hands a protocol the array round cannot replay to
        # the scalar engine over a VectorState and says why; a directly
        # built VectorEngine raises that same reason.
        factory = self._factory(make_protocol)
        engine = resolve_engine_backend("vector")(self.GRAPH, factory)
        assert type(engine) is Engine
        assert isinstance(engine.state, VectorState)
        assert engine.backend == "scalar-fallback"
        assert engine.refusal[0] == slug
        with pytest.raises(SimulationError) as raised:
            VectorEngine(self.GRAPH, factory)
        assert str(raised.value) == engine.refusal[1]

    def test_checked_scope_and_note_boards_route_to_engine(self):
        vector = resolve_engine_backend("vector")
        factory = self._factory(PushPullProtocol)
        with checked():
            assert type(vector(self.GRAPH, factory)) is Engine
            with pytest.raises(SimulationError, match="invariant checkers"):
                VectorEngine(self.GRAPH, factory)
        state = VectorState(self.GRAPH.nodes())
        state.publish_note(self.GRAPH.nodes()[0], hops=0)
        assert type(vector(self.GRAPH, factory, state=state)) is Engine
        with pytest.raises(SimulationError, match="note boards"):
            VectorEngine(self.GRAPH, factory, state=state)


class TestOneMatrix:
    """A :class:`VectorState` is one ``n x words`` matrix that widens in
    place, and widening never changes a rumor set: each leg keeps a
    :class:`ReferenceNetworkState` mirror and compares every node."""

    N = 100

    def _seeded(self, nodes=None):
        """70 rumors over 100 nodes: a two-word matrix."""
        nodes = list(nodes if nodes is not None else range(self.N))
        base = ReferenceNetworkState(nodes)
        vector = VectorState(nodes)
        for r in range(70):
            base.add_rumor(nodes[r], ("r", r))
            vector.add_rumor(nodes[r], ("r", r))
        assert vector._words.shape == (self.N, 2)
        return base, vector

    def _assert_mirrors(self, vector, mirror, words):
        assert vector.layout == "dense"
        assert vector._words.shape == (len(mirror.nodes()), words)
        assert vector.state_nbytes() == len(mirror.nodes()) * words * 8
        for node in mirror.nodes():
            assert vector.rumors(node) == mirror.rumors(node)

    def test_broadcast_is_one_word_per_node(self):
        base = ReferenceNetworkState(range(64))
        vector = VectorState(range(64))
        base.add_rumor(0, "r")
        vector.add_rumor(0, "r")
        self._assert_mirrors(vector, base, 1)

    def test_add_rumor_grows_matrix(self):
        base, vector = self._seeded()
        for r in range(70, 200):
            base.add_rumor(r % self.N, ("r", r))
            vector.add_rumor(r % self.N, ("r", r))
        self._assert_mirrors(vector, base, 4)  # 200 rumors: 2 -> 4 words

    def test_merge_grows_matrix(self):
        donor = VectorState(range(self.N))
        for r in range(200):
            donor.add_rumor(0, ("r", r))
        payload = donor.snapshot(0)
        base, vector = self._seeded()
        assert base.merge(5, payload)
        assert vector.merge(5, payload)
        self._assert_mirrors(vector, base, 4)

    def test_self_rumors_seed_the_exact_width(self):
        """Seeding 130 ids interns them all and widens once, to three
        words; one growth per id would double to four."""
        vector = VectorState(range(130))
        vector.seed_self_rumors()
        base = ReferenceNetworkState(range(130))
        base.seed_self_rumors()
        self._assert_mirrors(vector, base, 3)
        vector.add_rumor(0, "one more")  # bit 130 fits the third word
        assert vector._words.shape == (130, 3)

    def test_ldtg_token_interning_grows_matrix(self):
        graph = ring_of_cliques(10, 10, inter_latency=2, rng=random.Random(3))
        factory = ldtg_factory(graph, 1, run_tag="grow")
        base, vector = self._seeded(graph.nodes())
        scalar = Engine(graph, factory, state=base, latencies_known=True)
        engine = VectorEngine(graph, factory, state=vector, latencies_known=True)
        # 70 rumors + 100 tokens, interned at the build: 2 -> 4 words.
        self._assert_mirrors(vector, base, 4)
        while not scalar.all_done():
            scalar.step()
            engine.step()
        assert engine.all_done() and engine.round == scalar.round
        assert engine.metrics == scalar.metrics
        self._assert_mirrors(vector, base, 4)

    def test_eid_grows_matrix_between_phases(self):
        # n self-rumors fit one word; the ℓ-DTG tokens EID interns push
        # the universe past 64 bits between phases.
        graph = ring_of_cliques(5, 8, inter_latency=3, rng=random.Random(1))

        def run(backend):
            state = VectorState(graph.nodes())
            state.seed_self_rumors()
            runner = PhaseRunner(graph, state=state, backend=backend)
            report = run_eid(graph, diameter=graph.weighted_diameter(), runner=runner)
            return runner, report

        vector, vector_report = run("vector")
        scalar, scalar_report = run(None)
        assert isinstance(vector.state, VectorState)
        assert vector.state._words.shape[1] > 1
        assert vector_report == scalar_report
        assert vector.total_rounds == scalar.total_rounds
        assert vector.total_exchanges == scalar.total_exchanges
        assert vector.total_messages == scalar.total_messages
        assert [(p.name, p.rounds, p.exchanges) for p in vector.phases] == [
            (p.name, p.rounds, p.exchanges) for p in scalar.phases
        ]
        for node in graph.nodes():
            assert vector.state.rumors(node) == scalar.state.rumors(node)


class TestVectorInvariants:
    """I1–I5 accept the vector backend and still catch a broken run."""

    def test_checked_scope_passes_on_vector_backend(self):
        graph = erdos_renyi(
            24, 0.2, latency_model=uniform_latency(1, 4), rng=random.Random(5)
        )
        with checked():
            scalar = run_push_pull(graph, seed=3)
            vector = run_push_pull(graph, seed=3, backend="vector")
        assert scalar == vector

    def test_checkers_catch_forgotten_knowledge(self):
        graph = ring_of_cliques(3, 3, inter_latency=2, rng=random.Random(1))
        make_rng = per_node_rng_factory(0)
        engine = resolve_engine_backend("vector")(
            graph,
            lambda node: PushPullProtocol(make_rng(node)),
            checkers=default_checkers(),
        )
        engine.state.seed_self_rumors()
        for _ in range(4):
            engine.step()
        # Sabotage: wipe one node's entire row — knowledge must be
        # monotone, so the end-of-run scan has to fail.  (finish_checks,
        # not another step: a delivery in the next round could
        # legitimately restore the wiped knowledge first.)
        assert engine.state.layout == "dense"
        engine.state._words[0] = 0
        # Direct storage mutation bypasses the copy-on-write caches;
        # drop them so the checker reads the wiped row.
        engine.state._masks_cache[0] = None
        engine.state._snapshots[0] = None
        with pytest.raises(SimulationError, match="monotone"):
            engine.finish_checks()
