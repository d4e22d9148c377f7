"""Tests for the PhaseRunner multi-phase plumbing."""

import pytest

from repro.errors import SimulationError
from repro.graphs import generators
from repro.obs.metrics import default_registry, reset_metrics
from repro.obs.recorder import Recorder
from repro.protocols.base import PhaseRunner, per_node_rng_factory
from repro.protocols.discovery import LatencyDiscoveryProtocol
from repro.protocols.dtg import ldtg_factory
from repro.protocols.push_pull import PushPullProtocol
from repro.sim.engine import Engine
from repro.sim.failures import CrashSchedule
from repro.sim.invariants import default_checkers
from repro.sim.runner import min_rumors_complete
from repro.sim.state import VectorState
from repro.sim.vector import VectorProgram
from repro.testing import ReferenceNetworkState


class TestPerNodeRng:
    def test_streams_differ_between_nodes(self):
        make = per_node_rng_factory(0)
        assert make(0).random() != make(1).random()

    def test_streams_reproducible(self):
        assert per_node_rng_factory(5)(3).random() == per_node_rng_factory(5)(3).random()

    def test_streams_depend_on_seed(self):
        assert per_node_rng_factory(1)(0).random() != per_node_rng_factory(2)(0).random()

    def test_order_independent(self):
        # The stream depends on the node id, not on creation order.
        make = per_node_rng_factory(9)
        b_first = make(1).random()
        make2 = per_node_rng_factory(9)
        make2(0)
        assert make2(1).random() == b_first


class TestPhaseRunner:
    def test_fresh_state_seeds_self_rumors(self):
        g = generators.path(4)
        runner = PhaseRunner(g)
        for node in g.nodes():
            assert runner.state.knows(node, node)

    def test_external_state_not_reseeded(self):
        g = generators.path(3)
        state = VectorState(g.nodes())
        runner = PhaseRunner(g, state=state)
        assert runner.state.rumors(0) == frozenset()

    def test_rounds_accumulate_across_phases(self):
        g = generators.clique(6)
        runner = PhaseRunner(g)
        runner.run_phase(ldtg_factory(g, 1, run_tag="a"), latencies_known=True)
        first = runner.total_rounds
        runner.run_phase(ldtg_factory(g, 1, run_tag="b"), latencies_known=True)
        assert runner.total_rounds > first

    def test_exchange_and_message_counters(self):
        g = generators.clique(6)
        runner = PhaseRunner(g)
        runner.run_phase(ldtg_factory(g, 1), latencies_known=True)
        assert runner.total_exchanges > 0
        assert runner.total_messages == 2 * runner.total_exchanges

    def test_watch_records_first_completion(self):
        g = generators.path(4)
        target = set(g.nodes())
        runner = PhaseRunner(
            g,
            watch=lambda s: all(target <= s.rumors(v) for v in target),
        )
        assert runner.first_complete_round is None
        # A couple of tagged 1-DTG phases complete all-to-all on a path.
        for i in range(4):
            runner.run_phase(
                ldtg_factory(g, 1, run_tag=f"w{i}"), latencies_known=True
            )
        assert runner.first_complete_round is not None
        assert runner.first_complete_round <= runner.total_rounds

    def test_watch_true_at_start(self):
        g = generators.path(3)
        runner = PhaseRunner(g, watch=lambda s: True)
        assert runner.first_complete_round == 0

    def test_max_rounds_guard(self):
        g = generators.clique(8)
        runner = PhaseRunner(g)
        with pytest.raises(SimulationError):
            runner.run_phase(
                ldtg_factory(g, 1), latencies_known=True, max_rounds=2
            )

    def test_run_phase_returns_engine(self):
        g = generators.path(3)
        runner = PhaseRunner(g)
        engine = runner.run_phase(ldtg_factory(g, 1), latencies_known=True)
        assert engine.state is runner.state
        assert engine.all_done()


def _push_pull_factory(seed):
    make_rng = per_node_rng_factory(seed)
    return lambda node: PushPullProtocol(make_rng(node))


class _PingOnly(PushPullProtocol):
    sends_payload = False


class _DeliveryHook(PushPullProtocol):
    def on_deliver(self, ctx, exchange):
        pass


class _Terminating(PushPullProtocol):
    def is_done(self, ctx):
        return False


class _BadKind(PushPullProtocol):
    def vector_program(self):
        return VectorProgram(kind="telepathy", rng=super().vector_program().rng)


def _variant_factory(protocol_cls):
    make_rng = per_node_rng_factory(0)
    return lambda node: protocol_cls(make_rng(node))


#: One phase per refusal kind: (protocol factory builder, engine options,
#: the slug its sim_phase_backend reason label must carry).
REFUSALS = [
    (lambda g: lambda node: LatencyDiscoveryProtocol(2), {}, "no-vector-program"),
    (lambda g: _variant_factory(_PingOnly), {}, "ping-only"),
    (lambda g: _variant_factory(_DeliveryHook), {}, "on-deliver-callback"),
    (lambda g: _variant_factory(_Terminating), {}, "adaptive-termination"),
    (lambda g: ldtg_factory(g, 1, selection="random"), {}, "dtg-random-selection"),
    (lambda g: ldtg_factory(g, 1), {"max_incoming_per_round": 2}, "dtg-plan-run"),
    (lambda g: _push_pull_factory(0), {"enforce_blocking": True}, "per-exchange-run"),
    (lambda g: _variant_factory(_BadKind), {}, "ineligible"),
]


class TestBackendDispatch:
    """Per-phase vector dispatch, fallback bookkeeping, and gates."""

    @pytest.fixture(autouse=True)
    def _clean_registry(self):
        reset_metrics()
        yield
        reset_metrics()

    def test_eligible_phase_rides_vector(self):
        g = generators.clique(8)
        runner = PhaseRunner(g, backend="vector")
        runner.run_phase(
            _push_pull_factory(0),
            until=min_rumors_complete(len(g.nodes())),
            name="all-to-all",
        )
        assert runner.phases[-1].backend == "vector"
        assert runner.phase_fallbacks == [None]
        assert isinstance(runner.state, VectorState)

    def test_adaptive_phase_falls_back(self):
        # A plain rotating ℓ-DTG phase rides the vector plan; ping-only
        # latency discovery and random-linking ℓ-DTG stay ineligible.
        g = generators.clique(6)
        runner = PhaseRunner(g, backend="vector")
        runner.run_phase(ldtg_factory(g, 1), latencies_known=True)
        runner.run_phase(
            ldtg_factory(g, 1, run_tag="r", selection="random"),
            latencies_known=True,
        )
        runner.run_phase(
            lambda node: LatencyDiscoveryProtocol(2), latencies_known=False
        )
        assert [p.backend for p in runner.phases] == [
            "vector",
            "scalar-fallback",
            "scalar-fallback",
        ]
        assert runner.phase_fallbacks[0] is None
        assert "at random" in runner.phase_fallbacks[1]
        assert "no vector_program" in runner.phase_fallbacks[2]

    @pytest.mark.parametrize(
        "engine_kwargs, label",
        [
            ({"max_incoming_per_round": 2}, "an incoming cap"),
            ({"failure_model": CrashSchedule({})}, "a failure model"),
            ({"checkers": default_checkers()}, "invariant checkers"),
            ({"fresh_snapshots": True}, "fresh snapshots"),
            ({"enforce_blocking": True}, "blocking enforcement"),
            ({"recorder": "recorder"}, "a recorder"),
        ],
    )
    def test_dtg_plan_blockers_fall_back(self, engine_kwargs, label):
        g = generators.clique(6)
        recorder = None
        if engine_kwargs.get("recorder"):
            recorder, engine_kwargs = Recorder.in_memory(), {}
        runner = PhaseRunner(
            g, backend="vector", recorder=recorder, engine_kwargs=engine_kwargs
        )
        runner.run_phase(ldtg_factory(g, 1), latencies_known=True)
        assert runner.phases[-1].backend == "scalar-fallback"
        assert label in runner.phase_fallbacks[-1]
        counter = default_registry().counter("sim_phase_backend")
        assert (
            counter.value(
                backend="scalar-fallback",
                protocol="LDTGProtocol",
                reason="dtg-plan-run",
            )
            == 1
        )
        plain = PhaseRunner(g)
        plain.run_phase(ldtg_factory(g, 1), latencies_known=True)
        assert runner.total_rounds == plain.total_rounds
        assert runner.total_exchanges == plain.total_exchanges

    @pytest.mark.parametrize(
        "engine_kwargs, label",
        [
            ({"failure_model": CrashSchedule({})}, "a failure model"),
            ({"checkers": default_checkers()}, "invariant checkers"),
            ({"fresh_snapshots": True}, "fresh snapshots"),
            ({"enforce_blocking": True}, "blocking enforcement"),
        ],
    )
    def test_per_exchange_run_is_scalar_fallback(self, engine_kwargs, label):
        # An eligible push-pull phase of a per-exchange run runs on the
        # scalar engine over the bitset state, and says so.
        g = generators.clique(6)
        runner = PhaseRunner(g, backend="vector", engine_kwargs=engine_kwargs)
        runner.run_phase(
            _push_pull_factory(0), until=min_rumors_complete(len(g.nodes()))
        )
        assert runner.phases[-1].backend == "scalar-fallback"
        assert "per-exchange run" in runner.phase_fallbacks[-1]
        assert label in runner.phase_fallbacks[-1]
        assert isinstance(runner.state, VectorState)
        counter = default_registry().counter("sim_phase_backend")
        assert (
            counter.value(
                backend="scalar-fallback",
                protocol="PushPullProtocol",
                reason="per-exchange-run",
            )
            == 1
        )
        # The scalar run with the same options (checkers observe one run).
        scalar_kwargs = {k: v for k, v in engine_kwargs.items() if k != "checkers"}
        plain = PhaseRunner(g, engine_kwargs=scalar_kwargs)
        plain.run_phase(
            _push_pull_factory(0), until=min_rumors_complete(len(g.nodes()))
        )
        assert runner.total_rounds == plain.total_rounds
        assert runner.total_exchanges == plain.total_exchanges

    @pytest.mark.parametrize(
        "factory, engine_kwargs, slug",
        REFUSALS,
        ids=[slug for _, _, slug in REFUSALS],
    )
    def test_every_refusal_keeps_its_slug(self, factory, engine_kwargs, slug):
        # The slug comes from the refusal itself, not from its wording.
        g = generators.clique(6)
        runner = PhaseRunner(g, backend="vector", engine_kwargs=engine_kwargs)
        engine = runner.run_phase(
            factory(g), latencies_known=True, until=lambda state: True
        )
        assert type(engine) is Engine
        assert engine.refusal == (slug, runner.phase_fallbacks[-1])
        assert runner.phases[-1].backend == "scalar-fallback"
        counter = default_registry().counter("sim_phase_backend")
        protocol = type(engine.protocol(g.nodes()[0])).__name__
        assert (
            counter.value(backend="scalar-fallback", protocol=protocol, reason=slug)
            == 1
        )

    def test_explicit_factory_disables_dispatch(self):
        g = generators.clique(6)
        runner = PhaseRunner(g, backend="vector", engine_factory=Engine)
        runner.run_phase(_push_pull_factory(0), until=lambda s: True)
        assert runner.phases[-1].backend == "scalar"
        assert runner.phase_fallbacks == [None]

    def test_phase_backend_counter_labels(self):
        g = generators.clique(6)
        runner = PhaseRunner(g, backend="vector")
        runner.run_phase(
            _push_pull_factory(0),
            until=min_rumors_complete(len(g.nodes())),
            name="gossip",
        )
        runner.run_phase(ldtg_factory(g, 1), latencies_known=True)
        runner.run_phase(
            ldtg_factory(g, 1, run_tag="r", selection="random"),
            latencies_known=True,
        )
        runner.run_phase(
            lambda node: LatencyDiscoveryProtocol(2), latencies_known=False
        )
        counter = default_registry().counter("sim_phase_backend")
        assert (
            counter.value(
                backend="vector", protocol="PushPullProtocol", reason="eligible"
            )
            == 1
        )
        assert (
            counter.value(backend="vector", protocol="LDTGProtocol", reason="eligible")
            == 1
        )
        assert (
            counter.value(
                backend="scalar-fallback",
                protocol="LDTGProtocol",
                reason="dtg-random-selection",
            )
            == 1
        )
        assert (
            counter.value(
                backend="scalar-fallback",
                protocol="LatencyDiscoveryProtocol",
                reason="no-vector-program",
            )
            == 1
        )

    def test_min_rumors_gate_ends_phase_early(self):
        g = generators.clique(10)
        # "Every node knows >= 2 rumors" holds long before the all-to-all
        # completion that would otherwise park the oblivious phase.
        early = PhaseRunner(g, backend="vector")
        early.run_phase(_push_pull_factory(3), until=min_rumors_complete(2))
        full = PhaseRunner(g, backend="vector")
        full.run_phase(
            _push_pull_factory(3), until=min_rumors_complete(len(g.nodes()))
        )
        assert 0 < early.total_rounds < full.total_rounds
        for node in g.nodes():
            assert len(early.state.rumors(node)) >= 2

    def test_scalar_phase_then_vector_phase_relayouts(self):
        # A scalar-fallback phase grows the rumor universe of the carried
        # VectorState in place; the next vector phase runs on that same
        # state and keeps the accumulated knowledge.
        g = generators.clique(6)
        runner = PhaseRunner(g, backend="vector")
        runner.run_phase(
            _push_pull_factory(1), until=min_rumors_complete(2), name="warm"
        )
        assert isinstance(runner.state, VectorState)
        runner.run_phase(
            ldtg_factory(g, 1, run_tag="grow", selection="random"),
            latencies_known=True,
        )
        runner.run_phase(
            _push_pull_factory(2),
            until=min_rumors_complete(len(g.nodes())),
            name="finish",
        )
        assert [p.backend for p in runner.phases] == [
            "vector",
            "scalar-fallback",
            "vector",
        ]
        for node in g.nodes():
            assert set(g.nodes()) <= runner.state.rumors(node)

    def test_broadcast_state_widens_in_place(self):
        # A one-rumor VectorState is one bitset word per node.  Seeding
        # every node's own rumor after the broadcast phase widens that
        # same object, and the all-to-all phase runs on it.
        g = generators.clique(70)
        n = len(g.nodes())

        def run(state, backend):
            runner = PhaseRunner(g, state=state, backend=backend)
            runner.run_phase(
                _push_pull_factory(5),
                until=lambda s: all(s.knows(v, "seed") for v in g.nodes()),
                name="broadcast",
            )
            runner.state.seed_self_rumors()
            runner.run_phase(
                _push_pull_factory(6),
                until=min_rumors_complete(n + 1),
                name="all-to-all",
            )
            return runner

        def seeded(state_cls):
            state = state_cls(g.nodes())
            state.add_rumor(g.nodes()[0], "seed")
            return state

        vstate = seeded(VectorState)
        assert vstate._words.shape == (n, 1)
        vector = run(vstate, "vector")
        scalar = run(seeded(ReferenceNetworkState), "scalar")
        assert vector.state is vstate
        assert [p.backend for p in vector.phases] == ["vector", "vector"]
        assert vstate.layout == "dense"
        assert vstate._words.shape == (n, -(-(n + 1) // 64))
        assert vector.total_rounds == scalar.total_rounds
        for node in g.nodes():
            assert vstate.rumors(node) == scalar.state.rumors(node)
