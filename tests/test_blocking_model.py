"""Tests for the blocking-communication enforcement mode (Appendix E claim)."""

import pytest

from repro.errors import ProtocolError
from repro.graphs import generators
from repro.graphs.latency_graph import LatencyGraph
from repro.protocols.base import per_node_rng_factory
from repro.protocols.dtg import ldtg_factory
from repro.protocols.discovery import LatencyDiscoveryProtocol
from repro.protocols.push_pull import PushPullProtocol
from repro.sim.engine import Engine
from repro.sim.state import VectorState


def run_blocking_phase(graph, factory, max_rounds=100_000, latencies_known=True):
    state = VectorState(graph.nodes())
    state.seed_self_rumors()
    engine = Engine(
        graph,
        factory,
        state=state,
        latencies_known=latencies_known,
        enforce_blocking=True,
    )
    while not engine.all_done():
        if engine.round >= max_rounds:
            raise AssertionError("phase did not terminate")
        engine.step()
    return engine


class TestEnforcement:
    def test_push_pull_violates_blocking_on_slow_edges(self):
        # Push--pull initiates every round; with latency > 1 the second
        # initiation overlaps the first — non-blocking by design.
        g = LatencyGraph(edges=[(0, 1, 5)])
        make_rng = per_node_rng_factory(0)
        engine = Engine(
            g,
            lambda node: PushPullProtocol(make_rng(node)),
            enforce_blocking=True,
        )
        with pytest.raises(ProtocolError):
            for _ in range(3):
                engine.step()

    def test_push_pull_fine_on_unit_latency(self):
        # With latency 1 every exchange delivers before the next round, so
        # even push--pull satisfies the blocking discipline.
        g = generators.clique(6)
        make_rng = per_node_rng_factory(1)
        engine = Engine(
            g,
            lambda node: PushPullProtocol(make_rng(node)),
            enforce_blocking=True,
        )
        for _ in range(20):
            engine.step()  # must not raise

    def test_discovery_probes_violate_blocking(self):
        # The discovery phase fires one probe per round without waiting —
        # it needs the non-blocking model (Section 4.2 assumes it).
        g = generators.star(5, latency_model=lambda u, v, r: 4)
        engine = Engine(
            g,
            lambda node: LatencyDiscoveryProtocol(6),
            enforce_blocking=True,
        )
        with pytest.raises(ProtocolError):
            for _ in range(10):
                engine.step()


class TestAppendixEClaim:
    """Appendix E: the T(k) machinery works under blocking communication."""

    @pytest.mark.parametrize(
        "graph",
        [
            generators.clique(8),
            generators.grid(3, 3),
            generators.ring_of_cliques(3, 4, inter_latency=3),
        ],
        ids=["clique", "grid", "weighted-ring"],
    )
    def test_ldtg_is_blocking_compatible(self, graph):
        ell = graph.max_latency()
        run_blocking_phase(graph, ldtg_factory(graph, ell))

    def test_t_sequence_is_blocking_compatible(self):
        from repro.protocols.path_discovery import t_sequence

        graph = generators.ring_of_cliques(3, 4, inter_latency=2)
        for step, ell in enumerate(t_sequence(4)):
            run_blocking_phase(
                graph, ldtg_factory(graph, ell, run_tag=f"b{step}")
            )

    def test_rr_broadcast_is_blocking_compatible_on_unit_spanner(self):
        # RR initiates every round; under blocking it only works when all
        # used edges have latency 1 (otherwise it needs the non-blocking
        # model, which EID assumes).
        from repro.protocols.rr_broadcast import rr_broadcast_factory
        from repro.protocols.spanner import baswana_sen_spanner
        import random

        graph = generators.clique(8)  # unit latencies
        spanner = baswana_sen_spanner(graph, 3, random.Random(0))
        run_blocking_phase(graph, rr_broadcast_factory(spanner, 1))
