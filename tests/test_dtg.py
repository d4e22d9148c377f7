"""Tests for the ℓ-DTG local broadcast protocol (Algorithm 5)."""

import pytest

from repro.errors import ProtocolError
from repro.graphs import generators
from repro.graphs.latency_graph import LatencyGraph
from repro.protocols.base import PhaseRunner
from repro.protocols.dtg import LDTGProtocol, ldtg_factory, run_ldtg
from repro.sim.runner import local_broadcast_complete
from repro.sim.vector import dtg_fast_order, dtg_iteration_start, dtg_link, dtg_token


class TestRunLDTG:
    def test_local_broadcast_on_clique(self):
        result = run_ldtg(generators.clique(12), max_latency=1)
        assert result.complete

    def test_local_broadcast_on_grid(self):
        result = run_ldtg(generators.grid(4, 4), max_latency=1)
        assert result.complete

    def test_local_broadcast_on_star(self):
        result = run_ldtg(generators.star(15), max_latency=1)
        assert result.complete

    def test_respects_latency_threshold(self):
        # Edges above ell are ignored: their neighbors are not covered.
        g = LatencyGraph(edges=[(0, 1, 1), (1, 2, 9)])
        runner = PhaseRunner(g)
        runner.run_phase(ldtg_factory(g, 1), latencies_known=True)
        assert runner.state.knows(0, 1)
        assert not runner.state.knows(1, 2)  # slow edge never used

    def test_ell_scaling_linear(self):
        g1 = generators.clique(10, latency_model=lambda u, v, r: 1)
        g4 = generators.clique(10, latency_model=lambda u, v, r: 4)
        r1 = run_ldtg(g1, max_latency=1)
        r4 = run_ldtg(g4, max_latency=4)
        assert r4.rounds == pytest.approx(4 * r1.rounds, rel=0.35)

    def test_mixed_latencies_covered_up_to_ell(self):
        g = generators.ring_of_cliques(3, 4, inter_latency=3)
        result = run_ldtg(g, max_latency=3)
        assert result.complete  # covers both latency-1 and latency-3 edges

    def test_rejects_bad_latency(self):
        with pytest.raises(ProtocolError):
            LDTGProtocol(0)


class TestRunTags:
    def test_rerun_without_tag_is_noop(self):
        g = generators.clique(8)
        runner = PhaseRunner(g)
        runner.run_phase(ldtg_factory(g, 1), latencies_known=True)
        first = runner.total_rounds
        runner.run_phase(ldtg_factory(g, 1), latencies_known=True)
        # Loop condition already met: one bookkeeping round, no exchanges.
        assert runner.total_rounds <= first + 1

    def test_rerun_with_fresh_tag_does_work(self):
        g = generators.clique(8)
        runner = PhaseRunner(g)
        runner.run_phase(ldtg_factory(g, 1, run_tag="a"), latencies_known=True)
        first = runner.total_rounds
        runner.run_phase(ldtg_factory(g, 1, run_tag="b"), latencies_known=True)
        assert runner.total_rounds > first

    def test_tagged_reruns_relay_fresh_tokens(self):
        # A second tagged run re-exchanges with every neighbor, relaying its
        # fresh tokens (and with them, everything learned meanwhile).
        g = generators.path(5)
        runner = PhaseRunner(g)
        runner.run_phase(ldtg_factory(g, 1, run_tag="r0"), latencies_known=True)
        assert runner.state.knows(0, 1)
        assert not runner.state.knows(0, ("r1", 1))
        runner.run_phase(ldtg_factory(g, 1, run_tag="r1"), latencies_known=True)
        assert runner.state.knows(0, ("r1", 1))
        assert runner.state.knows(4, ("r1", 3))

    def test_tag_tokens_present(self):
        g = generators.path(3)
        runner = PhaseRunner(g)
        runner.run_phase(ldtg_factory(g, 1, run_tag="t"), latencies_known=True)
        assert ("t", 1) in runner.state.rumors(0)


class TestMeasuredNeighborMode:
    def test_explicit_fast_neighbors(self):
        g = LatencyGraph(edges=[(0, 1, 2), (1, 2, 2), (0, 2, 9)])
        measured = {
            0: {1: 2},
            1: {0: 2, 2: 2},
            2: {1: 2},
        }
        runner = PhaseRunner(g)
        # latencies_known=False: protocols must not touch the oracle.
        runner.run_phase(
            ldtg_factory(g, 2, measured=measured), latencies_known=False
        )
        view = type("V", (), {"graph": g, "state": runner.state})()
        assert local_broadcast_complete(2)(view)

    def test_missing_measurements_mean_no_fast_neighbors(self):
        g = LatencyGraph(edges=[(0, 1, 1)])
        runner = PhaseRunner(g)
        runner.run_phase(
            ldtg_factory(g, 1, measured={}), latencies_known=False
        )
        assert not runner.state.knows(0, 1)


class TestIterationAccounting:
    def test_iterations_bounded_by_degree(self):
        g = generators.clique(16)
        runner = PhaseRunner(g)
        engine = runner.run_phase(ldtg_factory(g, 1), latencies_known=True)
        for node in g.nodes():
            protocol = engine.protocol(node)
            assert isinstance(protocol, LDTGProtocol)
            assert protocol.iterations_used <= g.degree(node)

    def test_iterations_grow_with_clique_size(self):
        def max_iterations(n):
            g = generators.clique(n)
            runner = PhaseRunner(g)
            engine = runner.run_phase(ldtg_factory(g, 1), latencies_known=True)
            return max(engine.protocol(v).iterations_used for v in g.nodes())

        assert max_iterations(32) >= max_iterations(8)


class _Named:
    """A node whose repr is only its name, so two nodes can share one."""

    def __init__(self, name):
        self.name = name

    def __repr__(self):
        return self.name


class TestSchedule:
    """The one ℓ-DTG schedule both backends read, pinned to Algorithm 5.

    The scalar and vector runs share it, so the differential suites cannot
    see a change to it; these literal values can.
    """

    def test_fast_order_rotates_strictly_past_own_repr(self):
        assert dtg_fast_order(3, [5, 1, 4, 2]) == [4, 5, 1, 2]
        assert dtg_fast_order(9, [5, 1, 4, 2]) == [1, 2, 4, 5]
        a, b, twin, c = _Named("a"), _Named("b"), _Named("b"), _Named("c")
        assert dtg_fast_order(b, [c, twin, a]) == [c, a, twin]

    def test_run_token(self):
        assert dtg_token(None, 5) == 5
        assert dtg_token("t", 5) == ("t", 5)

    def test_link_order_push_pull_pull_push(self):
        # PUSH j = 3..1, PULL j = 1..3, PULL j = 1..3, PUSH j = 3..1.
        assert [dtg_link(3, k) for k in range(12)] == [
            2, 1, 0, 0, 1, 2, 0, 1, 2, 2, 1, 0,
        ]
        assert [dtg_link(1, k) for k in range(4)] == [0, 0, 0, 0]

    def test_iteration_start_rounds(self):
        # Iteration i runs 4·i steps of ℓ rounds each.
        assert [dtg_iteration_start(2, i) for i in (1, 2, 3, 4)] == [0, 8, 24, 48]
