"""Tests for EID, Termination Check, and General EID (Algorithms 1, 3, 4)."""

import random

import pytest

from repro.errors import ProtocolError, SimulationError
from repro.graphs import generators
from repro.graphs.latency_graph import LatencyGraph
from repro.protocols import eid
from repro.protocols.base import PhaseRunner
from repro.protocols.discovery import run_general_eid_unknown_latencies
from repro.protocols.eid import (
    TerminationCheckReport,
    run_eid,
    run_general_eid,
    run_termination_check,
    spanner_iterations,
)
from repro.protocols.path_discovery import run_path_discovery


def all_to_all_done(graph, state) -> bool:
    everyone = set(graph.nodes())
    return all(everyone <= state.rumors(v) for v in everyone)


class TestEID:
    def test_solves_all_to_all_on_grid(self):
        g = generators.grid(4, 4)
        runner = PhaseRunner(g)
        report = run_eid(g, g.weighted_diameter(), seed=0, runner=runner)
        assert all_to_all_done(g, runner.state)
        assert report.rounds > 0
        assert report.spanner.to_latency_graph().is_connected()

    def test_solves_all_to_all_with_latencies(self):
        g = generators.ring_of_cliques(4, 4, inter_latency=5, rng=random.Random(0))
        runner = PhaseRunner(g)
        run_eid(g, g.weighted_diameter(), seed=1, runner=runner)
        assert all_to_all_done(g, runner.state)

    def test_underestimated_diameter_fails_gracefully(self):
        # EID(k) with k below the slow-edge latency cannot cross it.
        g = generators.ring_of_cliques(4, 4, inter_latency=20, rng=random.Random(0))
        runner = PhaseRunner(g)
        run_eid(g, 2, seed=2, runner=runner)
        assert not all_to_all_done(g, runner.state)

    def test_rejects_bad_diameter(self):
        with pytest.raises(ProtocolError):
            run_eid(generators.clique(4), 0)

    def test_report_counts(self):
        g = generators.clique(8)
        report = run_eid(g, 1, seed=3)
        assert report.exchanges > 0
        assert report.diameter_estimate == 1

    def test_spanner_iterations_floor(self):
        assert spanner_iterations(1) == 2
        assert spanner_iterations(2) == 2
        assert spanner_iterations(64) == 6
        assert spanner_iterations(100) == 7


class TestTerminationCheck:
    def _check(self, graph, runner, k=None):
        k = k if k is not None else graph.weighted_diameter()

        def broadcast(tag):
            from repro.protocols.dtg import ldtg_factory

            # Enough tagged full-latency DTG sweeps to cross the graph.
            for i in range(graph.num_nodes):
                runner.run_phase(
                    ldtg_factory(graph, k, run_tag=f"{tag}:{i}"),
                    latencies_known=True,
                )

        return run_termination_check(runner, graph, k, broadcast, iteration_tag="t")

    def test_passes_when_complete(self):
        g = generators.grid(3, 3)
        runner = PhaseRunner(g)
        run_eid(g, g.weighted_diameter(), seed=0, runner=runner)
        assert all_to_all_done(g, runner.state)
        report = self._check(g, runner)
        assert report.passed
        assert report.unanimous

    def test_fails_when_incomplete(self):
        g = generators.ring_of_cliques(4, 4, inter_latency=20, rng=random.Random(0))
        runner = PhaseRunner(g)  # fresh state: nobody knows anything remote
        report = self._check(g, runner, k=1)
        assert not report.passed

    def test_flag_raised_for_unknown_neighbor(self):
        g = LatencyGraph(edges=[(0, 1, 1)])
        runner = PhaseRunner(g)
        # Wipe node 0's knowledge of its neighbor: flags must catch it.
        report = self._check(g, runner, k=1)
        # Fresh state seeds self rumors only; neighbors unknown -> fail.
        assert not report.passed

    def test_verdict_rounds_accounted(self):
        g = generators.grid(3, 3)
        runner = PhaseRunner(g)
        run_eid(g, g.weighted_diameter(), seed=0, runner=runner)
        before = runner.total_rounds
        report = self._check(g, runner)
        assert report.rounds == runner.total_rounds - before
        assert report.rounds > 0


class TestGeneralEID:
    @pytest.mark.parametrize(
        "graph",
        [
            generators.grid(3, 3),
            generators.clique(10),
            generators.ring_of_cliques(3, 4, inter_latency=4, rng=random.Random(0)),
        ],
        ids=["grid", "clique", "ring-of-cliques"],
    )
    def test_terminates_complete_and_unanimous(self, graph):
        report = run_general_eid(graph, seed=0)
        assert report.first_complete_round is not None
        # Lemma 18: no premature termination.
        assert report.first_complete_round <= report.rounds
        assert report.iterations >= 1
        assert report.final_estimate >= 1

    def test_doubles_until_slow_edges_covered(self):
        g = generators.ring_of_cliques(4, 4, inter_latency=16, rng=random.Random(1))
        report = run_general_eid(g, seed=1)
        # With inter-clique latency 16, the estimate must reach >= 16 since
        # no information can cross the boundaries before then.
        assert report.final_estimate >= 16
        assert report.iterations >= 5

    def test_deterministic(self):
        g = generators.grid(3, 3)
        a = run_general_eid(g, seed=5)
        b = run_general_eid(g, seed=5)
        assert a.rounds == b.rounds
        assert a.final_estimate == b.final_estimate

    def test_single_clique_fast(self):
        g = generators.clique(8)
        report = run_general_eid(g, seed=2)
        assert report.final_estimate == 1
        assert report.iterations == 1


_DRIVERS = {
    "General EID": run_general_eid,
    "Path Discovery": run_path_discovery,
    "unknown-latency EID": run_general_eid_unknown_latencies,
}


@pytest.mark.parametrize("label", list(_DRIVERS))
class TestGuessAndDoubleLoop:
    """The one loop every all-to-all driver runs, with a stubbed check."""

    GRAPH = LatencyGraph(edges=[(0, 1, 1), (1, 2, 1)])
    CAP = 4 * (3 - 1) * 1  # 4 · (n − 1) · ℓmax

    def _stub_check(self, monkeypatch, verdicts):
        estimates = []

        def check(runner, graph, k, broadcast, iteration_tag):
            estimates.append(k)
            values = set(verdicts.values())
            return TerminationCheckReport(
                verdicts=dict(verdicts),
                passed=values == {True},
                unanimous=len(values) == 1,
                rounds=0,
            )

        monkeypatch.setattr(eid, "run_termination_check", check)
        return estimates

    def test_disagreeing_verdicts_violate_lemma_18(self, monkeypatch, label):
        estimates = self._stub_check(monkeypatch, {0: True, 1: False, 2: True})
        with pytest.raises(ProtocolError, match="violates Lemma 18"):
            _DRIVERS[label](self.GRAPH)
        assert estimates == [1]

    def test_a_check_that_never_passes_hits_the_cap(self, monkeypatch, label):
        estimates = self._stub_check(monkeypatch, {0: False, 1: False, 2: False})
        with pytest.raises(SimulationError) as info:
            _DRIVERS[label](self.GRAPH)
        assert str(info.value) == (
            f"{label} estimate k={2 * self.CAP} exceeded the diameter cap "
            f"{self.CAP} without passing the termination check"
        )
        assert estimates == [1, 2, 4, 8]
