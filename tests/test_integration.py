"""Cross-protocol integration tests.

Every all-to-all algorithm in the library must arrive at the same final
knowledge on the same graph; every broadcast algorithm must deliver the
same single rumor.  These tests run the whole protocol zoo side by side on
shared topologies and check the end states agree — the strongest cheap
consistency check the library has.
"""

import random

import pytest

from repro.graphs import generators
from repro.protocols.base import PhaseRunner
from repro.protocols.discovery import run_general_eid_unknown_latencies
from repro.protocols.eid import run_eid, run_general_eid
from repro.protocols.flooding import run_flooding
from repro.protocols.path_discovery import run_path_discovery, run_t_sequence
from repro.protocols.push_pull import run_push_pull
from repro.sim.state import VectorState


GRAPHS = {
    "grid": lambda: generators.grid(3, 4),
    "weighted-ring": lambda: generators.ring_of_cliques(
        3, 4, inter_latency=3, rng=random.Random(0)
    ),
    "star": lambda: generators.star(10),
    "weighted-cycle": lambda: generators.cycle(
        8, latency_model=lambda u, v, r: r.randint(1, 4), rng=random.Random(1)
    ),
}


def node_knowledge(graph, state):
    universe = set(graph.nodes())
    return {node: state.rumors(node) & universe for node in graph.nodes()}


@pytest.mark.parametrize("name", sorted(GRAPHS))
class TestAllToAllAgreement:
    def test_every_backend_reaches_full_knowledge(self, name):
        graph = GRAPHS[name]()
        everyone = frozenset(graph.nodes())

        # push--pull
        result = run_push_pull(graph, mode="all_to_all", seed=1)
        assert result.complete

        # EID with the true diameter
        runner = PhaseRunner(graph)
        run_eid(graph, graph.weighted_diameter(), seed=1, runner=runner)
        assert all(
            everyone <= runner.state.rumors(v) for v in graph.nodes()
        ), "EID left gaps"

        # General EID (unknown diameter)
        geid = run_general_eid(graph, seed=1)
        assert geid.first_complete_round is not None

        # Path Discovery (no global knowledge)
        pd = run_path_discovery(graph)
        assert pd.first_complete_round is not None

        # Unknown latencies
        unk = run_general_eid_unknown_latencies(graph, seed=1)
        assert unk.first_complete_round is not None

    def test_t_sequence_matches_eid_knowledge(self, name):
        graph = GRAPHS[name]()
        diameter = graph.weighted_diameter()
        k = 1 << max(0, (diameter - 1).bit_length())

        t_runner = PhaseRunner(graph)
        run_t_sequence(t_runner, graph, k, tag="cmp")

        eid_runner = PhaseRunner(graph)
        run_eid(graph, diameter, seed=2, runner=eid_runner)

        assert node_knowledge(graph, t_runner.state) == node_knowledge(
            graph, eid_runner.state
        )


class TestBroadcastAgreement:
    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_flooding_and_push_pull_deliver_same_rumor(self, name):
        graph = GRAPHS[name]()
        flood = run_flooding(graph, source=graph.nodes()[0])
        gossip = run_push_pull(graph, source=graph.nodes()[0], seed=3)
        assert flood.complete and gossip.complete

    def test_broadcast_not_slower_than_diameter_floor(self):
        # No protocol can beat the weighted eccentricity of the source.
        graph = generators.ring_of_cliques(4, 4, inter_latency=6)
        source = graph.nodes()[0]
        floor = max(graph.weighted_distances(source).values())
        for result in (
            run_flooding(graph, source=source),
            run_push_pull(graph, source=source, seed=4),
        ):
            assert result.rounds >= floor


class TestProtocolCostOrdering:
    def test_self_termination_costs_more_than_completion(self):
        # Knowing you are done is what EID pays for: its termination round
        # is never before its completion round, on every graph.
        for name in sorted(GRAPHS):
            graph = GRAPHS[name]()
            report = run_general_eid(graph, seed=5)
            assert report.first_complete_round <= report.rounds

    def test_all_to_all_dominates_broadcast(self):
        graph = generators.grid(3, 3)
        broadcast = run_push_pull(graph, source=0, seed=6)
        all_to_all = run_push_pull(graph, mode="all_to_all", seed=6)
        assert all_to_all.rounds >= broadcast.rounds

    def test_exchanges_scale_with_rounds(self):
        graph = generators.clique(12)
        result = run_push_pull(graph, source=0, seed=7)
        # Every node initiates once per round on a clique.
        assert result.exchanges == 12 * result.rounds
