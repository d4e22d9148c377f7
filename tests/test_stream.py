"""Tests for the streamed all-to-all runner (:mod:`repro.sim.stream`).

The streamed run replays one recorded contact schedule over rumor
blocks, so its :class:`~repro.sim.metrics.DisseminationResult` must be
*equal* — rounds, exchanges, messages, protocol tag — to the monolithic
``run_push_pull(..., mode="all_to_all", backend="vector")`` run of the
same seed, for every block size (including the degenerate single-block
case) and every memory budget.  Each block runs the vector engine's own
delivery stage, whose exact skips (saturated targets, empty sources,
the full-row marker for saturated sources) are checked directly in
``tests/test_vector_build.py``; here any divergence would show up as a
different completion round.
"""

import random

import pytest

from repro.errors import SimulationError
from repro.graphs.generators import erdos_renyi, ring_of_cliques
from repro.graphs.latency_graph import LatencyGraph
from repro.graphs.latency_models import uniform_latency
from repro.protocols.base import per_node_rng_factory
from repro.protocols.push_pull import PushPullProtocol, run_push_pull
from repro.sim import StreamReport, run_streamed_all_to_all
from repro.sim.invariants import checked
from repro.sim.stream import _RecordedSchedule
from repro.sim.state import VectorState
from repro.sim.vector import VectorEngine

#: Every run's round budget: these graphs complete in well under a
#: hundred rounds, so a stalled delivery stage fails here in seconds
#: instead of spinning to the default million.
ROUNDS = 300


def small_graph(seed=7, n=40, p=0.15):
    return erdos_renyi(
        n, p, latency_model=uniform_latency(1, 4), rng=random.Random(seed)
    )


class TestStreamedEqualsMonolithic:
    @pytest.mark.parametrize("seed", [0, 3, 7])
    def test_result_matches_vector_run(self, seed):
        graph = small_graph(seed=seed)
        monolithic = run_push_pull(
            graph, mode="all_to_all", seed=seed, backend="vector",
            max_rounds=ROUNDS,
        )
        report = run_streamed_all_to_all(graph, seed=seed, max_rounds=ROUNDS)
        assert report.result == monolithic

    @pytest.mark.parametrize("block_rumors", [3, 7, 39, 40, 64])
    def test_every_block_size_agrees(self, block_rumors):
        graph = small_graph()
        monolithic = run_push_pull(
            graph, mode="all_to_all", seed=5, backend="vector",
            max_rounds=ROUNDS,
        )
        report = run_streamed_all_to_all(
            graph, seed=5, block_rumors=block_rumors, max_rounds=ROUNDS
        )
        assert report.result == monolithic
        assert report.blocks == -(-graph.num_nodes // min(block_rumors, 40))

    def test_tiny_budget_forces_multi_block(self):
        # Block sizing floors at 64 rumors, so budget-driven streaming
        # needs n > 64 to actually split.
        graph = small_graph(seed=2, n=100, p=0.08)
        monolithic = run_push_pull(
            graph, mode="all_to_all", seed=2, backend="vector",
            max_rounds=ROUNDS,
        )
        report = run_streamed_all_to_all(
            graph, seed=2, max_state_bytes=200, max_rounds=ROUNDS
        )
        assert report.result == monolithic
        assert report.block_rumors == 64
        assert report.blocks == 2
        assert report.peak_state_bytes > 0

    def test_structured_graph_agrees(self):
        graph = ring_of_cliques(4, 5, inter_latency=3, rng=random.Random(1))
        monolithic = run_push_pull(
            graph, mode="all_to_all", seed=9, backend="vector",
            max_rounds=ROUNDS,
        )
        report = run_streamed_all_to_all(
            graph, seed=9, block_rumors=6, max_rounds=ROUNDS
        )
        assert report.result == monolithic

    def test_runs_unchecked_inside_checked_scope(self):
        # The blocks deliver outside any engine, so no checker could
        # watch them: the streamed run ignores the checked() scope.
        graph = small_graph(n=30)
        monolithic = run_push_pull(
            graph, mode="all_to_all", seed=0, backend="vector",
            max_rounds=ROUNDS,
        )
        with checked():
            report = run_streamed_all_to_all(
                graph, seed=0, block_rumors=8, max_rounds=ROUNDS
            )
        assert report.result == monolithic
        assert report.blocks == 4


class TestStreamReport:
    def test_report_shape(self):
        graph = small_graph(seed=4)
        report = run_streamed_all_to_all(
            graph, seed=4, block_rumors=16, max_rounds=ROUNDS
        )
        assert isinstance(report, StreamReport)
        assert report.result.complete
        assert report.result.protocol == "push-pull[all_to_all]"
        assert report.result.messages == 2 * report.result.exchanges
        assert report.block_rumors == 16
        assert len(report.phases) == report.blocks
        # The schedule is drawn up to the slowest block's completion
        # round, and the run's round count is that maximum.
        assert report.schedule_rounds == report.result.rounds
        assert report.result.rounds == max(p.rounds for p in report.phases)
        for phase in report.phases:
            assert phase.backend == "vector"

    def test_empty_graph_rejected(self):
        with pytest.raises(SimulationError, match="non-empty"):
            run_streamed_all_to_all(LatencyGraph(), max_rounds=ROUNDS)

    def test_bad_block_rumors_rejected(self):
        with pytest.raises(SimulationError, match="block_rumors"):
            run_streamed_all_to_all(small_graph(), block_rumors=0, max_rounds=ROUNDS)

    @pytest.mark.parametrize("budget", [0, -5])
    def test_non_positive_max_state_bytes_rejected(self, budget):
        # Even with an explicit block size, the budget must be >= 1.
        with pytest.raises(SimulationError, match="max_state_bytes must be >= 1"):
            run_streamed_all_to_all(
                small_graph(), max_state_bytes=budget, max_rounds=ROUNDS
            )
        with pytest.raises(SimulationError, match="max_state_bytes must be >= 1"):
            run_streamed_all_to_all(
                small_graph(),
                max_state_bytes=budget,
                block_rumors=16,
                max_rounds=ROUNDS,
            )

    def test_stalled_runs_fail_on_their_round_budget(self):
        # Two components never complete an all-to-all run: both runners
        # must stop at the budget, not spin to the default million.
        graph = LatencyGraph()
        graph.add_edge(0, 1, 1)
        graph.add_edge(2, 3, 1)
        with pytest.raises(SimulationError, match="exceeded max_rounds"):
            run_push_pull(
                graph, mode="all_to_all", seed=0, backend="vector", max_rounds=50
            )
        with pytest.raises(SimulationError, match="exceeded max_rounds"):
            run_streamed_all_to_all(graph, seed=0, max_rounds=50)


class TestScheduleEligibility:
    """Only ungated, cap-free oblivious runs can be schedule-replayed."""

    def test_gated_program_rejected(self):
        from repro.protocols.flooding import FloodingProtocol

        graph = small_graph()
        rumor = ("rumor", graph.nodes()[0])
        engine = VectorEngine(
            graph,
            lambda node: FloodingProtocol(rumor),
            state=VectorState(graph.nodes()),
        )
        with pytest.raises(SimulationError, match="ungated"):
            _RecordedSchedule(engine)

    def test_incoming_cap_rejected(self):
        graph = small_graph()
        make_rng = per_node_rng_factory(0)
        engine = VectorEngine(
            graph,
            lambda node: PushPullProtocol(make_rng(node)),
            state=VectorState(graph.nodes()),
            max_incoming_per_round=2,
        )
        with pytest.raises(SimulationError, match="incoming cap"):
            _RecordedSchedule(engine)
