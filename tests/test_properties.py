"""Property-based tests (hypothesis) for core data structures and invariants."""

import math
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.conductance.exact import cut_conductance, exact_conductance_profile
from repro.conductance.sweep import sweep_conductance
from repro.conductance.edge_induced import StronglyEdgeInducedGraph
from repro.graphs.latency_graph import LatencyGraph
from repro.lowerbounds.game import GuessingGame
from repro.protocols.path_discovery import t_sequence
from repro.protocols.spanner import baswana_sen_spanner
from repro.sim.state import VectorState


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

@st.composite
def connected_graphs(draw, max_nodes=10, max_latency=8):
    """A connected LatencyGraph: a random spanning tree plus extra edges."""
    n = draw(st.integers(min_value=2, max_value=max_nodes))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    rng = random.Random(seed)
    graph = LatencyGraph(nodes=range(n))
    order = list(range(n))
    rng.shuffle(order)
    for i in range(1, n):
        parent = order[rng.randrange(i)]
        graph.add_edge(order[i], parent, rng.randint(1, max_latency))
    extra = draw(st.integers(min_value=0, max_value=2 * n))
    for _ in range(extra):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v and not graph.has_edge(u, v):
            graph.add_edge(u, v, rng.randint(1, max_latency))
    return graph


# ---------------------------------------------------------------------------
# LatencyGraph invariants
# ---------------------------------------------------------------------------

class TestGraphProperties:
    @given(connected_graphs())
    @settings(max_examples=40, deadline=None)
    def test_handshake_lemma(self, graph):
        assert sum(graph.degree(v) for v in graph.nodes()) == 2 * graph.num_edges

    @given(connected_graphs())
    @settings(max_examples=40, deadline=None)
    def test_distances_symmetric(self, graph):
        nodes = graph.nodes()
        u, v = nodes[0], nodes[-1]
        assert graph.weighted_distance(u, v) == graph.weighted_distance(v, u)

    @given(connected_graphs())
    @settings(max_examples=40, deadline=None)
    def test_triangle_inequality(self, graph):
        nodes = graph.nodes()
        if len(nodes) < 3:
            return
        a, b, c = nodes[0], nodes[1], nodes[2]
        ab = graph.weighted_distance(a, b)
        bc = graph.weighted_distance(b, c)
        ac = graph.weighted_distance(a, c)
        assert ac <= ab + bc

    @given(connected_graphs())
    @settings(max_examples=40, deadline=None)
    def test_hop_distance_lower_bounds_weighted(self, graph):
        source = graph.nodes()[0]
        hops = graph.hop_distances(source)
        weighted = graph.weighted_distances(source)
        for node, h in hops.items():
            assert weighted[node] >= h  # latencies are >= 1

    @given(connected_graphs())
    @settings(max_examples=40, deadline=None)
    def test_subgraph_leq_monotone(self, graph):
        latencies = graph.distinct_latencies()
        for small, large in zip(latencies, latencies[1:]):
            assert (
                graph.subgraph_leq(small).num_edges
                <= graph.subgraph_leq(large).num_edges
            )

    @given(connected_graphs())
    @settings(max_examples=40, deadline=None)
    def test_copy_equality(self, graph):
        assert graph.copy() == graph


# ---------------------------------------------------------------------------
# Conductance invariants
# ---------------------------------------------------------------------------

class TestConductanceProperties:
    @given(connected_graphs(max_nodes=8))
    @settings(max_examples=25, deadline=None)
    def test_profile_monotone_and_bounded(self, graph):
        profile = exact_conductance_profile(graph)
        values = [profile[ell] for ell in sorted(profile)]
        assert all(0.0 <= v <= 1.0 for v in values)
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))

    @given(connected_graphs(max_nodes=8))
    @settings(max_examples=25, deadline=None)
    def test_sweep_upper_bounds_exact(self, graph):
        ell = graph.max_latency()
        exact = exact_conductance_profile(graph)[ell]
        approx = sweep_conductance(graph, ell)
        assert approx >= exact - 1e-12

    @given(connected_graphs(max_nodes=8))
    @settings(max_examples=25, deadline=None)
    def test_full_latency_conductance_positive_when_connected(self, graph):
        ell = graph.max_latency()
        assert exact_conductance_profile(graph)[ell] > 0.0

    @given(connected_graphs(max_nodes=8), st.integers(min_value=1, max_value=8))
    @settings(max_examples=25, deadline=None)
    def test_edge_induced_identity(self, graph, ell):
        induced = StronglyEdgeInducedGraph(graph, ell)
        nodes = graph.nodes()
        cut = nodes[: max(1, len(nodes) // 2)]
        assert induced.conductance(cut) == cut_conductance(
            graph, cut, max_latency=ell
        )

    @given(connected_graphs(max_nodes=8), st.integers(min_value=1, max_value=8))
    @settings(max_examples=25, deadline=None)
    def test_edge_induced_degree_preserved(self, graph, ell):
        induced = StronglyEdgeInducedGraph(graph, ell)
        for node in graph.nodes():
            assert induced.degree(node) == graph.degree(node)


# ---------------------------------------------------------------------------
# Guessing game invariants
# ---------------------------------------------------------------------------

class TestGameProperties:
    @given(
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_target_shrinks_monotonically(self, m, seed):
        rng = random.Random(seed)
        target = frozenset(
            (rng.randrange(m), m + rng.randrange(m)) for _ in range(m)
        )
        game = GuessingGame(m, target)
        previous = len(game.remaining_target)
        while not game.done and game.rounds < 100:
            guesses = {
                (rng.randrange(m), m + rng.randrange(m)) for _ in range(2 * m)
            }
            game.guess(set(list(guesses)[: 2 * m]))
            current = len(game.remaining_target)
            assert current <= previous
            previous = current

    @given(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_guessing_everything_ends_game(self, m, seed):
        rng = random.Random(seed)
        target = frozenset(
            (rng.randrange(m), m + rng.randrange(m)) for _ in range(m)
        )
        game = GuessingGame(m, target)
        all_pairs = [(a, m + b) for a in range(m) for b in range(m)]
        for start in range(0, len(all_pairs), 2 * m):
            if game.done:
                break
            game.guess(all_pairs[start : start + 2 * m])
        assert game.done

    @given(st.integers(min_value=0, max_value=6))
    @settings(max_examples=10, deadline=None)
    def test_t_sequence_structure(self, log_k):
        k = 1 << log_k
        seq = t_sequence(k)
        assert len(seq) == 2 * k - 1
        assert max(seq) == k
        assert sum(seq) == (log_k + 2) * k // 2 * 2 - k  # = k*(log k + 2) - k
        # Every element is a power of two dividing k.
        assert all(k % ell == 0 for ell in seq)


# ---------------------------------------------------------------------------
# Spanner invariants
# ---------------------------------------------------------------------------

class TestSpannerProperties:
    @given(
        connected_graphs(max_nodes=10),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=25, deadline=None)
    def test_spanner_connected_and_stretch_bounded(self, graph, k, seed):
        spanner = baswana_sen_spanner(graph, k, random.Random(seed))
        assert spanner.to_latency_graph().is_connected()
        stretch = spanner.measured_stretch(num_pairs=graph.num_nodes)
        assert stretch <= 2 * k - 1 + 1e-9

    @given(connected_graphs(max_nodes=10), st.integers(min_value=0, max_value=100))
    @settings(max_examples=25, deadline=None)
    def test_spanner_edges_subset(self, graph, seed):
        spanner = baswana_sen_spanner(graph, 3, random.Random(seed))
        for u, v in spanner.undirected_edges():
            assert graph.has_edge(u, v)


# ---------------------------------------------------------------------------
# VectorState invariants
# ---------------------------------------------------------------------------

class TestStateProperties:
    @given(st.lists(st.integers(min_value=0, max_value=4), max_size=30))
    @settings(max_examples=40, deadline=None)
    def test_rumor_sets_grow_monotonically(self, merge_sequence):
        state = VectorState(range(5))
        state.seed_self_rumors()
        sizes = {v: 1 for v in range(5)}
        for target in merge_sequence:
            source = (target + 1) % 5
            state.merge(target, state.snapshot(source))
            new_size = len(state.rumors(target))
            assert new_size >= sizes[target]
            sizes[target] = new_size

    @given(st.integers(min_value=1, max_value=20))
    @settings(max_examples=20, deadline=None)
    def test_merge_idempotent(self, repeats):
        state = VectorState([0, 1])
        state.add_rumor(0, "x")
        snapshot = state.snapshot(0)
        state.merge(1, snapshot)
        before = state.rumors(1)
        for _ in range(repeats):
            state.merge(1, snapshot)
        assert state.rumors(1) == before
