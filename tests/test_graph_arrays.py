"""The array-backed graph substrate.

:meth:`LatencyGraph.from_edge_arrays` (what ``erdos_renyi_fast`` builds)
keeps insertion-order CSR rows and builds the dict adjacency only for the
queries that need one.  It must answer every query exactly as the same
graph built through ``add_edge`` does, reject what ``add_edge`` rejects
with the same message, retire its rows on mutation, and let the vector
engine run without ever building the dict.  The vector engine's numpy
``repr`` order must match ``sorted(key=repr)``.
"""

import pickle
import random

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graphs import generators
from repro.graphs.latency_graph import LatencyGraph
from repro.graphs.latency_models import (
    bimodal_latency,
    constant_latency,
    draw_latencies,
    uniform_latency,
)
from repro.obs.recorder import Recorder
from repro.protocols.base import per_node_rng_factory
from repro.protocols.push_pull import PushPullProtocol, run_push_pull
from repro.sim import stream
from repro.sim.runner import broadcast_complete
from repro.sim.state import VectorState
from repro.sim.vector import VectorEngine, _csr_arrays, _repr_ranks


def _edge_list(n, p, seed, connected=True):
    graph = generators.erdos_renyi_fast(
        n, p, uniform_latency(1, 6), random.Random(seed), ensure_connected=connected
    )
    us, vs, lats = graph.edge_arrays()
    return list(zip(us.tolist(), vs.tolist(), lats.tolist()))


def _shuffled(edges, seed):
    """The edges in a random order and orientation (rows then interleave)."""
    rng = random.Random(seed)
    edges = [(v, u, lat) if rng.random() < 0.5 else (u, v, lat) for u, v, lat in edges]
    rng.shuffle(edges)
    return edges


def _pair(n, edges):
    """The same graph built from arrays and through ``add_edge``."""
    us, vs, lats = (np.array([edge[k] for edge in edges], dtype=np.int64) for k in range(3))
    arrays = LatencyGraph.from_edge_arrays(n, us, vs, lats)
    built = LatencyGraph(nodes=range(n))
    for u, v, latency in edges:
        built.add_edge(u, v, latency)
    return arrays, built


CASES = {
    "connected": (60, _shuffled(_edge_list(60, 0.08, 1), 2)),
    "isolated-nodes": (40, _shuffled(_edge_list(40, 0.03, 3, connected=False), 4)),
    "one-node": (1, []),
    "edgeless": (5, []),
    "no-nodes": (0, []),
}


def _array_queries(g):
    """Every query an array-built graph answers from its rows."""
    nodes = g.nodes()
    return {
        "num_nodes": g.num_nodes,
        "num_edges": g.num_edges,
        "nodes": nodes,
        "has_node": [g.has_node(v) for v in nodes + [-1, len(nodes), "x"]],
        "neighbors": [g.neighbors(v) for v in nodes],
        "degree": [g.degree(v) for v in nodes],
        "degrees": (g.min_degree(), g.max_degree()),
        "latencies": (g.distinct_latencies(), g.max_latency()),
        "volume": g.volume(nodes[::3]),
        "index": [(g.index_of(v), g.node_at(i)) for i, v in enumerate(nodes)],
        "adjacency_arrays": g.adjacency_arrays(),
        "csr_rows": [a.tolist() for a in g.csr_rows()],
        "edge_arrays": [a.tolist() for a in g.edge_arrays()],
        "fingerprint": g.fingerprint(),
        "repr": repr(g),
        "hop": [g.hop_distances(v) for v in nodes[:5]],
        "dijkstra": [g.weighted_distances(v) for v in nodes[:5]],
        "connected": g.is_connected(),
    }


def _dict_queries(g):
    """Queries that read the dict adjacency."""
    nodes = g.nodes()
    pairs = [(u, v) for u in nodes[:8] for v in nodes[:8]]
    return {
        "edges": list(g.edges()),
        "has_edge": [g.has_edge(u, v) for u, v in pairs],
        "latency": [g.latency(u, v) for u, v in pairs if g.has_edge(u, v)],
        "neighbor_latencies": [g.neighbor_latencies(v) for v in nodes],
        "adjacency_view": g.adjacency_view(),
        "cut_edges": sorted(g.cut_edges(nodes[::2]), key=repr),
        "canonical": [g.canonical_edge(u, v) for u, v in pairs if g.has_edge(u, v)],
        "subgraph_leq": g.subgraph_leq(3).fingerprint(),
        "copy": g.copy().fingerprint(),
    }


class TestArrayGraphMatchesDictGraph:
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_every_query_agrees(self, case):
        n, edges = CASES[case]
        arrays, built = _pair(n, edges)
        assert _array_queries(arrays) == _array_queries(built)
        # None of those needed the dict.
        assert "_adj" not in vars(arrays)
        assert _dict_queries(arrays) == _dict_queries(built)
        assert "_adj" in vars(arrays)
        assert arrays == built
        assert arrays.copy() == built
        assert arrays.subgraph_leq(3) == built.subgraph_leq(3)

    def test_distances_and_diameters_agree(self):
        arrays, built = _pair(*CASES["connected"])
        for g in (arrays, built):
            assert g.is_connected()
        assert arrays.weighted_diameter() == built.weighted_diameter()
        assert arrays.hop_diameter() == built.hop_diameter()
        assert arrays.weighted_distance(0, 59) == built.weighted_distance(0, 59)

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_pickle_keeps_rows_drops_dict(self, case):
        arrays, built = _pair(*CASES[case])
        arrays.adjacency_view()  # the dict exists before pickling ...
        clone = pickle.loads(pickle.dumps(arrays))
        assert "_adj" not in vars(clone)  # ... and is not shipped
        assert clone._live_rows() is not None
        assert _array_queries(clone) == _array_queries(built)
        assert clone == built

    def test_erdos_renyi_fast_is_array_built(self):
        graph = generators.erdos_renyi_fast(200, 0.05, rng=random.Random(0))
        assert graph._live_rows() is not None
        assert "_adj" not in vars(graph)


class TestMutationRetiresRows:
    @pytest.mark.parametrize(
        "mutate",
        [
            lambda g: g.add_edge(0, 59, 7) if not g.has_edge(0, 59) else g.remove_edge(0, 59),
            lambda g: g.remove_edge(*next(iter(g.edges()))[:2]),
            lambda g: g.add_edge(3, "new", 2),
            lambda g: g.add_node("lonely"),
        ],
        ids=["add_edge", "remove_edge", "add_edge-new-node", "add_node"],
    )
    def test_mutation(self, mutate):
        arrays, built = _pair(*CASES["connected"])
        before = _array_queries(arrays)  # fills every array-derived cache
        mutate(arrays)
        mutate(built)
        assert arrays._live_rows() is None
        after = _array_queries(arrays)
        assert after == _array_queries(built)
        assert after != before
        assert _dict_queries(arrays) == _dict_queries(built)
        assert pickle.loads(pickle.dumps(arrays)) == built

    def test_existing_node_is_no_mutation(self):
        arrays, _ = _pair(*CASES["connected"])
        arrays.add_node(5)
        assert arrays._live_rows() is not None
        assert "_adj" not in vars(arrays)


def _add_edge_error(edges):
    graph = LatencyGraph(nodes=range(4))
    with pytest.raises(GraphError) as info:
        for u, v, latency in edges:
            graph.add_edge(u, v, latency)
    return str(info.value)


def _arrays_error(n, us, vs, lats):
    with pytest.raises(GraphError) as info:
        LatencyGraph.from_edge_arrays(n, us, vs, lats)
    return str(info.value)


class TestFromEdgeArraysRejects:
    @pytest.mark.parametrize(
        "bad",
        [(2, 2, 1), (1, 2, 1.5), (1, 2, True), (1, 2, 0), (1, 2, -3), (1, 2, "3")],
        ids=["self-loop", "float", "bool", "zero", "negative", "str"],
    )
    def test_add_edge_message(self, bad):
        # The bad edge comes after a valid one and before a later bad one:
        # the first offending edge in order is reported.
        edges = [(0, 1, 2), bad, (3, 3, 0)]
        us, vs, lats = (list(column) for column in zip(*edges))
        assert _arrays_error(4, us, vs, lats) == _add_edge_error(edges)

    def test_bad_numpy_latencies(self):
        assert _arrays_error(4, [0, 1], [1, 2], np.array([1, 0])) == (
            "latency must be >= 1, got 0 for edge (1, 2)"
        )
        # The elements of a float array are numpy floats, as add_edge sees them.
        floats = np.array([1.0, 2.0])
        message = _arrays_error(4, [0, 1], [1, 2], floats)
        assert message == _add_edge_error([(0, 1, floats[0])])
        assert message == "latency must be an int, got float64 for edge (0, 1)"

    @pytest.mark.parametrize("later", [(1, 0), (0, 1)], ids=["reversed", "same"])
    def test_duplicate_pair(self, later):
        us, vs = [0, 2, later[0]], [1, 3, later[1]]
        message = _arrays_error(4, us, vs, [1, 1, 1])
        assert message == f"duplicate edge {later}"

    @pytest.mark.parametrize("u,v", [(0, 4), (-1, 2), (7, 1)])
    def test_out_of_range(self, u, v):
        message = _arrays_error(4, [0, u], [1, v], [1, 1])
        assert message == f"edge ({u}, {v}) has an endpoint outside range(4)"

    def test_shapes_and_id_types(self):
        assert "differ in length" in _arrays_error(4, [0, 1], [1], [1, 1])
        assert "int node ids" in _arrays_error(4, [0.0], [1.0], [1])
        assert "int node ids" in _arrays_error(4, np.array([True]), [1], [1])
        assert "n >= 0" in _arrays_error(-1, [], [], [])


def _sorted_ranks(nodes):
    """Ranks by ``sorted(key=repr)``, equal reprs sharing one."""
    order = sorted(range(len(nodes)), key=lambda i: repr(nodes[i]))
    ranks, rank, previous = [0] * len(nodes), -1, None
    for i in order:
        if repr(nodes[i]) != previous:
            rank, previous = rank + 1, repr(nodes[i])
        ranks[i] = rank
    return ranks


STRADDLE = [0, 9, 10, 99, 100, 999, 1000, 1, 11, 101, 19, 2, 20, 1001, 10**18,
            10**18 + 1, 2**63 - 1, 9 * 10**18, 5, 55, 555]


class TestReprOrder:
    @pytest.mark.parametrize(
        "nodes",
        [
            STRADDLE,
            sorted(random.Random(0).sample(range(10**7), 300)),
            random.Random(1).sample(range(10**12), 200),
            list(range(1000)),
            [],
        ],
        ids=["straddle", "sparse-sorted", "sparse-shuffled", "dense", "empty"],
    )
    def test_numpy_ranks_equal_sorted_repr(self, nodes):
        assert _repr_ranks(nodes).tolist() == _sorted_ranks(nodes)

    @pytest.mark.parametrize(
        "nodes",
        [
            ["b", "a10", "a9", "a1"],
            [True, 1 + 1, 0, 5, 10],
            [-1, -10, 3, -2, 20],
            [2**63, 2**64 + 1, 7, 70],
            [(1, 2), "x", 3, 3.5],
        ],
        ids=["str", "bool", "negative", "beyond-int64", "mixed"],
    )
    def test_fallback_labels(self, nodes):
        assert _repr_ranks(nodes).tolist() == _sorted_ranks(nodes)

    def test_equal_reprs_keep_insertion_order(self):
        class Same:
            def __repr__(self):
                return "same"

        a, b = Same(), Same()
        graph = LatencyGraph()
        for other, latency in ((b, 1), ("z", 2), (a, 3)):
            graph.add_edge("hub", other, latency)
        deg, off, nbr, lat, eid = _csr_arrays(graph)
        row = [graph.node_at(j) for j in nbr[off[0] : off[1]].tolist()]
        assert row == sorted(graph.neighbors("hub"), key=repr) == ["z", b, a]

    @pytest.mark.parametrize("labels", ["straddle", "str", "negative"])
    def test_csr_rows_in_repr_order(self, labels):
        base = generators.erdos_renyi(len(STRADDLE), 0.4, uniform_latency(1, 5), random.Random(2))
        names = {
            "straddle": STRADDLE,
            "str": [f"v{x}" for x in STRADDLE],
            "negative": [x - 10**6 for x in STRADDLE],
        }[labels]
        graph = base.relabeled(dict(zip(base.nodes(), names)))
        deg, off, nbr, lat, eid = _csr_arrays(graph)
        us, vs, lats = graph.edge_arrays()
        for i, node in enumerate(graph.nodes()):
            row = nbr[off[i] : off[i + 1]].tolist()
            assert [graph.node_at(j) for j in row] == sorted(graph.neighbors(node), key=repr)
            for j, e, latency in zip(row, eid[off[i] : off[i + 1]].tolist(), lat[off[i] : off[i + 1]].tolist()):
                assert {int(us[e]), int(vs[e])} == {i, j}
                assert latency == lats[e] == graph.latency(node, graph.node_at(j))


class TestBulkLatencyDraws:
    @pytest.mark.parametrize(
        "model",
        [
            uniform_latency(1, 8),
            uniform_latency(5, 5),
            uniform_latency(3, 1000),
            uniform_latency(1, 2**32),
            uniform_latency(1, 2**32 + 1),
            constant_latency(4),
            bimodal_latency(1, 9, 0.3),
        ],
        ids=["1-8", "5-5", "3-1000", "2^32-wide", "too-wide", "constant", "bimodal"],
    )
    @pytest.mark.parametrize("rng_class", [random.Random, type("Sub", (random.Random,), {})])
    def test_same_values_and_rng_state_as_per_edge_calls(self, model, rng_class):
        us = np.arange(5000, dtype=np.int64)
        vs = us + 1
        bulk_rng, loop_rng = rng_class(11), rng_class(11)
        drawn = draw_latencies(model, us, vs, bulk_rng)
        expected = [model(u, v, loop_rng) for u, v in zip(us.tolist(), vs.tolist())]
        assert list(map(int, drawn)) == expected
        assert bulk_rng.getstate() == loop_rng.getstate()

    def test_only_plain_random_takes_the_bulk_draw(self):
        us = np.arange(10, dtype=np.int64)
        plain = draw_latencies(uniform_latency(1, 8), us, us + 1, random.Random(0))
        sub = draw_latencies(
            uniform_latency(1, 8), us, us + 1, type("Sub", (random.Random,), {})(0)
        )
        assert isinstance(plain, np.ndarray)
        assert isinstance(sub, list)
        assert plain.tolist() == sub


    @pytest.mark.parametrize(
        "model, latency_type",
        [
            (constant_latency(2.5), "float"),
            (constant_latency(True), "bool"),
            (uniform_latency(1.5, 8), None),
        ],
        ids=["float-constant", "bool-constant", "float-uniform"],
    )
    @pytest.mark.filterwarnings("ignore::DeprecationWarning")
    def test_non_int_bounds_fail_like_erdos_renyi(self, model, latency_type):
        """Non-int bounds get no bulk draw, so the fast generator raises
        what the dict-built generator raises (each names its own first
        edge): GraphError for a non-int latency, the rng's own error for
        non-int ``randint`` bounds."""
        assert not hasattr(model, "bulk")
        outcomes = []
        for generate in (generators.erdos_renyi, generators.erdos_renyi_fast):
            with pytest.raises(Exception) as caught:
                generate(30, 0.2, model, random.Random(3))
            outcomes.append((type(caught.value), str(caught.value).split(" for edge")[0]))
        assert outcomes[0] == outcomes[1]
        if latency_type is not None:
            assert outcomes[0] == (GraphError, f"latency must be an int, got {latency_type}")


class TestVectorRunsNeverBuildTheDict:
    @pytest.fixture
    def graphs(self):
        """An array-built graph and a dict-built copy of its twin."""
        twins = [
            generators.erdos_renyi_fast(300, 8 / 300, uniform_latency(1, 4), random.Random(5))
            for _ in range(2)
        ]
        return twins[0], twins[1].copy()

    @pytest.mark.parametrize("mode", ["broadcast", "all_to_all"])
    def test_push_pull(self, graphs, mode):
        graph, built = graphs
        result = run_push_pull(graph, mode=mode, seed=3, backend="vector")
        assert "_adj" not in vars(graph)
        assert result == run_push_pull(built, mode=mode, seed=3, backend="vector")
        assert result.complete

    def test_streamed_all_to_all(self, graphs):
        graph, built = graphs
        report = stream.run_streamed_all_to_all(graph, seed=3, max_state_bytes=4096)
        assert "_adj" not in vars(graph)
        again = stream.run_streamed_all_to_all(built, seed=3, max_state_bytes=4096)
        assert report.result == again.result
        assert report.blocks > 1

    def test_recorded_broadcast(self, graphs):
        graph, built = graphs
        recorders = [Recorder.in_memory(), Recorder.in_memory()]
        results = [
            run_push_pull(g, seed=3, backend="vector", recorder=recorder)
            for g, recorder in zip((graph, built), recorders)
        ]
        assert "_adj" not in vars(graph)
        assert results[0] == results[1]
        assert recorders[0].events == recorders[1].events

    @pytest.mark.parametrize("recorded", [False, True], ids=["plain", "recorded"])
    def test_activated_edges(self, graphs, recorded):
        """Reading the metrics maps the active edge ids to node pairs
        through the edge arrays, not the dict."""
        engines = []
        for g in graphs:
            state = VectorState(g.nodes())
            state.add_rumor(0, "r")
            make_rng = per_node_rng_factory(3)
            engine = VectorEngine(
                g,
                lambda node: PushPullProtocol(make_rng(node)),
                state=state,
                recorder=Recorder.in_memory() if recorded else None,
            )
            engine.run(until=broadcast_complete("r"))
            engines.append(engine)
        vector, built = engines
        assert vector.metrics == built.metrics
        assert len(vector.metrics.activated_edges) > 100
        assert "_adj" not in vars(graphs[0])
