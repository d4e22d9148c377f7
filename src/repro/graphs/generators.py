"""Standard topology generators with pluggable latency models.

Each generator returns a connected :class:`~repro.graphs.latency_graph.LatencyGraph`
whose nodes are the integers ``0..n-1``.  All randomness flows through an
explicit ``random.Random`` so every construction is reproducible from a seed.
"""

from __future__ import annotations

import itertools
import math
import random
from typing import Optional

import numpy as np

from repro.errors import GraphError
from repro.graphs.latency_graph import LatencyGraph
from repro.graphs.latency_models import LatencyModel, draw_latencies, resolve_model

__all__ = [
    "clique",
    "star",
    "path",
    "cycle",
    "grid",
    "torus",
    "hypercube",
    "binary_tree",
    "complete_bipartite",
    "erdos_renyi",
    "erdos_renyi_fast",
    "random_regular",
    "random_geometric",
    "watts_strogatz",
    "barabasi_albert",
    "dumbbell",
    "ring_of_cliques",
    "two_tier_datacenter",
]


def _assign(graph: LatencyGraph, u: int, v: int, model: LatencyModel, rng: random.Random) -> None:
    graph.add_edge(u, v, model(u, v, rng))


def clique(
    n: int,
    latency_model: Optional[LatencyModel] = None,
    rng: Optional[random.Random] = None,
) -> LatencyGraph:
    """Complete graph ``K_n``."""
    _check_n(n)
    rng = rng or random.Random(0)
    model = resolve_model(latency_model)
    graph = LatencyGraph(nodes=range(n))
    for u, v in itertools.combinations(range(n), 2):
        _assign(graph, u, v, model, rng)
    return graph


def star(
    n: int,
    latency_model: Optional[LatencyModel] = None,
    rng: Optional[random.Random] = None,
) -> LatencyGraph:
    """Star with center ``0`` and ``n - 1`` leaves.

    The paper's footnote 2 uses the star to show push-only flooding needs
    ``Ω(nD)`` time, which makes it a useful worst case for degree effects.
    """
    _check_n(n)
    rng = rng or random.Random(0)
    model = resolve_model(latency_model)
    graph = LatencyGraph(nodes=range(n))
    for leaf in range(1, n):
        _assign(graph, 0, leaf, model, rng)
    return graph


def path(
    n: int,
    latency_model: Optional[LatencyModel] = None,
    rng: Optional[random.Random] = None,
) -> LatencyGraph:
    """Path ``0 - 1 - ... - (n-1)``."""
    _check_n(n)
    rng = rng or random.Random(0)
    model = resolve_model(latency_model)
    graph = LatencyGraph(nodes=range(n))
    for u in range(n - 1):
        _assign(graph, u, u + 1, model, rng)
    return graph


def cycle(
    n: int,
    latency_model: Optional[LatencyModel] = None,
    rng: Optional[random.Random] = None,
) -> LatencyGraph:
    """Cycle on ``n >= 3`` nodes."""
    if n < 3:
        raise GraphError(f"cycle needs n >= 3, got {n}")
    rng = rng or random.Random(0)
    model = resolve_model(latency_model)
    graph = LatencyGraph(nodes=range(n))
    for u in range(n):
        _assign(graph, u, (u + 1) % n, model, rng)
    return graph


def grid(
    rows: int,
    cols: int,
    latency_model: Optional[LatencyModel] = None,
    rng: Optional[random.Random] = None,
) -> LatencyGraph:
    """``rows x cols`` 4-neighbor grid; node ``(r, c)`` is ``r * cols + c``."""
    if rows < 1 or cols < 1:
        raise GraphError(f"grid needs positive dimensions, got {rows}x{cols}")
    rng = rng or random.Random(0)
    model = resolve_model(latency_model)
    graph = LatencyGraph(nodes=range(rows * cols))
    for r in range(rows):
        for c in range(cols):
            node = r * cols + c
            if c + 1 < cols:
                _assign(graph, node, node + 1, model, rng)
            if r + 1 < rows:
                _assign(graph, node, node + cols, model, rng)
    return graph


def torus(
    rows: int,
    cols: int,
    latency_model: Optional[LatencyModel] = None,
    rng: Optional[random.Random] = None,
) -> LatencyGraph:
    """``rows x cols`` grid with wraparound (each node has degree 4).

    Requires ``rows, cols >= 3`` so wraparound edges are distinct.
    """
    if rows < 3 or cols < 3:
        raise GraphError(f"torus needs dimensions >= 3, got {rows}x{cols}")
    rng = rng or random.Random(0)
    model = resolve_model(latency_model)
    graph = LatencyGraph(nodes=range(rows * cols))
    for r in range(rows):
        for c in range(cols):
            node = r * cols + c
            _assign(graph, node, r * cols + (c + 1) % cols, model, rng)
            _assign(graph, node, ((r + 1) % rows) * cols + c, model, rng)
    return graph


def complete_bipartite(
    left_size: int,
    right_size: int,
    latency_model: Optional[LatencyModel] = None,
    rng: Optional[random.Random] = None,
) -> LatencyGraph:
    """``K_{a,b}``: left nodes ``0..a-1``, right nodes ``a..a+b-1``."""
    _check_n(left_size)
    _check_n(right_size)
    rng = rng or random.Random(0)
    model = resolve_model(latency_model)
    graph = LatencyGraph(nodes=range(left_size + right_size))
    for u in range(left_size):
        for v in range(left_size, left_size + right_size):
            _assign(graph, u, v, model, rng)
    return graph


def hypercube(
    dimension: int,
    latency_model: Optional[LatencyModel] = None,
    rng: Optional[random.Random] = None,
) -> LatencyGraph:
    """The ``dimension``-dimensional hypercube on ``2^dimension`` nodes."""
    if dimension < 1:
        raise GraphError(f"hypercube needs dimension >= 1, got {dimension}")
    rng = rng or random.Random(0)
    model = resolve_model(latency_model)
    n = 1 << dimension
    graph = LatencyGraph(nodes=range(n))
    for u in range(n):
        for bit in range(dimension):
            v = u ^ (1 << bit)
            if u < v:
                _assign(graph, u, v, model, rng)
    return graph


def binary_tree(
    n: int,
    latency_model: Optional[LatencyModel] = None,
    rng: Optional[random.Random] = None,
) -> LatencyGraph:
    """Complete binary tree on ``n`` nodes (heap indexing, root ``0``)."""
    _check_n(n)
    rng = rng or random.Random(0)
    model = resolve_model(latency_model)
    graph = LatencyGraph(nodes=range(n))
    for child in range(1, n):
        _assign(graph, (child - 1) // 2, child, model, rng)
    return graph


def erdos_renyi(
    n: int,
    p: float,
    latency_model: Optional[LatencyModel] = None,
    rng: Optional[random.Random] = None,
    ensure_connected: bool = True,
) -> LatencyGraph:
    """Erdős–Rényi ``G(n, p)``.

    With ``ensure_connected=True`` (default) a random Hamiltonian backbone
    path is added first so the sample is always connected — appropriate for
    dissemination experiments where disconnected graphs are vacuous.
    """
    _check_n(n)
    if not 0.0 <= p <= 1.0:
        raise GraphError(f"p must be in [0, 1], got {p}")
    rng = rng or random.Random(0)
    model = resolve_model(latency_model)
    graph = LatencyGraph(nodes=range(n))
    if ensure_connected and n > 1:
        order = list(range(n))
        rng.shuffle(order)
        for a, b in zip(order, order[1:]):
            _assign(graph, a, b, model, rng)
    for u, v in itertools.combinations(range(n), 2):
        if not graph.has_edge(u, v) and rng.random() < p:
            _assign(graph, u, v, model, rng)
    return graph


def erdos_renyi_fast(
    n: int,
    p: float,
    latency_model: Optional[LatencyModel] = None,
    rng: Optional[random.Random] = None,
    ensure_connected: bool = True,
) -> LatencyGraph:
    """Erdős–Rényi ``G(n, p)`` sampled in ``O(m)`` instead of ``O(n²)``.

    :func:`erdos_renyi` flips a coin per node pair, which is infeasible at
    the ``n = 10^5`` scales the vector-engine benchmarks run at (5·10^9
    pairs).  This sampler draws the edge *count* ``m ~ Binomial(C(n,2), p)``
    and then ``m`` distinct pair indices uniformly from the triangular
    index space, so the work is proportional to the edges that exist.  The
    distribution over graphs is exactly ``G(n, p)``; the *sample* for a
    given seed differs from :func:`erdos_renyi`'s, so the two are not
    drop-in replacements for seeded expectations.

    As in :func:`erdos_renyi`, ``ensure_connected=True`` threads a random
    Hamiltonian backbone path through the nodes first; sampled pairs that
    collide with backbone edges are dropped (matching the slow sampler's
    skip-existing rule).

    The graph is built from edge arrays
    (:meth:`~repro.graphs.latency_graph.LatencyGraph.from_edge_arrays`):
    the backbone edges, then the sampled ones in pair-index order, with
    latencies drawn in that order
    (:func:`~repro.graphs.latency_models.draw_latencies`) — the order, and
    so the graph and the ``rng`` state left behind, of adding them one by
    one.
    """
    _check_n(n)
    if not 0.0 <= p <= 1.0:
        raise GraphError(f"p must be in [0, 1], got {p}")
    rng = rng or random.Random(0)
    model = resolve_model(latency_model)
    npr = np.random.default_rng(rng.getrandbits(64))
    backbone = np.zeros(0, dtype=np.int64)
    if ensure_connected and n > 1:
        order = list(range(n))
        rng.shuffle(order)
        backbone = np.asarray(order, dtype=np.int64)
    us, vs = _sample_pairs(n, p, npr)
    if backbone.shape[0] and us.shape[0]:
        a, b = backbone[:-1], backbone[1:]
        taken = np.isin(us * n + vs, np.minimum(a, b) * n + np.maximum(a, b))
        us, vs = us[~taken], vs[~taken]
    us = np.concatenate([backbone[:-1], us])
    vs = np.concatenate([backbone[1:], vs])
    lats = draw_latencies(model, us, vs, rng)
    return LatencyGraph.from_edge_arrays(n, us, vs, lats)


def _sample_pairs(n: int, p: float, npr) -> tuple[np.ndarray, np.ndarray]:
    """``G(n, p)``'s pairs ``(us, vs)``, ``us < vs``, in pair-index order."""
    total = n * (n - 1) // 2
    m = 0
    if total and p != 0.0:
        m = total if p == 1.0 else int(npr.binomial(total, p))
    if m == 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty
    if m == total:
        idx = np.arange(total, dtype=np.int64)
    else:
        # Rejection-free-ish distinct sampling: draw, dedup, top up.
        idx = _sorted_distinct(npr.integers(0, total, size=m, dtype=np.int64))
        while idx.size < m:
            extra = npr.integers(0, total, size=m - idx.size, dtype=np.int64)
            idx = _sorted_distinct(np.concatenate([idx, extra]))
    # Invert the row-major triangular index exactly: pairs whose smaller
    # endpoint is u occupy [starts[u], starts[u+1]).
    starts = np.zeros(n, dtype=np.int64)
    np.cumsum(np.arange(n - 1, 0, -1, dtype=np.int64), out=starts[1:])
    us = np.searchsorted(starts, idx, side="right") - 1
    vs = idx - starts[us] + us + 1
    return us, vs


def _sorted_distinct(values: np.ndarray) -> np.ndarray:
    """``np.unique(values)`` for an int array, by sort (numpy 2's hashing
    ``unique`` is many times slower on millions of int64s)."""
    values = np.sort(values)
    return values[np.r_[True, values[1:] != values[:-1]]]


def random_regular(
    n: int,
    degree: int,
    latency_model: Optional[LatencyModel] = None,
    rng: Optional[random.Random] = None,
    max_attempts: int = 50,
) -> LatencyGraph:
    """Random connected ``degree``-regular graph.

    The regular pairing is sampled via networkx's pairing-with-repair
    algorithm (the plain configuration model rejects almost every pairing
    for degrees above ~4); we retry until the sample is connected, which
    happens almost surely for ``degree >= 3``.  Such graphs are expanders
    with high probability, giving a constant-conductance family.
    """
    import networkx as nx

    _check_n(n)
    if degree < 1 or degree >= n:
        raise GraphError(f"need 1 <= degree < n, got degree={degree}, n={n}")
    if n * degree % 2 != 0:
        raise GraphError(f"n * degree must be even, got n={n}, degree={degree}")
    rng = rng or random.Random(0)
    model = resolve_model(latency_model)
    for _ in range(max_attempts):
        nxg = nx.random_regular_graph(degree, n, seed=rng.randrange(2**63))
        if not nx.is_connected(nxg):
            continue
        graph = LatencyGraph(nodes=range(n))
        for u, v in sorted((min(a, b), max(a, b)) for a, b in nxg.edges()):
            _assign(graph, u, v, model, rng)
        return graph
    raise GraphError(
        f"failed to sample a connected {degree}-regular graph on {n} nodes "
        f"after {max_attempts} attempts"
    )


def random_geometric(
    n: int,
    radius: float,
    latency_scale: float = 10.0,
    rng: Optional[random.Random] = None,
    ensure_connected: bool = True,
) -> LatencyGraph:
    """Random geometric graph on the unit square with distance-derived latencies.

    Nodes are placed uniformly at random; nodes within ``radius`` are joined
    and the edge latency is ``max(1, round(latency_scale * distance))``, the
    natural "latency grows with physical distance" model for sensor networks.
    If ``ensure_connected``, isolated components are stitched to their nearest
    neighbor (mirroring how deployments add relay links).
    """
    _check_n(n)
    if radius <= 0:
        raise GraphError(f"radius must be positive, got {radius}")
    rng = rng or random.Random(0)
    positions = {v: (rng.random(), rng.random()) for v in range(n)}
    graph = LatencyGraph(nodes=range(n))

    def dist(u: int, v: int) -> float:
        (x1, y1), (x2, y2) = positions[u], positions[v]
        return math.hypot(x1 - x2, y1 - y2)

    def add(u: int, v: int) -> None:
        graph.add_edge(u, v, max(1, round(latency_scale * dist(u, v))))

    for u, v in itertools.combinations(range(n), 2):
        if dist(u, v) <= radius:
            add(u, v)
    if ensure_connected:
        components = _components(graph)
        while len(components) > 1:
            base = components[0]
            best = None
            for other in components[1:]:
                for u in base:
                    for v in other:
                        d = dist(u, v)
                        if best is None or d < best[0]:
                            best = (d, u, v)
            assert best is not None
            add(best[1], best[2])
            components = _components(graph)
    return graph


def watts_strogatz(
    n: int,
    k: int,
    rewire_probability: float,
    latency_model: Optional[LatencyModel] = None,
    rng: Optional[random.Random] = None,
) -> LatencyGraph:
    """Watts--Strogatz small-world graph (connected variant).

    Start from a ring lattice where each node connects to its ``k`` nearest
    neighbors (``k`` even), then rewire each edge's far endpoint with
    probability ``rewire_probability`` — avoiding self loops, duplicates,
    and disconnection (an edge whose removal would disconnect is kept).
    Small-world graphs model the "social network" setting of Doerr et al.
    that the related-work section contrasts with.
    """
    _check_n(n)
    if k < 2 or k % 2 != 0 or k >= n:
        raise GraphError(f"need even 2 <= k < n, got k={k}, n={n}")
    if not 0.0 <= rewire_probability <= 1.0:
        raise GraphError(f"rewire probability must be in [0, 1], got {rewire_probability}")
    rng = rng or random.Random(0)
    model = resolve_model(latency_model)
    graph = LatencyGraph(nodes=range(n))
    for u in range(n):
        for offset in range(1, k // 2 + 1):
            v = (u + offset) % n
            if not graph.has_edge(u, v):
                _assign(graph, u, v, model, rng)
    for u, v, latency in list(graph.edges()):
        if rng.random() < rewire_probability:
            candidates = [
                w for w in range(n) if w != u and not graph.has_edge(u, w)
            ]
            if not candidates:
                continue
            w = rng.choice(candidates)
            graph.remove_edge(u, v)
            if graph.is_connected():
                graph.add_edge(u, w, latency)
            else:
                graph.add_edge(u, v, latency)  # keep: removal disconnects
    if not graph.is_connected():
        raise GraphError("watts_strogatz produced a disconnected graph (bug)")
    return graph


def barabasi_albert(
    n: int,
    attachments: int,
    latency_model: Optional[LatencyModel] = None,
    rng: Optional[random.Random] = None,
) -> LatencyGraph:
    """Barabási--Albert preferential attachment (scale-free, connected).

    Starts from a clique on ``attachments + 1`` nodes; each new node
    attaches to ``attachments`` distinct existing nodes chosen with
    probability proportional to degree.  Scale-free graphs have the
    high-degree hubs that make the Ω(Δ) lower bound territory interesting.
    """
    _check_n(n)
    if attachments < 1 or attachments >= n:
        raise GraphError(f"need 1 <= attachments < n, got {attachments}, n={n}")
    rng = rng or random.Random(0)
    model = resolve_model(latency_model)
    graph = LatencyGraph(nodes=range(n))
    seed_size = attachments + 1
    for u in range(seed_size):
        for v in range(u + 1, seed_size):
            _assign(graph, u, v, model, rng)
    # Endpoint pool: each node appears once per incident edge (degree-
    # proportional sampling by uniform choice from the pool).
    pool: list[int] = []
    for u, v, _ in graph.edges():
        pool.extend((u, v))
    for new in range(seed_size, n):
        targets: set[int] = set()
        while len(targets) < attachments:
            targets.add(rng.choice(pool))
        for target in targets:
            _assign(graph, new, target, model, rng)
            pool.extend((new, target))
    return graph


def dumbbell(
    clique_size: int,
    bridge_length: int = 1,
    bridge_latency: int = 1,
    latency_model: Optional[LatencyModel] = None,
    rng: Optional[random.Random] = None,
) -> LatencyGraph:
    """Two cliques joined by a path of ``bridge_length`` edges with ``bridge_latency``.

    The classic low-conductance topology: conductance is ``Θ(1/clique_size²)``
    through the bridge, making push--pull slow while the spanner route is fast.
    """
    _check_n(clique_size)
    if bridge_length < 1:
        raise GraphError(f"bridge_length must be >= 1, got {bridge_length}")
    rng = rng or random.Random(0)
    model = resolve_model(latency_model)
    left = list(range(clique_size))
    right = list(range(clique_size, 2 * clique_size))
    bridge = list(range(2 * clique_size, 2 * clique_size + bridge_length - 1))
    graph = LatencyGraph(nodes=left + right + bridge)
    for u, v in itertools.combinations(left, 2):
        _assign(graph, u, v, model, rng)
    for u, v in itertools.combinations(right, 2):
        _assign(graph, u, v, model, rng)
    chain = [left[-1]] + bridge + [right[0]]
    for a, b in zip(chain, chain[1:]):
        graph.add_edge(a, b, bridge_latency)
    return graph


def ring_of_cliques(
    num_cliques: int,
    clique_size: int,
    intra_latency: int = 1,
    inter_latency: int = 1,
    links_per_pair: int = 1,
    rng: Optional[random.Random] = None,
) -> LatencyGraph:
    """``num_cliques`` cliques arranged in a ring, adjacent cliques linked.

    A simplified cousin of the paper's Theorem 8 ring construction: intra-
    clique edges have latency ``intra_latency`` and each adjacent pair of
    cliques is joined by ``links_per_pair`` random edges of latency
    ``inter_latency``.
    """
    if num_cliques < 3:
        raise GraphError(f"need at least 3 cliques, got {num_cliques}")
    _check_n(clique_size)
    if links_per_pair < 1 or links_per_pair > clique_size * clique_size:
        raise GraphError(f"links_per_pair out of range: {links_per_pair}")
    rng = rng or random.Random(0)
    n = num_cliques * clique_size
    graph = LatencyGraph(nodes=range(n))
    members = [
        list(range(i * clique_size, (i + 1) * clique_size)) for i in range(num_cliques)
    ]
    for group in members:
        for u, v in itertools.combinations(group, 2):
            graph.add_edge(u, v, intra_latency)
    for i in range(num_cliques):
        a, b = members[i], members[(i + 1) % num_cliques]
        chosen: set[tuple[int, int]] = set()
        while len(chosen) < links_per_pair:
            chosen.add((rng.choice(a), rng.choice(b)))
        for u, v in chosen:
            graph.add_edge(u, v, inter_latency)
    return graph


def two_tier_datacenter(
    num_racks: int,
    rack_size: int,
    intra_rack_latency: int = 1,
    inter_rack_latency: int = 10,
    rng: Optional[random.Random] = None,
) -> LatencyGraph:
    """A two-tier "datacenter": full cliques inside racks, complete fast/slow core.

    Every pair of servers in one rack is connected with latency
    ``intra_rack_latency``; every pair of rack *leaders* (node 0 of the rack)
    is connected with latency ``inter_rack_latency``.  This is the classic
    replication topology used in the examples.
    """
    if num_racks < 2:
        raise GraphError(f"need at least 2 racks, got {num_racks}")
    _check_n(rack_size)
    graph = LatencyGraph(nodes=range(num_racks * rack_size))
    leaders = []
    for r in range(num_racks):
        members = list(range(r * rack_size, (r + 1) * rack_size))
        leaders.append(members[0])
        for u, v in itertools.combinations(members, 2):
            graph.add_edge(u, v, intra_rack_latency)
    for u, v in itertools.combinations(leaders, 2):
        graph.add_edge(u, v, inter_rack_latency)
    return graph


def _components(graph: LatencyGraph) -> list[list[int]]:
    remaining = set(graph.nodes())
    components = []
    while remaining:
        start = next(iter(remaining))
        seen = set(graph.hop_distances(start))
        components.append(sorted(seen))
        remaining -= seen
    return components


def _check_n(n: int) -> None:
    if n < 1:
        raise GraphError(f"need n >= 1, got {n}")
