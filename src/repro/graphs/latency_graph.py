"""The core network substrate: an undirected graph with integer edge latencies.

The paper models the network as a connected, undirected graph ``G = (V, E)``
where each edge carries a positive integer *latency*: the number of
synchronous rounds a bidirectional exchange over that edge takes.  This module
provides :class:`LatencyGraph`, the data structure every other part of the
library builds on.

Design notes
------------
* Node identifiers are arbitrary hashable objects, but generators in this
  library use consecutive integers.
* The graph is simple (no self loops, no parallel edges).  The strongly
  edge-induced *multigraph* used in the push--pull analysis (Eq. 3 of the
  paper) lives in :mod:`repro.conductance.edge_induced`, not here.
* All shortest-path quantities are *weighted* by latency unless the name says
  ``hop``.
* A graph has one of two primary representations.  One built through
  :meth:`LatencyGraph.add_edge` is a dict of dicts.  One built by
  :meth:`LatencyGraph.from_edge_arrays` (as
  :func:`~repro.graphs.generators.erdos_renyi_fast` does) holds
  insertion-order CSR rows in numpy arrays and builds the dict only when a
  dict consumer first asks for it; degree, neighbor, latency-set,
  edge-array and fingerprint queries answer from the rows.  Both answer
  every query identically.
"""

from __future__ import annotations

import functools
import hashlib
import heapq
import itertools
import math
from collections.abc import Hashable, Iterable, Iterator
from typing import Optional

import numpy as np

from repro.errors import DisconnectedGraphError, GraphError
from repro.obs.profile import span

Node = Hashable
Edge = tuple[Node, Node]

__all__ = ["LatencyGraph", "Node", "Edge", "edge_key"]


def edge_key(u: Node, v: Node) -> Edge:
    """Return a canonical (sorted) representation of the undirected edge ``{u, v}``.

    Sorting is done on ``repr`` when the nodes are not mutually orderable, so
    mixed node types still get a stable canonical form.
    """
    try:
        return (u, v) if u <= v else (v, u)  # type: ignore[operator]
    except TypeError:
        return (u, v) if repr(u) <= repr(v) else (v, u)


class LatencyGraph:
    """An undirected graph whose edges carry positive integer latencies.

    Parameters
    ----------
    nodes:
        Optional iterable of initial nodes.
    edges:
        Optional iterable of ``(u, v, latency)`` triples.

    Examples
    --------
    >>> g = LatencyGraph()
    >>> g.add_edge("a", "b", 3)
    >>> g.latency("b", "a")
    3
    >>> g.weighted_distance("a", "b")
    3
    """

    #: Insertion-order CSR rows ``(version, off, nbr, lat)`` of an
    #: array-built graph: node ``i``'s neighbors are ``nbr[off[i]:off[i+1]]``
    #: in the order :meth:`add_edge` would have inserted them, with their
    #: latencies in ``lat``.  ``None`` for a dict-built graph.  A mutation
    #: retires the rows (their version no longer matches).
    _rows: Optional[tuple[int, np.ndarray, np.ndarray, np.ndarray]] = None

    def __init__(
        self,
        nodes: Optional[Iterable[Node]] = None,
        edges: Optional[Iterable[tuple[Node, Node, int]]] = None,
    ) -> None:
        self._adj: dict[Node, dict[Node, int]] = {}
        # Interned dense id space: node <-> contiguous int, assigned in
        # insertion order and never reused.  The simulation hot path keys
        # everything (edge canonicalization, adjacency arrays, shortest
        # paths) on these indices instead of hashing arbitrary node objects.
        self._index: dict[Node, int] = {}
        self._node_list: list[Node] = []
        # Bumped on every mutation; lazy index-array caches check it.
        self._version = 0
        self._adjacency_cache: Optional[tuple[int, list[list[int]], list[list[int]]]] = None
        self._edge_cache: Optional[tuple[int, np.ndarray, np.ndarray, np.ndarray]] = None
        self._fingerprint_cache: Optional[tuple[int, str]] = None
        if nodes is not None:
            for node in nodes:
                self.add_node(node)
        if edges is not None:
            for u, v, latency in edges:
                self.add_edge(u, v, latency)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_edge_arrays(cls, n: int, us, vs, lats) -> "LatencyGraph":
        """The graph on nodes ``range(n)`` with edges ``(us[k], vs[k])`` of
        latency ``lats[k]``, stored as arrays.

        Equal to adding the nodes ``0..n-1`` and then each edge with
        :meth:`add_edge` in order — same neighbor order, same
        :meth:`fingerprint` — but the graph keeps insertion-order CSR rows
        instead of a dict of dicts, and builds the dict only for the
        queries that need one (see the module notes).

        Raises
        ------
        GraphError
            On the first edge (in order) that is a self loop, has a
            latency that is not a positive int (with :meth:`add_edge`'s
            messages), has an endpoint outside ``range(n)``, or repeats an
            earlier pair.
        """
        if n < 0:
            raise GraphError(f"need n >= 0, got {n}")
        us, vs = _id_array(us, "us"), _id_array(vs, "vs")
        if isinstance(lats, np.ndarray) and lats.dtype.kind in "iu":
            items = None
            values = lats.astype(np.int64, copy=False)
            wrong_type = np.zeros(values.shape[0], dtype=bool)
        else:
            items = list(lats)
            wrong_type = np.fromiter(
                (not isinstance(x, int) or isinstance(x, bool) for x in items),
                dtype=bool,
                count=len(items),
            )
            values = np.fromiter(
                (1 if bad else x for x, bad in zip(items, wrong_type.tolist())),
                dtype=np.int64,
                count=len(items),
            )
        if not us.shape[0] == vs.shape[0] == values.shape[0]:
            raise GraphError(
                f"edge arrays differ in length: {us.shape[0]}, {vs.shape[0]}, "
                f"{values.shape[0]}"
            )
        outside = (us < 0) | (us >= n) | (vs < 0) | (vs >= n)
        keys = np.minimum(us, vs) * n + np.maximum(us, vs)
        repeated = np.zeros(keys.shape[0], dtype=bool)
        sorted_keys = np.sort(keys)
        if (sorted_keys[1:] == sorted_keys[:-1]).any():
            key_order = np.argsort(keys, kind="stable")
            sorted_keys = keys[key_order]
            repeated[key_order[1:][sorted_keys[1:] == sorted_keys[:-1]]] = True
        bad = outside | (us == vs) | wrong_type | (values < 1) | repeated
        if bad.any():
            k = int(np.argmax(bad))
            u, v = int(us[k]), int(vs[k])
            _check_edge(u, v, items[k] if items is not None else int(values[k]))
            if outside[k]:
                raise GraphError(f"edge ({u!r}, {v!r}) has an endpoint outside range({n})")
            raise GraphError(f"duplicate edge ({u!r}, {v!r})")

        graph = cls()
        del graph._adj  # built from the rows on first use (see _adj)
        nodes = list(range(n))
        graph._node_list = nodes
        graph._index = dict(zip(nodes, nodes))
        m = us.shape[0]
        # Each edge k yields the directed slots 2k (u -> v) and 2k+1
        # (v -> u); sorting slots by (source, slot) orders every row by
        # edge insertion time, which is add_edge's dict order.  The keys
        # are unique, so an unstable sort gives the stable order.
        src = np.empty(2 * m, dtype=np.int64)
        dst = np.empty(2 * m, dtype=np.int64)
        src[0::2], src[1::2] = us, vs
        dst[0::2], dst[1::2] = vs, us
        order = np.argsort(src * (2 * m) + np.arange(2 * m, dtype=np.int64))
        off = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=n), out=off[1:])
        nbr = dst[order]
        lat = values[order // 2]
        graph._rows = (graph._version, off, nbr, lat)
        return graph

    @functools.cached_property
    def _adj(self) -> dict[Node, dict[Node, int]]:
        """The dict adjacency of an array-built graph, built on first use.

        A dict-built graph sets this attribute in ``__init__``.  An
        array-built one reaches here only while its rows are live: every
        mutation reads the dict before it bumps the version.
        """
        # While the rows are live, node labels are their dense ids.
        return {
            node: dict(zip(neighbors, latencies))
            for node, neighbors, latencies in zip(self._node_list, *self.adjacency_arrays())
        }

    def _live_rows(self) -> Optional[tuple[int, np.ndarray, np.ndarray, np.ndarray]]:
        """The CSR rows if this graph is array-built and unmutated, else None."""
        rows = self._rows
        if rows is not None and rows[0] != self._version:
            self._rows = rows = None
        return rows

    def add_node(self, node: Node) -> None:
        """Add ``node`` to the graph (a no-op if already present)."""
        if node not in self._index:
            self._adj[node] = {}
            self._index[node] = len(self._node_list)
            self._node_list.append(node)
            self._version += 1

    def add_edge(self, u: Node, v: Node, latency: int) -> None:
        """Add the undirected edge ``{u, v}`` with the given latency.

        Latencies must be positive integers (the paper scales and rounds any
        real-valued latencies, Section 1).  Re-adding an existing edge
        overwrites its latency.

        Raises
        ------
        GraphError
            If ``u == v`` (self loop) or the latency is not a positive int.
        """
        _check_edge(u, v, latency)
        self.add_node(u)
        self.add_node(v)
        self._adj[u][v] = latency
        self._adj[v][u] = latency
        self._version += 1

    def remove_edge(self, u: Node, v: Node) -> None:
        """Remove the edge ``{u, v}``; raises :class:`GraphError` if absent."""
        if not self.has_edge(u, v):
            raise GraphError(f"no edge ({u!r}, {v!r}) to remove")
        del self._adj[u][v]
        del self._adj[v][u]
        self._version += 1

    # ------------------------------------------------------------------
    # Dense id space
    # ------------------------------------------------------------------
    def index_of(self, node: Node) -> int:
        """The dense integer id of ``node`` (contiguous, insertion order)."""
        try:
            return self._index[node]
        except KeyError:
            raise GraphError(f"node {node!r} is not in the graph") from None

    def node_at(self, index: int) -> Node:
        """The node whose dense id is ``index``."""
        try:
            return self._node_list[index]
        except IndexError:
            raise GraphError(f"no node with dense id {index}") from None

    def canonical_edge(self, u: Node, v: Node) -> Edge:
        """The undirected edge ``{u, v}`` with endpoints in dense-id order.

        Unlike :func:`edge_key` this never falls back to ``repr`` ordering,
        so it is both O(1) and stable for nodes of any (mixed) type.
        """
        return (u, v) if self._index[u] <= self._index[v] else (v, u)

    def adjacency_arrays(self) -> tuple[list[list[int]], list[list[int]]]:
        """Index-array adjacency: ``(neighbors, latencies)`` per dense id.

        ``neighbors[i]`` lists the dense ids adjacent to node ``i`` and
        ``latencies[i]`` the matching edge latencies, both in insertion
        order.  The arrays are cached and rebuilt only after a mutation —
        callers must not modify them.
        """
        cache = self._adjacency_cache
        if cache is not None and cache[0] == self._version:
            return cache[1], cache[2]
        rows = self._live_rows()
        if rows is not None:
            _, off, nbr, lat = rows
            bounds, flat_nbr, flat_lat = off.tolist(), nbr.tolist(), lat.tolist()
            spans = list(zip(bounds, bounds[1:]))
            neighbors = [flat_nbr[a:b] for a, b in spans]
            latencies = [flat_lat[a:b] for a, b in spans]
        else:
            index = self._index
            neighbors = []
            latencies = []
            for node in self._node_list:
                row = self._adj[node]
                neighbors.append([index[other] for other in row])
                latencies.append(list(row.values()))
        self._adjacency_cache = (self._version, neighbors, latencies)
        return neighbors, latencies

    def csr_rows(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Insertion-order CSR adjacency ``(off, nbr, lat)`` over dense ids.

        Node ``i``'s neighbors are ``nbr[off[i]:off[i+1]]`` with latencies
        ``lat[off[i]:off[i+1]]``, in :meth:`adjacency_arrays` order.  An
        array-built graph returns its stored rows (shared: callers must
        not modify them); a dict-built one builds them on each call.
        """
        rows = self._live_rows()
        if rows is not None:
            return rows[1], rows[2], rows[3]
        neighbors, latencies = self.adjacency_arrays()
        n = len(neighbors)
        deg = np.fromiter(map(len, neighbors), dtype=np.int64, count=n)
        off = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(deg, out=off[1:])
        total = int(off[-1])
        nbr = np.fromiter(itertools.chain.from_iterable(neighbors), dtype=np.int64, count=total)
        lat = np.fromiter(itertools.chain.from_iterable(latencies), dtype=np.int64, count=total)
        return off, nbr, lat

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Dense-id edge list as parallel numpy arrays ``(us, vs, latencies)``.

        Each undirected edge appears once with ``us[i] < vs[i]`` (dense-id
        order), rows ordered by tail insertion order — a deterministic,
        content-defined layout.  Cached per graph version; callers must not
        modify the arrays.  This is the base layout the vectorized
        conductance sweep (and anything else that wants whole-graph edge
        arithmetic) builds on.
        """
        cache = self._edge_cache
        if cache is not None and cache[0] == self._version:
            return cache[1], cache[2], cache[3]
        rows = self._live_rows()
        if rows is not None:
            _, off, nbr, lat = rows
            src = np.repeat(np.arange(off.shape[0] - 1, dtype=np.int64), np.diff(off))
            tail = src < nbr
            arrays = (src[tail], nbr[tail], lat[tail])
            self._edge_cache = (self._version, *arrays)
            return arrays
        index = self._index
        us: list[int] = []
        vs: list[int] = []
        lats: list[int] = []
        for u, nbrs in self._adj.items():
            ui = index[u]
            for v, latency in nbrs.items():
                vi = index[v]
                if ui < vi:
                    us.append(ui)
                    vs.append(vi)
                    lats.append(latency)
        arrays = (
            np.asarray(us, dtype=np.int64),
            np.asarray(vs, dtype=np.int64),
            np.asarray(lats, dtype=np.int64),
        )
        self._edge_cache = (self._version, *arrays)
        return arrays

    def fingerprint(self) -> str:
        """A stable content hash of the graph (nodes, dense ids, edges).

        Two graphs share a fingerprint iff they have the same node
        sequence (by ``repr``, in insertion order — so dense ids match
        too) and the same dense-id edge/latency arrays.  Artifact caches
        key derived products (spanners, distance maps, conductance
        profiles) on this digest, which makes the cache content-addressed
        rather than trusting callers to label graphs correctly.  Cached
        per graph version.
        """
        cache = self._fingerprint_cache
        if cache is not None and cache[0] == self._version:
            return cache[1]
        digest = hashlib.blake2b(digest_size=16)
        digest.update(f"n={self.num_nodes}".encode())
        for node in self._node_list:
            digest.update(repr(node).encode())
            digest.update(b"\x00")
        us, vs, lats = self.edge_arrays()
        digest.update(us.tobytes())
        digest.update(vs.tobytes())
        digest.update(lats.tobytes())
        value = digest.hexdigest()
        self._fingerprint_cache = (self._version, value)
        return value

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Number of nodes ``n = |V|``."""
        return len(self._node_list)

    @property
    def num_edges(self) -> int:
        """Number of undirected edges ``|E|``."""
        rows = self._live_rows()
        if rows is not None:
            return rows[2].shape[0] // 2
        return sum(len(nbrs) for nbrs in self._adj.values()) // 2

    def nodes(self) -> list[Node]:
        """All nodes, in insertion order."""
        return list(self._node_list)

    def edges(self) -> Iterator[tuple[Node, Node, int]]:
        """Iterate over ``(u, v, latency)`` with each undirected edge once."""
        seen: set[Edge] = set()
        for u, nbrs in self._adj.items():
            for v, latency in nbrs.items():
                key = edge_key(u, v)
                if key not in seen:
                    seen.add(key)
                    yield u, v, latency

    def has_node(self, node: Node) -> bool:
        """Whether ``node`` is in the graph."""
        return node in self._index

    def has_edge(self, u: Node, v: Node) -> bool:
        """Whether the undirected edge ``{u, v}`` exists."""
        return u in self._adj and v in self._adj[u]

    def adjacency_view(self) -> dict[Node, dict[Node, int]]:
        """The live ``node -> {neighbor: latency}`` mapping.

        Shared, not copied — strictly read-only, for hot-path consumers
        (the engine's per-round neighbor validation) that cannot afford a
        dict copy per call.
        """
        return self._adj

    def neighbors(self, node: Node) -> list[Node]:
        """Neighbors of ``node`` in insertion order."""
        self._require_node(node)
        rows = self._live_rows()
        if rows is not None:
            _, off, nbr, _ = rows
            i = self._index[node]
            return nbr[off[i] : off[i + 1]].tolist()
        return list(self._adj[node])

    def neighbor_latencies(self, node: Node) -> dict[Node, int]:
        """Mapping ``neighbor -> latency`` for edges adjacent to ``node``."""
        self._require_node(node)
        return dict(self._adj[node])

    def latency(self, u: Node, v: Node) -> int:
        """Latency of edge ``{u, v}``; raises :class:`GraphError` if absent."""
        if not self.has_edge(u, v):
            raise GraphError(f"no edge ({u!r}, {v!r})")
        return self._adj[u][v]

    def degree(self, node: Node) -> int:
        """Degree of ``node``."""
        self._require_node(node)
        rows = self._live_rows()
        if rows is not None:
            i = self._index[node]
            return int(rows[1][i + 1] - rows[1][i])
        return len(self._adj[node])

    def max_degree(self) -> int:
        """Maximum degree ``Δ`` over all nodes (0 for the empty graph)."""
        if not self._node_list:
            return 0
        return int(np.diff(self.csr_rows()[0]).max())

    def min_degree(self) -> int:
        """Minimum degree over all nodes (0 for the empty graph)."""
        if not self._node_list:
            return 0
        return int(np.diff(self.csr_rows()[0]).min())

    def distinct_latencies(self) -> list[int]:
        """Sorted list of distinct edge latencies present in the graph."""
        rows = self._live_rows()
        if rows is not None:
            return np.unique(rows[3]).tolist()
        return sorted({lat for nbrs in self._adj.values() for lat in nbrs.values()})

    def max_latency(self) -> int:
        """The maximum edge latency ``ℓ_max`` (0 for an edgeless graph)."""
        latencies = self.distinct_latencies()
        return latencies[-1] if latencies else 0

    # ------------------------------------------------------------------
    # Volumes and cuts (Definitions 1--2 bookkeeping)
    # ------------------------------------------------------------------
    def volume(self, subset: Iterable[Node]) -> int:
        """``Vol(U)``: the number of edge endpoints in ``U`` (sum of degrees).

        This matches the paper's definition ``Vol(U) = |{(u, v) : u in U, v in V}|``.
        """
        return sum(self.degree(u) for u in set(subset))

    def cut_edges(
        self, subset: Iterable[Node], max_latency: Optional[int] = None
    ) -> list[tuple[Node, Node, int]]:
        """Edges crossing the cut ``(U, V \\ U)``, optionally filtered by latency.

        Parameters
        ----------
        subset:
            The node set ``U``.
        max_latency:
            If given, only edges with latency ``<= max_latency`` are returned
            (the paper's ``E_ℓ(U, V \\ U)``).
        """
        inside = set(subset)
        crossing = []
        for u in inside:
            for v, latency in self._adj[u].items():
                if v not in inside and (max_latency is None or latency <= max_latency):
                    crossing.append((u, v, latency))
        return crossing

    # ------------------------------------------------------------------
    # Latency-filtered subgraphs
    # ------------------------------------------------------------------
    def subgraph_leq(self, max_latency: int) -> "LatencyGraph":
        """The subgraph ``G_ℓ`` keeping all nodes and only edges of latency ``<= ℓ``."""
        sub = LatencyGraph(nodes=self.nodes())
        for u, v, latency in self.edges():
            if latency <= max_latency:
                sub.add_edge(u, v, latency)
        return sub

    # ------------------------------------------------------------------
    # Distances
    # ------------------------------------------------------------------
    def weighted_distances(self, source: Node) -> dict[Node, int]:
        """Single-source shortest-path distances weighted by latency (Dijkstra).

        Unreachable nodes are absent from the returned mapping.
        """
        self._require_node(source)
        with span("graph.dijkstra"):
            neighbors, latencies = self.adjacency_arrays()
            dist = [math.inf] * len(self._node_list)
            start = self._index[source]
            dist[start] = 0
            # Dense indices are their own tie-breakers: the heap never has to
            # compare (possibly unorderable) node objects.
            heap: list[tuple[int, int]] = [(0, start)]
            push, pop = heapq.heappush, heapq.heappop
            while heap:
                d, u = pop(heap)
                if d > dist[u]:
                    continue
                row, lat = neighbors[u], latencies[u]
                for k in range(len(row)):
                    v = row[k]
                    nd = d + lat[k]
                    if nd < dist[v]:
                        dist[v] = nd
                        push(heap, (nd, v))
            node_list = self._node_list
            return {
                node_list[i]: d for i, d in enumerate(dist) if d is not math.inf
            }

    def weighted_distance(self, u: Node, v: Node) -> int:
        """Shortest latency-weighted distance between ``u`` and ``v``.

        Raises
        ------
        DisconnectedGraphError
            If ``v`` is unreachable from ``u``.
        """
        dist = self.weighted_distances(u)
        if v not in dist:
            raise DisconnectedGraphError(f"{v!r} is unreachable from {u!r}")
        return dist[v]

    def weighted_eccentricity(self, source: Node) -> int:
        """Max weighted distance from ``source`` to any node (graph must be connected)."""
        dist = self.weighted_distances(source)
        if len(dist) != self.num_nodes:
            raise DisconnectedGraphError("graph is not connected")
        return max(dist.values())

    def weighted_diameter(self, sample_sources: Optional[int] = None, rng=None) -> int:
        """The latency-weighted diameter ``D``.

        Parameters
        ----------
        sample_sources:
            If ``None``, compute exactly with one Dijkstra per node.  If an
            int ``s``, run Dijkstra from ``s`` random sources and return the
            max eccentricity seen — a lower bound on ``D`` that is within 2x
            of the truth (and exact on vertex-transitive graphs), cheap
            enough for benchmark sweeps.
        rng:
            ``random.Random`` used to pick sample sources.

        Raises
        ------
        DisconnectedGraphError
            If the graph is not connected.
        """
        nodes = self.nodes()
        if not nodes:
            return 0
        if sample_sources is None or sample_sources >= len(nodes):
            sources = nodes
        else:
            if rng is None:
                raise GraphError("sampled diameter requires an rng")
            sources = rng.sample(nodes, sample_sources)
        with span("graph.weighted_diameter"):
            return max(self.weighted_eccentricity(s) for s in sources)

    def hop_distances(self, source: Node) -> dict[Node, int]:
        """Single-source hop (unweighted) distances via BFS."""
        self._require_node(source)
        neighbors, _ = self.adjacency_arrays()
        dist = [-1] * len(self._node_list)
        start = self._index[source]
        dist[start] = 0
        frontier = [start]
        depth = 0
        while frontier:
            depth += 1
            nxt = []
            for u in frontier:
                for v in neighbors[u]:
                    if dist[v] < 0:
                        dist[v] = depth
                        nxt.append(v)
            frontier = nxt
        node_list = self._node_list
        return {node_list[i]: d for i, d in enumerate(dist) if d >= 0}

    def hop_diameter(self) -> int:
        """The hop (unweighted) diameter; exact BFS from every node."""
        nodes = self.nodes()
        if not nodes:
            return 0
        diameter = 0
        for source in nodes:
            dist = self.hop_distances(source)
            if len(dist) != self.num_nodes:
                raise DisconnectedGraphError("graph is not connected")
            diameter = max(diameter, max(dist.values()))
        return diameter

    def is_connected(self) -> bool:
        """Whether the graph is connected (the empty graph counts as connected)."""
        nodes = self.nodes()
        if not nodes:
            return True
        return len(self.hop_distances(nodes[0])) == self.num_nodes

    # ------------------------------------------------------------------
    # Conversions and utilities
    # ------------------------------------------------------------------
    def copy(self) -> "LatencyGraph":
        """A deep copy of the graph."""
        clone = LatencyGraph(nodes=self.nodes())
        for u, v, latency in self.edges():
            clone.add_edge(u, v, latency)
        return clone

    def relabeled(self, mapping: dict[Node, Node]) -> "LatencyGraph":
        """Return a copy with node ids replaced via ``mapping`` (must be injective)."""
        if len(set(mapping.values())) != len(mapping):
            raise GraphError("relabel mapping is not injective")
        out = LatencyGraph(nodes=(mapping.get(v, v) for v in self.nodes()))
        for u, v, latency in self.edges():
            out.add_edge(mapping.get(u, u), mapping.get(v, v), latency)
        return out

    def to_networkx(self):
        """Convert to a ``networkx.Graph`` with a ``latency`` edge attribute."""
        import networkx as nx

        nxg = nx.Graph()
        nxg.add_nodes_from(self.nodes())
        nxg.add_weighted_edges_from(self.edges(), weight="latency")
        return nxg

    @classmethod
    def from_networkx(cls, nxg, latency_attr: str = "latency", default: int = 1) -> "LatencyGraph":
        """Build from a ``networkx.Graph``; missing latency attributes get ``default``."""
        graph = cls(nodes=nxg.nodes())
        for u, v, data in nxg.edges(data=True):
            graph.add_edge(u, v, int(data.get(latency_attr, default)))
        return graph

    def __getstate__(self) -> dict:
        # Drop lazy caches so pickled graphs (process-pool trial fan-out)
        # ship only the structure; workers rebuild caches on first use.
        # An array-built graph ships its rows and drops the lazy dict.
        state = self.__dict__.copy()
        if self._live_rows() is not None:
            state.pop("_adj", None)
        else:
            state.pop("_rows", None)
        state["_adjacency_cache"] = None
        state["_edge_cache"] = None
        state["_fingerprint_cache"] = None
        return state

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LatencyGraph):
            return NotImplemented
        return self._adj == other._adj

    def __repr__(self) -> str:
        return f"LatencyGraph(n={self.num_nodes}, m={self.num_edges})"

    def _require_node(self, node: Node) -> None:
        if node not in self._index:
            raise GraphError(f"node {node!r} is not in the graph")


def _check_edge(u: Node, v: Node, latency: object) -> None:
    """Raise :class:`GraphError` if ``{u, v}`` with ``latency`` is no valid edge."""
    if u == v:
        raise GraphError(f"self loops are not allowed (node {u!r})")
    if not isinstance(latency, int) or isinstance(latency, bool):
        raise GraphError(
            f"latency must be an int, got {type(latency).__name__} for edge ({u!r}, {v!r})"
        )
    if latency < 1:
        raise GraphError(f"latency must be >= 1, got {latency} for edge ({u!r}, {v!r})")


def _id_array(values, name: str) -> np.ndarray:
    """``values`` as an int64 array of node ids; :class:`GraphError` if not ints."""
    array = np.asarray(values)
    if array.size and array.dtype.kind not in "iu":
        raise GraphError(f"{name} must hold int node ids, got dtype {array.dtype}")
    return array.astype(np.int64, copy=False)
