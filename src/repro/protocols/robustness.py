"""Fault-tolerance runners (the paper's conclusion, made executable).

"Finally, we do not take into account the possibility of node or link
failures.  Again, push--pull is relatively robust to failures, while our
other approaches are not."  This module lets that claim be measured:

* :func:`run_push_pull_under_failures` — classical push--pull with a
  failure model; reports when (or whether) every *surviving* node learned
  the rumor.
* :func:`run_spanner_pipeline_under_failures` — the known-latency route:
  a Baswana--Sen spanner computed on the pre-failure graph, then RR
  Broadcast over it with its Lemma 15 budget.  The spanner is sparse, so
  crashed nodes sever its routing trees: coverage among survivors drops,
  while push--pull routes around failures through any of the dense graph's
  remaining edges.

Both runners measure **coverage**: the fraction of surviving nodes that
hold the source's rumor when the protocol ends (or the budget expires) —
restricted to survivors still *reachable* from the source in the
survivor-induced graph, because a survivor cut off by the crashes is
unreachable for every protocol and says nothing about robustness.
"""

from __future__ import annotations

import dataclasses
import math
import random
from typing import Optional

from repro.graphs.latency_graph import LatencyGraph, Node
from repro.sim.engine import Engine
from repro.sim.failures import CrashSchedule, FailureModel
from repro.sim.state import VectorState
from repro.protocols.push_pull import PushPullProtocol
from repro.protocols.rr_broadcast import rr_broadcast_factory
from repro.protocols.spanner import baswana_sen_spanner

__all__ = [
    "RobustnessResult",
    "run_push_pull_under_failures",
    "run_spanner_pipeline_under_failures",
    "spanner_cut_crashes",
]


@dataclasses.dataclass(frozen=True)
class RobustnessResult:
    """Outcome of one dissemination run under failures.

    Attributes
    ----------
    rounds:
        Rounds executed (until full survivor coverage, or the budget).
    coverage:
        Fraction of *reachable* surviving nodes holding the rumor at the
        end (reachable = connected to the source through non-crashed
        nodes).
    complete:
        Whether every reachable survivor was covered.
    survivors:
        Number of non-crashed nodes at the final round.
    reachable:
        Number of survivors reachable from the source among survivors.
    lost_exchanges:
        Exchanges voided by the failure model.
    protocol:
        Label of the protocol measured.
    """

    rounds: int
    coverage: float
    complete: bool
    survivors: int
    reachable: int
    lost_exchanges: int
    protocol: str


def _survivors(
    graph: LatencyGraph, failures: Optional[FailureModel], round_number: int
) -> list[Node]:
    if failures is None:
        return graph.nodes()
    return [
        node
        for node in graph.nodes()
        if not failures.node_crashed(node, round_number)
    ]


def _reachable_survivors(
    graph: LatencyGraph, survivors: list[Node], source: Node
) -> list[Node]:
    alive = set(survivors)
    if source not in alive:
        return []
    seen = {source}
    frontier = [source]
    while frontier:
        nxt = []
        for node in frontier:
            for neighbor in graph.neighbors(node):
                if neighbor in alive and neighbor not in seen:
                    seen.add(neighbor)
                    nxt.append(neighbor)
        frontier = nxt
    return sorted(seen, key=repr)


def _coverage(state: VectorState, rumor, targets: list[Node]) -> float:
    if not targets:
        return 1.0
    return sum(1 for node in targets if state.knows(node, rumor)) / len(targets)


def run_push_pull_under_failures(
    graph: LatencyGraph,
    failures: Optional[FailureModel],
    source: Optional[Node] = None,
    seed: int = 0,
    max_rounds: int = 100_000,
) -> RobustnessResult:
    """Push--pull broadcast under a failure model.

    Runs until every surviving node knows the source's rumor or
    ``max_rounds`` expire (a crashed source trivially completes nothing;
    pick a source the model protects for meaningful sweeps).
    """
    if source is None:
        source = graph.nodes()[0]
    rumor = ("rumor", source)
    state = VectorState(graph.nodes())
    state.add_rumor(source, rumor)
    engine = Engine(
        graph,
        PushPullProtocol.cohort(seed),
        state=state,
        failure_model=failures,
    )

    def covered() -> bool:
        survivors = _survivors(graph, failures, engine.round)
        return all(
            state.knows(node, rumor)
            for node in _reachable_survivors(graph, survivors, source)
        )

    while not covered() and engine.round < max_rounds:
        engine.step()
    survivors = _survivors(graph, failures, engine.round)
    reachable = _reachable_survivors(graph, survivors, source)
    coverage = _coverage(state, rumor, reachable)
    return RobustnessResult(
        rounds=engine.round,
        coverage=coverage,
        complete=coverage == 1.0,
        survivors=len(survivors),
        reachable=len(reachable),
        lost_exchanges=engine.metrics.lost_exchanges,
        protocol="push-pull",
    )


def _pipeline_spanner(graph: LatencyGraph, seed: int):
    """The spanner :func:`run_spanner_pipeline_under_failures` will build."""
    k_spanner = max(2, math.ceil(math.log2(max(2, graph.num_nodes))))
    return baswana_sen_spanner(graph, k_spanner, random.Random(seed))


def spanner_cut_crashes(
    graph: LatencyGraph,
    seed: int,
    source: Node,
    crash_round: int = 0,
) -> tuple[CrashSchedule, Node, int]:
    """An adversarial crash set that severs one node from the spanner.

    Random crashes rarely hurt the spanner (it has Ω(n log n) edges and RR
    exchanges are bidirectional).  The sharp statement behind "our other
    approaches are not robust" is *worst-case*: because the spanner is
    sparse, some node's entire spanner neighborhood is a small set, and
    crashing exactly those nodes makes the victim unreachable over the
    spanner while it remains richly connected in ``G`` — push--pull still
    reaches it, the pipeline cannot.

    Builds the same spanner the pipeline (with the same ``seed``) will
    build, picks the victim with the smallest spanner neighborhood
    (excluding the source and nodes spanner-adjacent to it), and returns
    ``(schedule, victim, crash_count)``.
    """
    spanner = _pipeline_spanner(graph, seed)
    adjacency: dict[Node, set[Node]] = {node: set() for node in graph.nodes()}
    for tail, head in spanner.undirected_edges():
        adjacency[tail].add(head)
        adjacency[head].add(tail)
    candidates = [
        node
        for node in graph.nodes()
        if node != source and source not in adjacency[node]
    ]
    if not candidates:
        # Dense spanner: every node touches the source. Fall back to the
        # weakest node overall; the source is never crashed, so such a
        # victim stays pipeline-reachable and the demonstration degrades
        # gracefully (coverage stays 1.0).
        candidates = [node for node in graph.nodes() if node != source]
    victim = min(candidates, key=lambda node: (len(adjacency[node]), repr(node)))
    crash_set = adjacency[victim] - {source}
    schedule = CrashSchedule({node: crash_round for node in crash_set})
    return schedule, victim, len(crash_set)


def run_spanner_pipeline_under_failures(
    graph: LatencyGraph,
    failures: Optional[FailureModel],
    source: Optional[Node] = None,
    seed: int = 0,
    budget_factor: float = 1.0,
) -> RobustnessResult:
    """Spanner + RR Broadcast under a failure model.

    The spanner is computed on the intact graph (as EID would have built
    it before the failures hit), then RR Broadcast runs for
    ``budget_factor`` times its Lemma 15 budget.  Crashed nodes take their
    spanner subtrees with them; there is no re-routing.
    """
    if source is None:
        source = graph.nodes()[0]
    rumor = ("rumor", source)
    state = VectorState(graph.nodes())
    state.add_rumor(source, rumor)
    spanner = _pipeline_spanner(graph, seed)
    k_rr = graph.weighted_diameter() * (2 * spanner.k - 1)
    restricted = spanner.restrict(k_rr)
    duration = int(
        budget_factor * (k_rr * restricted.max_out_degree() + k_rr)
    )
    factory = rr_broadcast_factory(spanner, k_rr, duration=duration)
    engine = Engine(
        graph,
        factory,
        state=state,
        latencies_known=True,
        failure_model=failures,
    )

    def covered() -> bool:
        survivors = _survivors(graph, failures, engine.round)
        return all(
            state.knows(node, rumor)
            for node in _reachable_survivors(graph, survivors, source)
        )

    while not engine.all_done():
        engine.step()
        if covered():
            break
    survivors = _survivors(graph, failures, engine.round)
    reachable = _reachable_survivors(graph, survivors, source)
    coverage = _coverage(state, rumor, reachable)
    return RobustnessResult(
        rounds=engine.round,
        coverage=coverage,
        complete=coverage == 1.0,
        survivors=len(survivors),
        reachable=len(reachable),
        lost_exchanges=engine.metrics.lost_exchanges,
        protocol="spanner+RR",
    )
