"""Gossip-based aggregation: the paper's motivating application, built.

The introduction motivates dissemination with "distributed database
replication, sensor network data aggregation, ... nodes in the network have
information that they want to share/aggregate/reconcile with others".  This
module closes that loop: every node starts with a value; values spread as
rumors via a chosen dissemination protocol; once a node holds all values it
folds them with the aggregate operator.  Because the protocols below solve
*all-to-all* dissemination, every node ends with the identical aggregate —
exact aggregation, not the approximate averaging of the gossip-averaging
literature.

Supported backends:

* ``"push-pull"`` — no knowledge needed; runs until all values spread (the
  caller sees completion; the nodes themselves cannot detect it);
* ``"general-eid"`` — known latencies, unknown diameter; self-terminating;
* ``"path-discovery"`` — no global knowledge at all; self-terminating.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Mapping, Union

from repro.errors import ProtocolError
from repro.graphs.latency_graph import LatencyGraph, Node
from repro.sim.engine import Engine
from repro.sim.state import VectorState
from repro.protocols.push_pull import PushPullProtocol

__all__ = ["AggregateReport", "AGGREGATE_OPS", "run_aggregate"]

Aggregator = Callable[[list], Any]

AGGREGATE_OPS: dict[str, Aggregator] = {
    "min": min,
    "max": max,
    "sum": sum,
    "count": len,
    "mean": lambda values: sum(values) / len(values),
}


@dataclasses.dataclass(frozen=True)
class AggregateReport:
    """Outcome of one aggregation run.

    Attributes
    ----------
    value:
        The aggregate every node computed.
    per_node:
        ``{node: aggregate}`` — all equal when ``consistent`` is true.
    consistent:
        Whether every node derived the same aggregate (must hold; exposed
        so tests can assert it rather than trust it).
    rounds:
        Rounds the underlying dissemination took.
    protocol:
        The backend used.
    """

    value: Any
    per_node: dict[Node, Any]
    consistent: bool
    rounds: int
    protocol: str


def _value_token(node: Node, value: Any) -> tuple:
    return ("value", node, value)


def _fold(state: VectorState, node: Node, op: Aggregator) -> Any:
    values = [
        token[2]
        for token in state.rumors(node)
        if isinstance(token, tuple) and len(token) == 3 and token[0] == "value"
    ]
    return op(values)


def run_aggregate(
    graph: LatencyGraph,
    values: Mapping[Node, Any],
    op: Union[str, Aggregator] = "min",
    protocol: str = "push-pull",
    seed: int = 0,
    max_rounds: int = 1_000_000,
) -> AggregateReport:
    """Aggregate one value per node across the whole network.

    Parameters
    ----------
    graph:
        The network.
    values:
        One starting value per node (every node must appear).
    op:
        A name from :data:`AGGREGATE_OPS` or any callable folding a list.
    protocol:
        ``"push-pull"``, ``"general-eid"``, or ``"path-discovery"``.
    seed:
        Seed for the randomized backends.
    """
    nodes = graph.nodes()
    missing = [node for node in nodes if node not in values]
    if missing:
        raise ProtocolError(f"missing values for nodes: {missing[:5]}")
    aggregator: Aggregator = AGGREGATE_OPS[op] if isinstance(op, str) else op

    state = VectorState(nodes)
    state.seed_self_rumors()
    for node in nodes:
        state.add_rumor(node, _value_token(node, values[node]))

    tokens = {_value_token(node, values[node]) for node in nodes}

    def all_values_everywhere() -> bool:
        return all(tokens <= state.rumors(node) for node in nodes)

    if protocol == "push-pull":
        engine = Engine(
            graph,
            PushPullProtocol.cohort(seed),
            state=state,
        )
        while not all_values_everywhere():
            if engine.round >= max_rounds:
                raise ProtocolError(
                    f"aggregation exceeded max_rounds={max_rounds}"
                )
            engine.step()
        rounds = engine.round
    elif protocol == "general-eid":
        from repro.protocols.base import PhaseRunner
        from repro.protocols.eid import _eid_phases, run_termination_check
        from repro.protocols.rr_broadcast import rr_broadcast_factory
        import random as _random

        runner = PhaseRunner(graph, state=state)
        rng = _random.Random(seed)
        n_hat = graph.num_nodes
        cap = 4 * max(1, (graph.num_nodes - 1) * max(1, graph.max_latency()))
        k = 1
        while True:
            tag = f"agg:{seed}:{k}"
            spanner, rr_parameter = _eid_phases(
                runner, graph, k, n_hat, rng, tag=tag, max_rounds=max_rounds
            )

            def broadcast(phase_tag: str) -> None:
                runner.run_phase(
                    rr_broadcast_factory(spanner, rr_parameter),
                    latencies_known=True,
                    max_rounds=max_rounds,
                    name=f"aggregate check {phase_tag}",
                )

            check = run_termination_check(
                runner, graph, k, broadcast, iteration_tag=tag
            )
            if check.passed:
                break
            k *= 2
            if k > cap:
                raise ProtocolError("aggregation failed to terminate")
        rounds = runner.total_rounds
    elif protocol == "path-discovery":
        from repro.protocols.base import PhaseRunner
        from repro.protocols.eid import run_termination_check
        from repro.protocols.path_discovery import run_t_sequence

        runner = PhaseRunner(graph, state=state)
        cap = 4 * max(1, (graph.num_nodes - 1) * max(1, graph.max_latency()))
        k = 1
        while True:
            tag = f"aggpd:{k}"
            run_t_sequence(runner, graph, k, tag=tag, max_rounds=max_rounds)

            def broadcast(phase_tag: str) -> None:
                run_t_sequence(
                    runner, graph, k, tag=f"{tag}:{phase_tag}", max_rounds=max_rounds
                )

            check = run_termination_check(
                runner, graph, k, broadcast, iteration_tag=tag
            )
            if check.passed:
                break
            k *= 2
            if k > cap:
                raise ProtocolError("aggregation failed to terminate")
        rounds = runner.total_rounds
    else:
        raise ProtocolError(f"unknown aggregation protocol {protocol!r}")

    per_node = {node: _fold(state, node, aggregator) for node in nodes}
    reference = per_node[nodes[0]]
    consistent = all(result == reference for result in per_node.values())
    return AggregateReport(
        value=reference,
        per_node=per_node,
        consistent=consistent,
        rounds=rounds,
        protocol=protocol,
    )
