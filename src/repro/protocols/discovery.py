"""Latency discovery for the unknown-latency model (Section 4.2).

When nodes do not know their adjacent latencies, they can *measure* them:
"for Δ rounds, each node broadcasts a request to each neighbor
(sequentially) and then waits up to D rounds for a response".  An exchange
initiated in round ``t`` that delivers in round ``t'`` reveals the edge
latency ``t' - t``; edges that never respond within the window have latency
``> D`` and are useless anyway (Section 5.1 discards them).

:func:`run_latency_discovery` executes this as a real protocol phase and
returns the per-node measured latency tables, ready to feed the known-
latency algorithms (via ``ldtg_factory(..., measured=...)``).  With unknown
``Δ``/``D``, :func:`run_general_eid_unknown_latencies` wraps the whole
pipeline in the guess-and-double loop every all-to-all algorithm shares
(:func:`~repro.protocols.eid.run_guess_and_double`, which checks Lemma
18's unanimous verdicts here too), realizing the ``O((D + Δ) log³ n)``
branch of Theorem 20.
"""

from __future__ import annotations

import random
from typing import Callable, Iterator, Optional

from repro.errors import ProtocolError
from repro.graphs.latency_graph import LatencyGraph, Node
from repro.sim.engine import NodeContext
from repro.sim.programs import Command, ProgramProtocol, contact, wait
from repro.sim.state import VectorState
from repro.protocols.base import PhaseRunner
from repro.protocols.dtg import ldtg_factory
from repro.protocols.eid import (
    GeneralEIDReport,
    run_guess_and_double,
    spanner_iterations,
)
from repro.protocols.rr_broadcast import rr_broadcast_factory
from repro.protocols.spanner import baswana_sen_spanner

__all__ = [
    "LatencyDiscoveryProtocol",
    "run_latency_discovery",
    "UnknownLatencyReport",
    "run_general_eid_unknown_latencies",
]


class LatencyDiscoveryProtocol(ProgramProtocol):
    """Probe every neighbor once, then wait out the response window.

    Parameters
    ----------
    wait_rounds:
        How long to wait after the last probe (the ``D`` estimate); edges
        whose response has not arrived by then are treated as slower than
        the window.

    Probes are request/ack pings (``sends_payload = False``): they measure
    latency without disseminating rumors, so discovery over slow edges
    cannot shortcut the dissemination the termination check later audits.
    """

    sends_payload = False

    def __init__(self, wait_rounds: int) -> None:
        super().__init__()
        if wait_rounds < 1:
            raise ProtocolError(f"wait_rounds must be >= 1, got {wait_rounds}")
        self._wait_rounds = wait_rounds

    def program(self, ctx: NodeContext) -> Iterator[Command]:
        for neighbor in sorted(ctx.neighbors(), key=repr):
            yield contact(neighbor)
        yield wait(self._wait_rounds)


def run_latency_discovery(
    graph: LatencyGraph,
    window: int,
    state: Optional[VectorState] = None,
    runner: Optional[PhaseRunner] = None,
) -> dict[Node, dict[Node, int]]:
    """Measure adjacent latencies at every node (Section 4.2).

    Runs one discovery phase (``Δ`` probe rounds + ``window`` wait rounds,
    charged to the shared ``runner`` if given) and returns
    ``{node: {neighbor: measured latency}}`` containing exactly the edges
    whose latency is at most ``window`` (up to in-flight stragglers, which
    are also included — knowing *more* latencies never hurts).
    """
    if runner is None:
        runner = PhaseRunner(graph, state=state)
    engine = runner.run_phase(
        lambda node: LatencyDiscoveryProtocol(window),
        latencies_known=False,
        name=f"latency discovery (window={window})",
    )
    measured: dict[Node, dict[Node, int]] = {}
    for node in graph.nodes():
        protocol = engine.protocol(node)
        assert isinstance(protocol, LatencyDiscoveryProtocol)
        measured[node] = dict(protocol.measured_latencies)
    return measured


#: The discover-then-EID pipeline's report: the loop that fills it is
#: General EID's.
UnknownLatencyReport = GeneralEIDReport


def run_general_eid_unknown_latencies(
    graph: LatencyGraph,
    seed: int = 0,
    n_hat: Optional[int] = None,
    max_rounds: int = 5_000_000,
    engine_factory=None,
) -> GeneralEIDReport:
    """Guess-and-double EID where latencies must first be measured.

    Each iteration with estimate ``k``: (1) probe all neighbors and wait
    ``k`` rounds, measuring every adjacent latency ``<= k``; (2) run the
    EID(k) phases using only *measured* fast edges; (3) Termination
    Check(k) (:func:`~repro.protocols.eid.run_guess_and_double`).
    Realizes the ``O((D + Δ) log³ n)`` bound of Section 4.2 / Theorem 20
    without ever reading the latency oracle.
    """
    nodes = graph.nodes()
    n_hat = n_hat if n_hat is not None else graph.num_nodes
    rng = random.Random(seed)

    def iteration(runner: PhaseRunner, k: int, tag: str) -> Callable[[str], None]:
        measured = run_latency_discovery(graph, window=k, runner=runner)
        repetitions = spanner_iterations(n_hat)
        for repetition in range(repetitions):
            runner.run_phase(
                ldtg_factory(
                    graph, k, measured=measured, run_tag=f"{tag}:dtg{repetition}"
                ),
                latencies_known=False,
                max_rounds=max_rounds,
                name=f"unknown-lat EID({k}) {k}-DTG #{repetition}",
            )
        # Build the spanner from the *measured* fast edges only.
        known_subgraph = LatencyGraph(nodes=nodes)
        for node, table in measured.items():
            for neighbor, latency in table.items():
                if latency <= k and not known_subgraph.has_edge(node, neighbor):
                    known_subgraph.add_edge(node, neighbor, latency)
        spanner = baswana_sen_spanner(
            known_subgraph, spanner_iterations(n_hat), rng, n_hat=n_hat
        )
        rr_parameter = k * (2 * spanner.k - 1)

        def broadcast(phase_tag: str) -> None:
            runner.run_phase(
                rr_broadcast_factory(spanner, rr_parameter),
                latencies_known=False,
                max_rounds=max_rounds,
                name=f"unknown-lat check broadcast {phase_tag}",
            )

        broadcast("main")
        return broadcast

    return run_guess_and_double(
        graph,
        "unknown-latency EID",
        f"ueid:{seed}:",
        iteration,
        engine_factory=engine_factory,
    )
