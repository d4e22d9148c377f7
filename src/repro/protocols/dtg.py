"""The ℓ-DTG local broadcast protocol (Algorithm 5 / Appendix C).

Haeupler's Deterministic Tree Gossip solves *local broadcast* — every node
exchanges rumors with all of its neighbors — in ``O(log² n)`` rounds on
unweighted graphs.  The paper adapts it to latency graphs as **ℓ-DTG**:
ignore all edges of latency greater than ``ℓ`` and charge every DTG step a
uniform wait of ``ℓ`` rounds, so one DTG round is simulated as ``ℓ`` network
rounds and the total time becomes ``O(ℓ log² n)``.

Per iteration ``i`` an active node links one new ℓ-neighbor it has not heard
from yet and then performs the PUSH / PULL / PULL / PUSH sequences of
Algorithm 5 over its ``i`` linked neighbors (4·i exchanges of ``ℓ`` rounds
each).  All active nodes are always in the same iteration — each has linked
exactly one neighbor per iteration since round 0 — which preserves the
lockstep the binomial *i-tree* analysis needs.  A node goes inactive once it
knows the rumor of every ℓ-neighbor; inactive nodes still answer exchanges.

The schedule (fast-list order, run token, link order, iteration starts) is
declared once, as the ``dtg_*`` functions of :mod:`repro.sim.vector`:
:class:`LDTGProtocol` runs it one node at a time and the vector backend's
lockstep plan replays it as array ops.

Implementation note: Algorithm 5 pipelines the fresh working sets ``R'`` and
``R''``; we ship the node's full rumor set instead.  The round structure
(who contacts whom, and when) is identical, and shipping supersets can only
make rumor sets grow faster, so the ``O(ℓ log² n)`` bound is preserved while
the code stays close to the engine's one-payload-per-exchange model.
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional, Sequence

from repro.errors import ProtocolError
from repro.graphs.latency_graph import LatencyGraph, Node
from repro.sim.engine import NodeContext
from repro.sim.metrics import DisseminationResult
from repro.sim.programs import Command, ProgramProtocol, contact_and_wait
from repro.sim.runner import local_broadcast_complete
from repro.sim.state import VectorState
from repro.sim.vector import VectorProgram, dtg_fast_order, dtg_link, dtg_token
from repro.protocols.base import PhaseRunner, per_node_rng_factory

__all__ = ["LDTGProtocol", "ldtg_factory", "run_ldtg"]


class LDTGProtocol(ProgramProtocol):
    """One node's ℓ-DTG program.

    Parameters
    ----------
    max_latency:
        The ``ℓ`` parameter: edges above this latency are ignored and every
        exchange step waits exactly ``ℓ`` rounds.
    fast_neighbors:
        The node's neighbors over edges of latency ``<= ℓ``.  Pass ``None``
        to read them from the engine (requires ``latencies_known=True``);
        pass an explicit list when latencies were *measured* instead
        (Section 4.2's discover-then-run pipeline).
    run_tag:
        Algorithm 5's set ``R`` contains the ids heard from *during this
        run*.  With a ``run_tag`` each node starts the run by seeding the
        token ``(run_tag, node)`` and the loop condition counts only tagged
        tokens — so a repeated invocation performs a full fresh local
        broadcast (relaying whatever global rumors were learned meanwhile)
        instead of terminating immediately.  ``None`` uses plain node ids,
        which is equivalent for a single stand-alone run.
    selection:
        How "link to any new neighbor" picks its neighbor. ``"rotate"``
        (default, deterministic): the id order rotated past the node's own
        id.  ``"random"``: uniform among unheard neighbors — the
        randomized flavor of the Superstep local broadcast the paper cites
        alongside DTG; requires ``rng``.  Both satisfy Algorithm 5's
        "any new neighbor"; the ablation benchmark compares them.
    rng:
        Randomness for ``selection="random"``.

    Backends: in a plain run (no recorder, checkers, failure model,
    incoming cap, fresh snapshots, blocking or note boards) every
    exchange delivers within its ``ℓ``-round step, so all nodes stay in
    lockstep and :meth:`vector_program` lets the vector backend replay
    the phase as whole-round array ops.  Any other run, and
    ``selection="random"``, falls back to the scalar engine.
    """

    def __init__(
        self,
        max_latency: int,
        fast_neighbors: Optional[Sequence[Node]] = None,
        run_tag: Optional[str] = None,
        selection: str = "rotate",
        rng=None,
    ) -> None:
        super().__init__()
        if max_latency < 1:
            raise ProtocolError(f"max_latency must be >= 1, got {max_latency}")
        if selection not in ("rotate", "random"):
            raise ProtocolError(f"unknown selection {selection!r}")
        if selection == "random" and rng is None:
            raise ProtocolError("selection='random' requires an rng")
        self._ell = max_latency
        self._fast_neighbors = list(fast_neighbors) if fast_neighbors is not None else None
        self._run_tag = run_tag
        self._selection = selection
        self._rng = rng
        self.iterations_used = 0

    def setup(self, ctx: NodeContext) -> None:
        # Seed this run's token before round 0 so the very first snapshots
        # taken of this node already carry it.
        ctx.state.add_rumor(ctx.node, dtg_token(self._run_tag, ctx.node))
        super().setup(ctx)

    def vector_program(self) -> VectorProgram:
        """The lockstep ℓ-DTG plan: period ``ℓ``, this run's token tag and
        the explicit fast-neighbor list (``None``: read from the graph).
        Random linking carries its rng, which makes the program
        ineligible."""
        return VectorProgram(
            kind="dtg",
            period=self._ell,
            tag=self._run_tag,
            targets=(
                tuple(self._fast_neighbors)
                if self._fast_neighbors is not None
                else None
            ),
            rng=self._rng if self._selection == "random" else None,
        )

    def program(self, ctx: NodeContext) -> Iterator[Command]:
        ell = self._ell
        if self._fast_neighbors is not None:
            fast = self._fast_neighbors
        else:
            fast = (v for v, latency in ctx.known_latencies().items() if latency <= ell)
        fast = dtg_fast_order(ctx.node, fast)
        tag = self._run_tag
        linked: list[Node] = []
        while True:
            known = ctx.state.rumors(ctx.node)
            if all(dtg_token(tag, neighbor) in known for neighbor in fast):
                return
            fresh = [
                v for v in fast if dtg_token(tag, v) not in known and v not in linked
            ]
            if fresh:
                new = self._rng.choice(fresh) if self._selection == "random" else fresh[0]
            else:
                # Everyone unheard-from is already linked; re-run the
                # sequences over the linked set until their tokens arrive.
                new = next(v for v in fast if dtg_token(tag, v) not in known)
            if new not in linked:
                linked.append(new)
            self.iterations_used += 1
            i = len(linked)
            for k in range(4 * i):
                yield contact_and_wait(linked[dtg_link(i, k)], rounds=ell)


def ldtg_factory(
    graph: LatencyGraph,
    max_latency: int,
    measured: Optional[dict[Node, dict[Node, int]]] = None,
    run_tag: Optional[str] = None,
    selection: str = "rotate",
    seed: int = 0,
) -> Callable[[Node], LDTGProtocol]:
    """Factory building one :class:`LDTGProtocol` per node.

    Parameters
    ----------
    graph:
        The network (used only to enumerate neighbors when ``measured`` is
        given).
    max_latency:
        The ``ℓ`` parameter.
    measured:
        Optional per-node measured latencies, ``{node: {neighbor: latency}}``
        — when given, each node's fast-neighbor list comes from its own
        measurements rather than from the omniscient graph.
    run_tag:
        Fresh-token tag for repeated invocations (see :class:`LDTGProtocol`).
    selection, seed:
        Neighbor-selection mode; ``"random"`` derives one RNG stream per
        node from ``seed``.
    """
    make_rng = per_node_rng_factory(seed) if selection == "random" else None

    def make(node: Node) -> LDTGProtocol:
        rng = make_rng(node) if make_rng is not None else None
        if measured is None:
            return LDTGProtocol(
                max_latency, run_tag=run_tag, selection=selection, rng=rng
            )
        fast = [
            neighbor
            for neighbor, latency in measured.get(node, {}).items()
            if latency <= max_latency
        ]
        return LDTGProtocol(
            max_latency,
            fast_neighbors=fast,
            run_tag=run_tag,
            selection=selection,
            rng=rng,
        )

    return make


def run_ldtg(
    graph: LatencyGraph,
    max_latency: int,
    state: Optional[VectorState] = None,
    max_rounds: int = 1_000_000,
    engine_factory=None,
    backend: Optional[str] = None,
) -> DisseminationResult:
    """Run one full ℓ-DTG phase and verify ℓ-local broadcast completed.

    Returns a result whose ``rounds`` is the phase length (all nodes
    terminated); completeness is checked against the ℓ-local broadcast
    predicate.  ``backend="vector"`` runs the phase on the vector
    backend's lockstep ℓ-DTG plan (bit-identical to the scalar engine);
    runs the plan cannot replay fall back to the scalar engine (see
    :class:`LDTGProtocol`).
    """
    runner = PhaseRunner(
        graph, state=state, engine_factory=engine_factory, backend=backend
    )
    runner.run_phase(
        ldtg_factory(graph, max_latency),
        latencies_known=True,
        max_rounds=max_rounds,
        name=f"{max_latency}-DTG",
    )
    complete = local_broadcast_complete(max_latency)(
        _StateView(graph, runner.state)
    )
    return DisseminationResult(
        rounds=runner.total_rounds,
        complete=complete,
        exchanges=runner.total_exchanges,
        messages=runner.total_messages,
        protocol=f"{max_latency}-DTG",
    )


class _StateView:
    """Minimal engine-like view for reusing runner predicates on raw state."""

    def __init__(self, graph: LatencyGraph, state: VectorState) -> None:
        self.graph = graph
        self.state = state
