"""RR Broadcast: round-robin dissemination over a directed spanner (Algorithm 2).

Given the directed spanner and a distance parameter ``k``, every node cycles
through its out-edges of latency ``<= k``, initiating one (non-blocking)
exchange per round, for ``k·Δ_out + k`` rounds.  Lemma 15 shows that any two
nodes at weighted distance ``<= k`` in ``G`` have then exchanged rumors:
along a shortest path, each hop waits at most ``Δ_out`` rounds for its edge's
turn plus the hop latency, and the hop count and latency sum are both
``<= k``.

On the ``O(log n)``-stretch spanner with ``Δ_out = O(log n)`` this gives the
``O(D log² n)`` broadcast step of Corollary 16.

The protocol is oblivious: one ``kind="round_robin"``
:class:`~repro.sim.vector.VectorProgram` over the out-edges as
``targets`` with the budget as ``duration``, run by
:class:`~repro.sim.vector.ObliviousProtocol` on every engine.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.errors import ProtocolError
from repro.graphs.latency_graph import Node
from repro.sim.vector import ObliviousProtocol, VectorProgram
from repro.protocols.spanner import DirectedSpanner

__all__ = ["RRBroadcastProtocol", "rr_broadcast_factory", "rr_broadcast_duration"]


def rr_broadcast_duration(k: int, max_out_degree: int) -> int:
    """The Lemma 15 round budget ``k·Δ_out + k``."""
    return k * max_out_degree + k


class RRBroadcastProtocol(ObliviousProtocol):
    """One node's RR Broadcast behaviour: cycle out-edges for a fixed budget.

    Raises :class:`~repro.errors.ProtocolError` for a negative ``duration``.
    """

    def __init__(self, out_neighbors: list[Node], duration: int) -> None:
        super().__init__(
            VectorProgram(
                kind="round_robin", targets=tuple(out_neighbors), duration=duration
            )
        )


def rr_broadcast_factory(
    spanner: DirectedSpanner,
    k: int,
    duration: Optional[int] = None,
) -> Callable[[Node], RRBroadcastProtocol]:
    """Factory for one RR Broadcast phase with parameter ``k``.

    Out-edges are restricted to latency ``<= k`` (the ``G_k`` view of the
    spanner); the default duration is Lemma 15's ``k·Δ_out + k`` computed
    from the restricted spanner's max out-degree.
    """
    if k < 1:
        raise ProtocolError(f"k must be >= 1, got {k}")
    restricted = spanner.restrict(k)
    budget = (
        duration
        if duration is not None
        else rr_broadcast_duration(k, restricted.max_out_degree())
    )

    def make(node: Node) -> RRBroadcastProtocol:
        return RRBroadcastProtocol(list(restricted.out_edges.get(node, [])), budget)

    return make
