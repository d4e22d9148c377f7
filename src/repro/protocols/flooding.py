"""Round-robin flooding baselines.

Two variants:

* **push--pull flooding** — every node cycles through its neighbors
  round-robin, always initiating.  A natural deterministic baseline.
* **push-only flooding** — only nodes that already know the target rumor
  initiate.  Footnote 2 of the paper observes that without the ability to
  pull, information exchange takes ``Ω(nD)`` time on a star: the center can
  push to only one leaf per round.  This variant exists to demonstrate that
  separation (see the ablation benchmark).

Both are one ``kind="round_robin"`` :class:`~repro.sim.vector.VectorProgram`
(push-only adds a knows-gate), run by
:class:`~repro.sim.vector.ObliviousProtocol` on every engine;
``FloodingProtocol.cohort(...)`` declares it once for every node.
"""

from __future__ import annotations

from typing import Hashable, Optional

from repro.graphs.latency_graph import LatencyGraph, Node
from repro.sim.metrics import DisseminationResult
from repro.sim.runner import broadcast_complete, run_until_complete
from repro.sim.state import VectorState
from repro.sim.vector import (
    ObliviousCohort,
    ObliviousProtocol,
    VectorProgram,
    resolve_engine_backend,
)

__all__ = ["FloodingProtocol", "run_flooding"]


class FloodingProtocol(ObliviousProtocol):
    """Cycle deterministically through neighbors, one initiation per round.

    Parameters
    ----------
    push_only_rumor:
        If given, the node only initiates while it knows this rumor
        (push-only flooding); pulls by uninformed nodes are suppressed.
    """

    def __init__(self, push_only_rumor: Optional[Hashable] = None) -> None:
        super().__init__(self._program(push_only_rumor))

    @staticmethod
    def _program(push_only_rumor: Optional[Hashable]) -> VectorProgram:
        gate = ("knows", push_only_rumor) if push_only_rumor is not None else None
        return VectorProgram(kind="round_robin", gate=gate)

    @classmethod
    def cohort(cls, push_only_rumor: Optional[Hashable] = None) -> ObliviousCohort:
        """Every node's flooding, sharing one program."""
        return ObliviousCohort(cls, cls._program(push_only_rumor))


def run_flooding(
    graph: LatencyGraph,
    source: Optional[Node] = None,
    push_only: bool = False,
    max_rounds: int = 1_000_000,
    allow_incomplete: bool = False,
    backend: Optional[str] = None,
) -> DisseminationResult:
    """Broadcast one rumor from ``source`` by round-robin flooding.

    ``backend`` selects the engine implementation (``"scalar"`` or
    ``"vector"``); ``None`` defers to the ambient
    :func:`~repro.sim.vector.engine_backend` scope.
    """
    if source is None:
        source = graph.nodes()[0]
    rumor = ("rumor", source)
    state = VectorState(graph.nodes())
    state.add_rumor(source, rumor)
    engine = resolve_engine_backend(backend)(
        graph,
        FloodingProtocol.cohort(rumor if push_only else None),
        state=state,
        latencies_known=False,
    )
    name = "flooding[push-only]" if push_only else "flooding[push-pull]"
    return run_until_complete(
        engine,
        broadcast_complete(rumor),
        protocol_name=name,
        max_rounds=max_rounds,
        allow_incomplete=allow_incomplete,
    )
