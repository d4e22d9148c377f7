"""Classical push--pull gossip (the random phone call protocol).

In every round every node initiates an exchange with a uniformly random
neighbor; the exchange is bidirectional, so information both pushes to and
pulls from the contacted node.  Theorem 12 of the paper shows that on a
latency graph this completes one-to-all broadcast w.h.p. within
``O((ℓ*/φ*) · log n)`` rounds, where ``φ*`` is the weighted conductance and
``ℓ*`` the critical latency.

The protocol needs no knowledge of latencies, the diameter, or ``n`` — it is
the "unknown everything" workhorse of Section 4.1.

Push--pull and its push-only and pull-only variants are oblivious: each
class only declares a ``kind="random"``
:class:`~repro.sim.vector.VectorProgram` (the variants add a knows or
not-knows gate on the rumor), and
:class:`~repro.sim.vector.ObliviousProtocol` runs it on every engine.
A run declares its nodes once, as a cohort: ``PushPullProtocol.cohort(seed)``
(``PushProtocol.cohort(seed, rumor)``, ...) is the protocol factory
whose node ``v`` draws from ``per_node_rng_factory(seed)(v)``'s stream,
and the vector engine builds no per-node object from it.
"""

from __future__ import annotations

import random
from typing import Hashable, Optional

from repro.graphs.latency_graph import LatencyGraph, Node
from repro.obs.recorder import Recorder
from repro.sim.engine import Engine
from repro.sim.metrics import DisseminationResult
from repro.sim.runner import (
    all_to_all_complete,
    broadcast_complete,
    local_broadcast_complete,
    run_until_complete,
)
from repro.sim.state import VectorState
from repro.sim.vector import (
    ObliviousCohort,
    ObliviousProtocol,
    VectorProgram,
    resolve_engine_backend,
)

__all__ = ["PushPullProtocol", "PushProtocol", "PullProtocol", "run_push_pull"]

#: Push--pull's program, shared by every node (the rng is the node's own).
_PUSH_PULL = VectorProgram(kind="random")


class PushPullProtocol(ObliviousProtocol):
    """One node's push--pull behaviour: contact a uniform random neighbor."""

    def __init__(self, rng: random.Random) -> None:
        super().__init__(_PUSH_PULL, rng)

    @classmethod
    def cohort(cls, seed: int) -> ObliviousCohort:
        """Every node's push--pull, node ``v`` drawing from
        ``per_node_rng_factory(seed)(v)``'s stream."""
        return ObliviousCohort(cls, _PUSH_PULL, seed)


class _GatedPushPull(PushPullProtocol):
    """Push--pull that initiates only while the gate on ``rumor`` holds."""

    #: The gate's condition, ``"knows"`` or ``"not_knows"``.
    GATE: str

    def __init__(self, rng: random.Random, rumor: Hashable) -> None:
        ObliviousProtocol.__init__(self, self._program(rumor), rng)

    @classmethod
    def _program(cls, rumor: Hashable) -> VectorProgram:
        return VectorProgram(kind="random", gate=(cls.GATE, rumor))

    @classmethod
    def cohort(cls, seed: int, rumor: Hashable) -> ObliviousCohort:
        """Every node's protocol gated on ``rumor``, node ``v`` drawing
        from ``per_node_rng_factory(seed)(v)``'s stream."""
        return ObliviousCohort(cls, cls._program(rumor), seed)


class PushProtocol(_GatedPushPull):
    """Push-only gossip: only nodes already knowing ``rumor`` initiate.

    The exchange itself stays bidirectional (responding is automatic in
    the model), but uninformed nodes never spend their initiation — the
    spread is driven purely by informed nodes pushing outward.
    """

    GATE = "knows"


class PullProtocol(_GatedPushPull):
    """Pull-only gossip: only nodes *not* knowing ``rumor`` initiate.

    Uninformed nodes keep asking random neighbors until the rumor
    arrives, then go quiet — the mirror image of :class:`PushProtocol`.
    """

    GATE = "not_knows"


def run_push_pull(
    graph: LatencyGraph,
    source: Optional[Node] = None,
    mode: str = "broadcast",
    seed: int = 0,
    max_rounds: int = 1_000_000,
    max_latency: Optional[int] = None,
    track_progress: bool = False,
    allow_incomplete: bool = False,
    fresh_snapshots: bool = False,
    telemetry: bool = False,
    recorder: Optional[Recorder] = None,
    variant: str = "push-pull",
    backend: Optional[str] = None,
) -> DisseminationResult:
    """Run push--pull to completion and report the time.

    Parameters
    ----------
    graph:
        The network.
    source:
        Source node for ``mode="broadcast"`` (defaults to the first node).
    mode:
        ``"broadcast"`` (one-to-all), ``"all_to_all"``, or ``"local"``
        (every node's rumor reaches its (ℓ-)neighbors).
    seed:
        Seed for the per-node random contact choices.
    max_rounds:
        Round budget (generous by default; the bound is ``O((ℓ*/φ*) log n)``).
    max_latency:
        For ``mode="local"``: only neighbors over edges of latency
        ``<= max_latency`` must be reached.
    track_progress:
        Record the informed-node count per round (broadcast mode only).
    allow_incomplete:
        Return an incomplete result instead of raising when the budget runs
        out.
    fresh_snapshots:
        Snapshot-semantics ablation flag (see :class:`~repro.sim.Engine`).
    telemetry:
        Attach per-round series (coverage + in-flight curves) to the
        result — see :func:`~repro.sim.runner.run_until_complete`.
    recorder:
        Optional :class:`~repro.obs.recorder.Recorder` receiving the
        engine's typed event stream.  Neither flag perturbs the run: the
        returned result compares equal to a plain run of the same seed.
    variant:
        ``"push-pull"`` (default: everyone initiates), ``"push"`` (only
        informed nodes initiate), or ``"pull"`` (only uninformed nodes
        initiate).  The gated variants need a single target rumor, so
        they require ``mode="broadcast"``.
    backend:
        Engine backend name (``"scalar"`` or ``"vector"``).  ``None``
        defers to the ambient :func:`~repro.sim.vector.engine_backend`
        scope (scalar by default); both backends are result-identical
        for the same seed.
    """
    state = VectorState(graph.nodes())
    progress = None
    if mode == "broadcast":
        if source is None:
            source = graph.nodes()[0]
        rumor = ("rumor", source)
        state.add_rumor(source, rumor)
        predicate = broadcast_complete(rumor)
        if track_progress:
            def progress(engine: Engine) -> int:
                return engine.state.count_knowing(rumor)
    elif mode == "all_to_all":
        state.seed_self_rumors()
        predicate = all_to_all_complete()
    elif mode == "local":
        state.seed_self_rumors()
        predicate = local_broadcast_complete(max_latency)
    else:
        raise ValueError(f"unknown mode {mode!r}")

    if variant == "push-pull":
        factory = PushPullProtocol.cohort(seed)
    elif variant in ("push", "pull"):
        if mode != "broadcast":
            raise ValueError(
                f"variant {variant!r} needs a single target rumor; "
                'only mode="broadcast" is supported'
            )
        cls = PushProtocol if variant == "push" else PullProtocol
        factory = cls.cohort(seed, rumor)
    else:
        raise ValueError(f"unknown variant {variant!r}")
    engine = resolve_engine_backend(backend)(
        graph,
        factory,
        state=state,
        latencies_known=False,
        fresh_snapshots=fresh_snapshots,
        recorder=recorder,
    )
    return run_until_complete(
        engine,
        predicate,
        protocol_name=f"{variant}[{mode}]",
        max_rounds=max_rounds,
        track_progress=progress,
        allow_incomplete=allow_incomplete,
        telemetry=telemetry,
    )
