"""repro — a full reproduction of *Gossiping with Latencies* (PODC 2017).

This library implements, from scratch:

* the paper's synchronous non-blocking communication model as a
  deterministic simulator (:mod:`repro.sim`);
* weighted conductance ``φ*`` and critical latency ``ℓ*``
  (:mod:`repro.conductance`);
* every algorithm: push--pull, ℓ-DTG, the Baswana--Sen directed spanner,
  RR Broadcast, EID / General EID, Path Discovery, latency discovery, and
  the unified parallel composition (:mod:`repro.protocols`);
* the guessing-game lower-bound machinery and the gossip-to-game reduction
  (:mod:`repro.lowerbounds`), plus the worst-case gadget networks
  (:mod:`repro.graphs.gadgets`);
* experiment harnesses regenerating every theorem's empirical validation
  (:mod:`repro.experiments`).

Quickstart::

    import random
    from repro import generators, weighted_conductance, run_push_pull

    graph = generators.ring_of_cliques(8, 10, inter_latency=5,
                                       rng=random.Random(1))
    wc = weighted_conductance(graph, method="sweep")
    print(f"phi* = {wc.phi_star:.3f} at critical latency {wc.critical_latency}")
    print(run_push_pull(graph, source=0, seed=7))
"""

from repro import obs
from repro.analysis import GraphBounds, compute_bounds
from repro.conductance import (
    StronglyEdgeInducedGraph,
    WeightedConductance,
    conductance_profile,
    weighted_conductance,
)
from repro.errors import (
    ConductanceError,
    DisconnectedGraphError,
    ExperimentError,
    GameError,
    GraphError,
    ProtocolError,
    ReproError,
    SimulationError,
)
from repro.graphs import LatencyGraph, gadgets, generators
from repro.lowerbounds import GuessingGame, simulate_gossip_as_guessing
from repro.protocols import (
    baswana_sen_spanner,
    run_eid,
    run_flooding,
    run_general_eid,
    run_general_eid_unknown_latencies,
    run_latency_discovery,
    run_ldtg,
    run_path_discovery,
    run_push_pull,
    run_unified,
)
from repro.sim import (
    DisseminationResult,
    Engine,
    InvariantChecker,
    VectorState,
    checked,
    default_checkers,
)

__version__ = "1.0.0"

__all__ = [
    "ConductanceError",
    "DisconnectedGraphError",
    "DisseminationResult",
    "Engine",
    "ExperimentError",
    "GameError",
    "GraphBounds",
    "GraphError",
    "GuessingGame",
    "InvariantChecker",
    "LatencyGraph",
    "ProtocolError",
    "ReproError",
    "SimulationError",
    "StronglyEdgeInducedGraph",
    "VectorState",
    "WeightedConductance",
    "baswana_sen_spanner",
    "checked",
    "compute_bounds",
    "conductance_profile",
    "default_checkers",
    "gadgets",
    "generators",
    "obs",
    "run_eid",
    "run_flooding",
    "run_general_eid",
    "run_general_eid_unknown_latencies",
    "run_latency_discovery",
    "run_ldtg",
    "run_path_discovery",
    "run_push_pull",
    "run_unified",
    "simulate_gossip_as_guessing",
    "weighted_conductance",
    "__version__",
]
