"""Efficient Information Dissemination — EID, Termination Check, General EID.

This module implements the known-latency algorithms of Section 5:

* :func:`run_eid` — **EID(D)** (Algorithm 3): ``O(log n)`` repetitions of
  D-DTG to gather multi-hop neighborhoods, a Baswana--Sen directed spanner
  built from that information, and an RR Broadcast over the spanner.  Total
  time ``O(D log³ n)`` (Lemma 17).
* :func:`run_termination_check` — **Termination Check(k)** (Algorithm 1):
  each node publishes a fingerprint of its rumor set and an error flag
  (set when some neighbor's rumor is missing); a broadcast round spreads
  them; any mismatch or raised flag fails the check, and a second broadcast
  spreads the failure so *all* nodes reach the same verdict (Lemma 18).
* :func:`run_guess_and_double` — the guess-and-double loop every
  all-to-all algorithm shares: for ``k = 1, 2, 4, ...`` run the
  algorithm's phases for ``k``, then Termination Check(k), until the check
  passes; disagreeing verdicts violate Lemma 18 and raise.  General EID,
  Path Discovery (:mod:`repro.protocols.path_discovery`) and
  unknown-latency EID (:mod:`repro.protocols.discovery`) are thin callers
  that differ only in their phases, and all three return a
  :class:`GeneralEIDReport`.
* :func:`run_general_eid` — **General EID** (Algorithm 4): the loop over
  EID(k).  Total time ``O(D log³ n)`` by the geometric sum (Theorem 19).

The per-node *decisions* of the spanner construction are executed centrally
(zero charged rounds) exactly as the paper charges them — "all computations
are done locally" after the DTG phases paid for neighborhood discovery.
"""

from __future__ import annotations

import dataclasses
import math
import random
from typing import Callable, Optional

from repro.errors import ProtocolError, SimulationError
from repro.graphs.latency_graph import LatencyGraph, Node
from repro.obs.recorder import Recorder
from repro.obs.telemetry import PhaseTiming
from repro.sim.state import VectorState
from repro.protocols.base import PhaseRunner
from repro.protocols.dtg import ldtg_factory
from repro.protocols.rr_broadcast import rr_broadcast_factory
from repro.protocols.spanner import DirectedSpanner, baswana_sen_spanner

__all__ = [
    "EIDReport",
    "TerminationCheckReport",
    "GeneralEIDReport",
    "run_eid",
    "run_termination_check",
    "run_general_eid",
    "run_guess_and_double",
]


@dataclasses.dataclass(frozen=True)
class EIDReport:
    """Outcome of one EID(k) execution.

    Attributes
    ----------
    rounds:
        Rounds charged for this execution (DTG phases + RR broadcast).
    exchanges:
        Exchanges initiated.
    spanner:
        The directed spanner built for this execution.
    diameter_estimate:
        The ``k`` this execution ran with.
    phases:
        Per-phase round/exchange/wall-clock timings
        (:class:`~repro.obs.telemetry.PhaseTiming`), in execution order.
        Wall clock is environment noise, so the field is excluded from
        equality.
    """

    rounds: int
    exchanges: int
    spanner: DirectedSpanner
    diameter_estimate: int
    phases: tuple[PhaseTiming, ...] = dataclasses.field(default=(), compare=False)


@dataclasses.dataclass(frozen=True)
class TerminationCheckReport:
    """Outcome of one Termination Check(k).

    Attributes
    ----------
    verdicts:
        ``{node: passed}`` — each node's local verdict.
    passed:
        Whether every node passed.
    unanimous:
        Whether all verdicts agree (Lemma 18 says they must).
    rounds:
        Rounds charged for the check's two broadcasts.
    """

    verdicts: dict[Node, bool]
    passed: bool
    unanimous: bool
    rounds: int


@dataclasses.dataclass(frozen=True)
class GeneralEIDReport:
    """Outcome of a guess-and-double run (:func:`run_guess_and_double`):
    General EID, Path Discovery or unknown-latency EID.

    Attributes
    ----------
    rounds:
        Total rounds over all guess-and-double iterations.
    exchanges:
        Total exchanges.
    final_estimate:
        The diameter estimate ``k`` at which the check passed.
    iterations:
        Number of guess-and-double iterations executed.
    first_complete_round:
        Cumulative round at which all-to-all dissemination actually held
        (before the protocol could *know* it held).
    phases:
        Per-phase timings across every guess-and-double iteration
        (``compare=False`` — wall clock is environment noise).
    """

    rounds: int
    exchanges: int
    final_estimate: int
    iterations: int
    first_complete_round: Optional[int]
    phases: tuple[PhaseTiming, ...] = dataclasses.field(default=(), compare=False)


def _node_rumor_fingerprint(state: VectorState, node: Node, universe: set) -> int:
    """Order-independent fingerprint of the node-id rumors ``node`` knows."""
    relevant = frozenset(r for r in state.rumors(node) if r in universe)
    return hash(relevant)


def spanner_iterations(n_hat: int) -> int:
    """The paper's ``k = log n̂`` Baswana--Sen iteration count (at least 2)."""
    return max(2, math.ceil(math.log2(max(2, n_hat))))


def _eid_phases(
    runner: PhaseRunner,
    graph: LatencyGraph,
    diameter_estimate: int,
    n_hat: int,
    rng: random.Random,
    tag: str,
    max_rounds: int,
) -> tuple[DirectedSpanner, int]:
    """Run EID(k)'s phases on ``runner``; returns (spanner, exchanges_before)."""
    k = diameter_estimate
    repetitions = spanner_iterations(n_hat)
    for repetition in range(repetitions):
        runner.run_phase(
            ldtg_factory(graph, k, run_tag=f"{tag}:dtg{repetition}"),
            latencies_known=True,
            max_rounds=max_rounds,
            name=f"EID({k}) {k}-DTG #{repetition}",
        )
    # Spanner on G_k: the local computation is free, per the paper.
    subgraph = graph.subgraph_leq(k)
    spanner = baswana_sen_spanner(subgraph, spanner_iterations(n_hat), rng, n_hat=n_hat)
    stretch_bound = 2 * spanner.k - 1
    rr_parameter = k * stretch_bound
    runner.run_phase(
        rr_broadcast_factory(spanner, rr_parameter),
        latencies_known=True,
        max_rounds=max_rounds,
        name=f"EID({k}) RR Broadcast",
    )
    return spanner, rr_parameter


def run_eid(
    graph: LatencyGraph,
    diameter: int,
    seed: int = 0,
    n_hat: Optional[int] = None,
    state: Optional[VectorState] = None,
    runner: Optional[PhaseRunner] = None,
    max_rounds: int = 5_000_000,
    engine_factory=None,
    recorder: Optional[Recorder] = None,
    backend: Optional[str] = None,
) -> EIDReport:
    """Run EID(D) — Algorithm 3 — for a known diameter (estimate).

    Parameters
    ----------
    graph:
        The network; latencies are known to nodes in this model.
    diameter:
        The (estimated) weighted diameter ``D``.
    seed:
        Randomness for the spanner's cluster sampling.
    n_hat:
        Polynomial upper bound on ``n`` known to nodes (defaults to ``n``).
    state, runner:
        Optional shared knowledge / phase runner for composition.
    engine_factory:
        Engine constructor for the phases (ignored when ``runner`` is
        given); see :class:`~repro.protocols.base.PhaseRunner`.
    recorder:
        Optional :class:`~repro.obs.recorder.Recorder` for the phases'
        engines (ignored when ``runner`` is given — pass it to the runner
        instead).
    backend:
        Engine backend name for the phases (ignored when ``runner`` or
        ``engine_factory`` is given); under ``"vector"`` both the ℓ-DTG
        phases and the RR Broadcast phase ride the array fast path in a
        plain run, and fall back to the scalar engine when a recorder,
        checkers, a failure model or an incoming cap rule the ℓ-DTG plan
        out.
    """
    if diameter < 1:
        raise ProtocolError(f"diameter must be >= 1, got {diameter}")
    if runner is None:
        runner = PhaseRunner(
            graph,
            state=state,
            engine_factory=engine_factory,
            recorder=recorder,
            backend=backend,
        )
    n_hat = n_hat if n_hat is not None else graph.num_nodes
    rounds_before = runner.total_rounds
    exchanges_before = runner.total_exchanges
    phases_before = len(runner.phases)
    spanner, _ = _eid_phases(
        runner,
        graph,
        diameter,
        n_hat,
        random.Random(seed),
        tag=f"eid:{seed}:{diameter}",
        max_rounds=max_rounds,
    )
    return EIDReport(
        rounds=runner.total_rounds - rounds_before,
        exchanges=runner.total_exchanges - exchanges_before,
        spanner=spanner,
        diameter_estimate=diameter,
        phases=tuple(runner.phases[phases_before:]),
    )


def run_termination_check(
    runner: PhaseRunner,
    graph: LatencyGraph,
    k: int,
    broadcast_phase: Callable[[str], None],
    iteration_tag: str,
) -> TerminationCheckReport:
    """Run Termination Check(k) — Algorithm 1 — over ``runner``'s state.

    Parameters
    ----------
    runner:
        The phase runner whose state holds current rumor sets.
    graph:
        The network.
    k:
        The current distance estimate.
    broadcast_phase:
        Callable running one broadcast over the runner's state (RR Broadcast
        for General EID, the ``T(k)`` sequence for Path Discovery); called
        twice — once to spread fingerprints/flags, once to spread failures.
    iteration_tag:
        Unique tag distinguishing this check's notes from earlier ones.
    """
    state = runner.state
    nodes = graph.nodes()
    universe = set(nodes)
    rounds_before = runner.total_rounds

    # Step 1-3: compute flags and publish (fingerprint, flag).
    fingerprints: dict[Node, int] = {}
    for node in nodes:
        known = state.rumors(node)
        flag = any(neighbor not in known for neighbor in graph.neighbors(node))
        fingerprints[node] = _node_rumor_fingerprint(state, node, universe)
        state.publish_note(
            node, check=iteration_tag, fingerprint=fingerprints[node], flag=flag
        )

    # Step 4: broadcast and gather within the k-neighborhood.
    broadcast_phase(f"{iteration_tag}:gather")

    # Step 5-6: each node inspects every note it saw for this check.
    failed: dict[Node, bool] = {}
    for node in nodes:
        own = _node_rumor_fingerprint(state, node, universe)
        node_failed = False
        for origin in state.known_note_origins(node):
            note = state.note_of(node, origin)
            if note is None or note.get("check") != iteration_tag:
                continue
            if note.get("flag") or note.get("fingerprint") != own:
                node_failed = True
                break
        failed[node] = node_failed

    # Step 7-9: broadcast "failed" so everyone agrees.
    for node in nodes:
        state.publish_note(
            node,
            check=f"{iteration_tag}:status",
            failed=failed[node],
        )
    broadcast_phase(f"{iteration_tag}:spread-status")
    verdicts: dict[Node, bool] = {}
    for node in nodes:
        saw_failure = failed[node]
        for origin in state.known_note_origins(node):
            note = state.note_of(node, origin)
            if note is None or note.get("check") != f"{iteration_tag}:status":
                continue
            if note.get("failed"):
                saw_failure = True
                break
        verdicts[node] = not saw_failure

    values = set(verdicts.values())
    return TerminationCheckReport(
        verdicts=verdicts,
        passed=values == {True},
        unanimous=len(values) == 1,
        rounds=runner.total_rounds - rounds_before,
    )


def run_guess_and_double(
    graph: LatencyGraph,
    label: str,
    tag_prefix: str,
    iteration: Callable[[PhaseRunner, int, str], Callable[[str], None]],
    engine_factory=None,
    recorder: Optional[Recorder] = None,
    backend: Optional[str] = None,
) -> GeneralEIDReport:
    """The guess-and-double loop of Algorithms 4 and 6 and Theorem 20.

    Starts with estimate ``k = 1``.  Each iteration calls
    ``iteration(runner, k, tag)``, with ``tag = tag_prefix + str(k)``,
    which runs the algorithm's phases for ``k`` on ``runner`` and returns
    the broadcast its Termination Check(k) uses; a passing check ends the
    loop, a failing one doubles ``k``.  The runner watches for the first
    round at which all-to-all dissemination held.

    Raises
    ------
    ProtocolError
        If a check produced disagreeing verdicts (Lemma 18 says they
        agree).
    SimulationError
        If ``k`` exceeds every possible diameter (protocol bug guard);
        the message names the algorithm by ``label``.
    """
    nodes = graph.nodes()
    universe = set(nodes)
    runner = PhaseRunner(
        graph,
        watch=lambda state: state.knows_every(nodes, universe),
        engine_factory=engine_factory,
        recorder=recorder,
        backend=backend,
    )
    # Hard cap: the diameter is at most (n - 1) * ℓ_max.
    absolute_cap = 4 * max(1, (graph.num_nodes - 1) * max(1, graph.max_latency()))
    k = 1
    iterations = 0
    while True:
        iterations += 1
        tag = f"{tag_prefix}{k}"
        broadcast = iteration(runner, k, tag)
        check = run_termination_check(runner, graph, k, broadcast, iteration_tag=tag)
        if not check.unanimous:
            raise ProtocolError(
                f"termination check verdicts disagree at k={k} (violates Lemma 18)"
            )
        if check.passed:
            break
        k *= 2
        if k > absolute_cap:
            raise SimulationError(
                f"{label} estimate k={k} exceeded the diameter cap "
                f"{absolute_cap} without passing the termination check"
            )
    return GeneralEIDReport(
        rounds=runner.total_rounds,
        exchanges=runner.total_exchanges,
        final_estimate=k,
        iterations=iterations,
        first_complete_round=runner.first_complete_round,
        phases=tuple(runner.phases),
    )


def run_general_eid(
    graph: LatencyGraph,
    seed: int = 0,
    n_hat: Optional[int] = None,
    max_rounds: int = 5_000_000,
    engine_factory=None,
    recorder: Optional[Recorder] = None,
    backend: Optional[str] = None,
) -> GeneralEIDReport:
    """Run General EID — Algorithm 4 — with an unknown diameter (Theorem 19).

    Starts with diameter estimate ``k = 1``; runs EID(k) then Termination
    Check(k); doubles ``k`` on failure (:func:`run_guess_and_double`,
    which also validates Lemma 18: all nodes must reach the same verdict
    each iteration).
    """
    n_hat = n_hat if n_hat is not None else graph.num_nodes
    rng = random.Random(seed)

    def iteration(runner: PhaseRunner, k: int, tag: str) -> Callable[[str], None]:
        spanner, rr_parameter = _eid_phases(
            runner, graph, k, n_hat, rng, tag=tag, max_rounds=max_rounds
        )

        def broadcast(phase_tag: str) -> None:
            runner.run_phase(
                rr_broadcast_factory(spanner, rr_parameter),
                latencies_known=True,
                max_rounds=max_rounds,
                name=f"check broadcast {phase_tag}",
            )

        return broadcast

    return run_guess_and_double(
        graph,
        "General EID",
        f"geid:{seed}:",
        iteration,
        engine_factory=engine_factory,
        recorder=recorder,
        backend=backend,
    )
