"""The ``T(k)`` schedule and Path Discovery algorithm (Appendix E).

The alternative all-to-all algorithm needs no global knowledge (not even a
polynomial bound on ``n``).  It invokes ℓ-DTG with latencies following the
recursively defined pattern

    T(1) = 1-DTG
    T(k) = T(k/2) · k-DTG · T(k/2)

i.e. the ruler sequence ``1, 2, 1, 4, 1, 2, 1, 8, ...``.  Lemma 24 shows by
induction that after executing ``T(k)`` every pair of nodes at weighted
distance ``<= k`` has exchanged rumors; Lemma 25 gives the total time
``O(k log² n log k)``.

:func:`run_path_discovery` wraps ``T(k)`` in the guess-and-double +
Termination Check loop General EID uses too
(:func:`~repro.protocols.eid.run_guess_and_double`, Algorithm 6), with
another ``T(k)`` as the check's broadcast primitive, for total time
``O(D log² n log D)`` (Lemma 26).
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.errors import ProtocolError
from repro.graphs.latency_graph import LatencyGraph
from repro.obs.recorder import Recorder
from repro.protocols.base import PhaseRunner
from repro.protocols.dtg import ldtg_factory
from repro.protocols.eid import GeneralEIDReport, run_guess_and_double

__all__ = ["t_sequence", "run_t_sequence", "PathDiscoveryReport", "run_path_discovery"]


def t_sequence(k: int) -> list[int]:
    """The ℓ-parameters of ``T(k)``: ``T(k) = T(k/2) · k · T(k/2)``.

    ``k`` must be a power of two.  The length is ``2^{log k + 1} - 1``.
    """
    if k < 1 or k & (k - 1) != 0:
        raise ProtocolError(f"T(k) requires k to be a positive power of two, got {k}")
    if k == 1:
        return [1]
    half = t_sequence(k // 2)
    return half + [k] + half


def run_t_sequence(
    runner: PhaseRunner,
    graph: LatencyGraph,
    k: int,
    tag: str,
    max_rounds: int = 5_000_000,
) -> int:
    """Execute the ``T(k)`` schedule of ℓ-DTG phases; returns rounds charged."""
    rounds_before = runner.total_rounds
    for step, ell in enumerate(t_sequence(k)):
        runner.run_phase(
            ldtg_factory(graph, ell, run_tag=f"{tag}:step{step}:ell{ell}"),
            latencies_known=True,
            max_rounds=max_rounds,
            name=f"T({k}) step {step}: {ell}-DTG",
        )
    return runner.total_rounds - rounds_before


#: Path Discovery's report: the loop that fills it is General EID's.
PathDiscoveryReport = GeneralEIDReport


def run_path_discovery(
    graph: LatencyGraph,
    max_rounds: int = 5_000_000,
    engine_factory=None,
    recorder: Optional[Recorder] = None,
    backend: Optional[str] = None,
) -> GeneralEIDReport:
    """Run Path Discovery — Algorithm 6 — solving all-to-all dissemination.

    No knowledge of ``n`` or ``D`` is required; the ``T(k)`` schedule is
    repeated with doubling ``k`` until the Termination Check passes
    (:func:`~repro.protocols.eid.run_guess_and_double`).
    """

    def iteration(runner: PhaseRunner, k: int, tag: str) -> Callable[[str], None]:
        run_t_sequence(runner, graph, k, tag=tag, max_rounds=max_rounds)

        def broadcast(phase_tag: str) -> None:
            run_t_sequence(
                runner, graph, k, tag=f"{tag}:{phase_tag}", max_rounds=max_rounds
            )

        return broadcast

    return run_guess_and_double(
        graph,
        "Path Discovery",
        "pathdisc:",
        iteration,
        engine_factory=engine_factory,
        recorder=recorder,
        backend=backend,
    )
