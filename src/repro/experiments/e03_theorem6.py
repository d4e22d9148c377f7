"""E3: the Ω(Δ) lower bound (Theorem 6) made empirical.

Theorem 6's network glues a ``G(2Δ, |T| = 1)`` gadget onto a clique: the
weighted diameter is O(1) and the unweighted conductance constant, yet any
algorithm needs ``Ω(Δ)`` rounds for local broadcast because the single fast
cross edge must be found by (implicit) guessing.

We run the Lemma 3 reduction with real push--pull gossip on the built
network and record the round at which the hidden fast edge is first hit
(the guessing game's end).  That round should grow linearly with Δ even
though every structural parameter the classical theory looks at stays flat.
"""

from __future__ import annotations

import functools
import random
import statistics

from repro.analysis.scaling import loglog_slope
from repro.graphs.gadgets import theorem6_network
from repro.lowerbounds.reduction import simulate_gossip_as_guessing
from repro.protocols.push_pull import PushPullProtocol
from repro.experiments.harness import (
    ExperimentTable,
    Profile,
    map_trials,
    register,
    seeds_for,
)

__all__ = ["run_e3"]


def _hit_rounds(n: int, delta: int, seed: int) -> int:
    """One seed-ladder trial (module-level so it pickles for REPRO_JOBS)."""
    rng = random.Random(seed)
    gadget = theorem6_network(n, delta, rng)
    outcome = simulate_gossip_as_guessing(
        gadget, PushPullProtocol.cohort(seed + 1000)
    )
    if not outcome.lemma3_holds:
        raise AssertionError("Lemma 3 violated in E3 run")
    return (
        outcome.game_rounds
        if outcome.game_rounds is not None
        else outcome.gossip_rounds
    )


@register("E3")
def run_e3(profile: Profile = "quick") -> ExperimentTable:
    """Theorem 6: time to find the hidden fast edge grows like Δ."""
    deltas = [4, 8, 16, 32] if profile == "quick" else [4, 8, 16, 32, 64, 128]
    extra_clique = 12
    seeds = seeds_for(profile, quick=5, full=15)
    rows = []
    for delta in deltas:
        n = 2 * delta + extra_clique
        game_rounds = map_trials(functools.partial(_hit_rounds, n, delta), seeds)
        mean_rounds = statistics.fmean(game_rounds)
        rows.append(
            {
                "delta": delta,
                "n": n,
                "rounds_to_hit": mean_rounds,
                "rounds/delta": mean_rounds / delta,
            }
        )
    slope = loglog_slope(
        [r["delta"] for r in rows], [r["rounds_to_hit"] for r in rows]
    )
    return ExperimentTable(
        experiment_id="E3",
        title="Theorem 6 — Ω(Δ) despite D = O(1) and constant hop conductance",
        columns=["delta", "n", "rounds_to_hit", "rounds/delta"],
        rows=rows,
        expectation="rounds to hit the fast edge grow linearly in Δ (slope ≈ 1)",
        conclusion=f"log-log slope of rounds vs Δ = {slope:.2f}",
    )
