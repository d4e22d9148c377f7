#!/usr/bin/env python
"""The guessing-game lower bound, played live (Section 3 / Lemma 3).

Three acts:

1. play ``Guessing(2m, |T| = 1)`` with different Alice strategies and watch
   the Ω(m) cost of Lemma 4 appear;
2. play ``Guessing(2m, Random_p)`` and watch the adaptive-vs-oblivious gap
   of Lemma 5 (the log m factor push--pull pays);
3. run the actual Lemma 3 reduction: push--pull gossip on the Theorem 6
   gadget network, with every cross-edge activation fed to the oracle as a
   guess — the hidden fast edge is only "found" when the game says so.

Run with: ``python examples/lower_bound_game.py``
"""

import random
import statistics

from repro.graphs.gadgets import theorem6_network
from repro.lowerbounds.game import GuessingGame
from repro.lowerbounds.predicates import random_predicate, singleton_predicate
from repro.lowerbounds.reduction import simulate_gossip_as_guessing
from repro.lowerbounds.strategies import (
    fresh_pair_strategy,
    play_game,
    random_guessing_strategy,
    systematic_sweep_strategy,
)
from repro.protocols.push_pull import PushPullProtocol


def mean_rounds(m, predicate, strategy_factory, seeds=10):
    rounds = []
    for seed in range(seeds):
        rng = random.Random(seed)
        game = GuessingGame(m, predicate(m, rng))
        rounds.append(play_game(game, strategy_factory, rng))
    return statistics.fmean(rounds)


def main() -> None:
    print("Act 1 — Lemma 4: singleton target needs Ω(m) rounds")
    singleton = singleton_predicate()
    print(f"{'m':>5} {'adaptive':>9} {'sweep':>7}")
    for m in (8, 16, 32, 64):
        adaptive = mean_rounds(m, singleton, fresh_pair_strategy)
        sweep = mean_rounds(m, singleton, systematic_sweep_strategy)
        print(f"{m:>5} {adaptive:>9.1f} {sweep:>7.1f}")
    print()

    print("Act 2 — Lemma 5: Random_p, adaptive 1/p vs oblivious log(m)/p")
    print(f"{'m':>5} {'p':>5} {'adaptive':>9} {'oblivious':>10} {'gap':>5}")
    for m in (16, 32, 64):
        p = 0.2
        adaptive = mean_rounds(m, random_predicate(p), fresh_pair_strategy)
        oblivious = mean_rounds(m, random_predicate(p), random_guessing_strategy)
        print(
            f"{m:>5} {p:>5} {adaptive:>9.1f} {oblivious:>10.1f} "
            f"{oblivious / adaptive:>5.1f}"
        )
    print(
        "(the oblivious strategy consistently pays a multiplicative gap —\n"
        " Lemma 5's log m factor; at these small m it reads as a ~3-4x "
        "constant)"
    )
    print()

    print("Act 3 — Lemma 3: push--pull on the Theorem 6 gadget IS the game")
    delta = 16
    rng = random.Random(0)
    gadget = theorem6_network(2 * delta + 12, delta, rng)
    outcome = simulate_gossip_as_guessing(gadget, PushPullProtocol.cohort(99))
    print(
        f"gadget with Δ = {delta}: local broadcast finished at round "
        f"{outcome.gossip_rounds};\nthe hidden fast edge was hit at round "
        f"{outcome.game_rounds} after {outcome.guesses_submitted} guesses"
    )
    print(f"Lemma 3 (game solved no later than gossip): {outcome.lemma3_holds}")


if __name__ == "__main__":
    main()
