"""The gossip → guessing-game reduction (Lemma 3).

Lemma 3: if a gossip algorithm solves local broadcast on the gadget network
``G(P)`` (or ``Gsym(P)``) in ``t`` rounds, then Alice can solve
``Guessing(2m, P)`` in at most ``t`` rounds — she simulates the algorithm,
and whenever the simulation activates a cross edge she submits that edge's
id pair as a guess (the oracle's answer reveals the edge's latency).

:func:`simulate_gossip_as_guessing` *executes* that reduction: it runs a
real protocol on a built gadget while feeding every round's cross-edge
activations into a live :class:`~repro.lowerbounds.game.GuessingGame`
with the gadget's own target, then verifies the lemma's conclusion — by the
round local broadcast completes, the game is solved.  Because each of the
``2m`` gadget nodes initiates at most one exchange per round, Alice's
per-round guess budget of ``2m`` is respected automatically.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Optional

from repro.errors import GameError
from repro.graphs.gadgets import GadgetNetwork
from repro.graphs.latency_graph import Node
from repro.sim.engine import Engine, NodeProtocol
from repro.sim.runner import local_broadcast_complete
from repro.sim.state import VectorState
from repro.lowerbounds.game import GuessingGame, target_from_gadget

__all__ = ["ReductionOutcome", "simulate_gossip_as_guessing"]


@dataclasses.dataclass(frozen=True)
class ReductionOutcome:
    """What happened when a gossip run was replayed as a guessing game.

    Attributes
    ----------
    gossip_rounds:
        Rounds until the gossip algorithm completed local broadcast (or the
        budget ran out).
    game_rounds:
        Round at which the game's target emptied (``None`` if it never did).
    gossip_complete:
        Whether local broadcast completed within the budget.
    lemma3_holds:
        Lemma 3's conclusion: gossip completion implies the game was solved
        by the same round.
    guesses_submitted:
        Total cross-edge guesses Alice submitted.
    """

    gossip_rounds: int
    game_rounds: Optional[int]
    gossip_complete: bool
    lemma3_holds: bool
    guesses_submitted: int


def simulate_gossip_as_guessing(
    gadget: GadgetNetwork,
    protocol_factory: Callable[[Node], NodeProtocol],
    max_rounds: int = 200_000,
    local_max_latency: Optional[int] = None,
) -> ReductionOutcome:
    """Run the Lemma 3 reduction on a concrete gadget and protocol.

    Parameters
    ----------
    gadget:
        A gadget network (its ``target`` becomes the game's target).
    protocol_factory:
        Per-node protocol, e.g. push--pull with per-node RNGs.
    max_rounds:
        Round budget for the gossip run.
    local_max_latency:
        The ℓ-local-broadcast threshold used as the completion condition;
        defaults to the gadget's fast latency — only fast edges can carry a
        right-side node's first rumor, which is what the reduction exploits.
    """
    m = len(gadget.left)
    game = GuessingGame(m, target_from_gadget(m, gadget.target))
    left_index = {node: i for i, node in enumerate(gadget.left)}
    right_index = {node: m + j for j, node in enumerate(gadget.right)}

    state = VectorState(gadget.graph.nodes())
    state.seed_self_rumors()
    engine = Engine(gadget.graph, protocol_factory, state=state, latencies_known=False)
    threshold = (
        local_max_latency if local_max_latency is not None else gadget.fast_latency
    )
    done = local_broadcast_complete(threshold)
    game_rounds: Optional[int] = None
    guesses_submitted = 0

    while not done(engine) and engine.round < max_rounds:
        engine.step()
        guesses = set()
        for u, v in engine.last_initiations:
            if u in left_index and v in right_index:
                guesses.add((left_index[u], right_index[v]))
            elif v in left_index and u in right_index:
                guesses.add((left_index[v], right_index[u]))
        if len(guesses) > 2 * m:
            raise GameError(
                "reduction produced more cross activations than the guess budget"
            )
        if not game.done:
            game.guess(guesses)
            guesses_submitted += len(guesses)
            if game.done and game_rounds is None:
                game_rounds = engine.round
        elif game_rounds is None:
            game_rounds = engine.round

    gossip_complete = done(engine)
    lemma3_holds = (not gossip_complete) or (
        game_rounds is not None and game_rounds <= engine.round
    )
    return ReductionOutcome(
        gossip_rounds=engine.round,
        game_rounds=game_rounds,
        gossip_complete=gossip_complete,
        lemma3_holds=lemma3_holds,
        guesses_submitted=guesses_submitted,
    )
