"""E16 + E17: the conclusion's restricted models — bounded in-degree and
message sizes.

* **E16 (bounded in-degree)** — "it would also be interesting to look at
  the bounds where each node is only allowed O(1) connections per round".
  We cap the number of exchanges a node may *accept* per round and run
  push--pull on a star (the pathological case: everyone wants the center)
  versus a regular expander (load is spread).  The star collapses from
  O(log n)-ish to Θ(n) as the cap reaches 1; the expander barely notices.

* **E17 (message size)** — "it also remains open as to whether information
  dissemination can be completed efficiently with small messages.  When
  latencies are unknown, push--pull does not require large messages.  In
  the other cases, however, larger messages are needed."  We instrument
  the engine's payload accounting: per-exchange payloads for push--pull
  one-to-all broadcast stay small (most exchanges ship a single rumor),
  while the DTG/spanner pipeline ships whole rumor sets (Θ(n)-sized
  payloads).
"""

from __future__ import annotations

import functools
import random
import statistics

from repro.graphs import generators
from repro.protocols.base import PhaseRunner
from repro.protocols.dtg import ldtg_factory
from repro.protocols.push_pull import PushPullProtocol
from repro.sim.engine import Engine
from repro.sim.runner import broadcast_complete
from repro.sim.state import VectorState
from repro.experiments.harness import (
    ExperimentTable,
    Profile,
    map_trials,
    register,
    seeds_for,
)

__all__ = ["run_e16", "run_e17"]


def _push_pull_rounds_with_cap(graph, cap, seed, max_rounds=100_000):
    source = graph.nodes()[0]
    rumor = ("rumor", source)
    state = VectorState(graph.nodes())
    state.add_rumor(source, rumor)
    engine = Engine(
        graph,
        PushPullProtocol.cohort(seed),
        state=state,
        max_incoming_per_round=cap,
    )
    done = broadcast_complete(rumor)
    while not done(engine) and engine.round < max_rounds:
        engine.step()
    return engine.round, engine.metrics.rejected_initiations


@register("E16")
def run_e16(profile: Profile = "quick") -> ExperimentTable:
    """Conclusion: O(1) connections per round — congestion at hubs."""
    n = 32 if profile == "quick" else 128
    seeds = seeds_for(profile, quick=3, full=8)
    star = generators.star(n)
    expander = generators.random_regular(n, 6, rng=random.Random(1))
    rows = []
    for cap in (None, 4, 1):
        for label, graph in (("star", star), ("expander", expander)):
            rounds, rejected = zip(
                *map_trials(
                    functools.partial(_push_pull_rounds_with_cap, graph, cap), seeds
                )
            )
            rows.append(
                {
                    "cap": "unbounded" if cap is None else cap,
                    "graph": f"{label} n={n}",
                    "rounds": statistics.fmean(rounds),
                    "rejected_initiations": statistics.fmean(rejected),
                }
            )
    star_unbounded = next(
        r["rounds"] for r in rows if r["cap"] == "unbounded" and "star" in r["graph"]
    )
    star_capped = next(
        r["rounds"] for r in rows if r["cap"] == 1 and "star" in r["graph"]
    )
    return ExperimentTable(
        experiment_id="E16",
        title="Conclusion — bounded in-degree: hubs congest, expanders do not",
        columns=["cap", "graph", "rounds", "rejected_initiations"],
        rows=rows,
        expectation=(
            "on the star, capping accepted connections at 1 forces Θ(n) "
            "rounds (the center serves one leaf per round); the expander's "
            "load is already spread, so the cap costs little"
        ),
        conclusion=(
            f"star slows {star_capped / star_unbounded:.1f}x under cap=1"
        ),
    )


def _payload_config(n: int) -> dict:
    """One size trial (module-level so it pickles for REPRO_JOBS)."""
    graph = generators.random_regular(n, 6, rng=random.Random(n))
    # Push--pull one-to-all broadcast: a single rumor spreads.
    source = graph.nodes()[0]
    rumor = ("rumor", source)
    state = VectorState(graph.nodes())
    state.add_rumor(source, rumor)
    engine = Engine(
        graph,
        PushPullProtocol.cohort(7),
        state=state,
    )
    done = broadcast_complete(rumor)
    while not done(engine):
        engine.step()
    pp_max = engine.metrics.max_payload_rumors
    pp_avg = engine.metrics.rumor_tokens_sent / max(1, 2 * engine.metrics.exchanges)
    # DTG local broadcast (the spanner pipeline's workhorse): whole
    # rumor sets travel.
    runner = PhaseRunner(graph)
    phase_engine = runner.run_phase(ldtg_factory(graph, 1), latencies_known=True)
    dtg_max = phase_engine.metrics.max_payload_rumors
    dtg_avg = phase_engine.metrics.rumor_tokens_sent / max(
        1, 2 * phase_engine.metrics.exchanges
    )
    return {
        "n": n,
        "pushpull_max_payload": pp_max,
        "pushpull_avg_payload": pp_avg,
        "dtg_max_payload": dtg_max,
        "dtg_avg_payload": dtg_avg,
        "dtg_max/n": dtg_max / n,
    }


@register("E17")
def run_e17(profile: Profile = "quick") -> ExperimentTable:
    """Conclusion: message sizes — push--pull small, DTG/spanner large."""
    sizes = [16, 32] if profile == "quick" else [16, 32, 64, 128]
    rows = map_trials(_payload_config, sizes)
    return ExperimentTable(
        experiment_id="E17",
        title="Conclusion — message sizes: push--pull stays small, DTG ships sets",
        columns=[
            "n",
            "pushpull_max_payload",
            "pushpull_avg_payload",
            "dtg_max_payload",
            "dtg_avg_payload",
            "dtg_max/n",
        ],
        rows=rows,
        expectation=(
            "push--pull one-to-all payloads are O(1) rumors regardless of n; "
            "DTG payloads grow linearly with n (whole rumor sets)"
        ),
        conclusion=(
            "push--pull max payload constant; DTG max payload ≈ "
            + ", ".join(f"{r['dtg_max/n']:.2f}·n" for r in rows)
        ),
    )
