"""Differential matrix for phase-chained composite runs on the vector backend.

A ``backend="vector"`` :class:`~repro.protocols.base.PhaseRunner`
dispatches each phase of a composite algorithm independently: eligible
phases (RR Broadcast, and ℓ-DTG's lockstep plan in plain runs) ride
:class:`~repro.sim.vector.VectorEngine`, while ℓ-DTG phases in runs with
crashes, caps or a recorder fall back to the scalar engine over the
*same* shared state.  The composite run must therefore be field-identical to
the all-scalar run — same per-phase rounds and exchanges, same totals,
same final per-node knowledge — for EID, a chained ℓ-DTG schedule, and
Path Discovery's ``T(k)`` sequence, crossed with crash schedules,
incoming caps, and a scalar leg over the set-backed
:class:`~repro.testing.reference.ReferenceNetworkState`.

The golden leg records one composite EID run and pins the event stream
byte for byte: the scalar run blesses the file, and the vector run must
reproduce it exactly — once with the recorder alone (RR Broadcast on the
batched mirror path) and once inside ``checked()`` (RR Broadcast on the
scalar engine's per-exchange step over the vector state, the ℓ-DTG
phases on the scalar fallback).  Re-bless with ``REPRO_UPDATE_GOLDEN=1``
after a deliberate semantic change.
"""

import contextlib
import os
import pathlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.graphs.generators import ring_of_cliques
from repro.obs import Recorder, events_to_jsonl
from repro.protocols.base import PhaseRunner
from repro.protocols.dtg import ldtg_factory
from repro.protocols.eid import run_eid
from repro.protocols.path_discovery import run_t_sequence
from repro.sim import invariants
from repro.sim.state import VectorState
from repro.testing import (
    ReferenceNetworkState,
    connected_latency_graphs,
    crash_schedules,
    seeds,
)

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"


def _run_eid(runner, graph, max_rounds):
    run_eid(graph, diameter=2, seed=1, runner=runner, max_rounds=max_rounds)


def _run_ldtg_chain(runner, graph, max_rounds):
    for step, ell in enumerate([1, max(1, graph.max_latency())]):
        runner.run_phase(
            ldtg_factory(graph, ell, run_tag=f"chain{step}"),
            latencies_known=True,
            max_rounds=max_rounds,
            name=f"{ell}-DTG",
        )


def _run_path_discovery(runner, graph, max_rounds):
    run_t_sequence(runner, graph, k=2, tag="t2", max_rounds=max_rounds)


#: name -> composite driver over a prepared PhaseRunner.
COMPOSITES = {
    "eid": _run_eid,
    "ldtg-chain": _run_ldtg_chain,
    "path-discovery": _run_path_discovery,
}


#: Adaptive ℓ-DTG walks can wait forever on a crashed neighbor, so the
#: crash-schedule leg bounds every phase and compares the park outcome
#: itself — both backends must hit (or not hit) the budget identically.
CRASH_MAX_ROUNDS = 600


def run_composite(
    name, graph, backend, engine_kwargs=None, state_cls=VectorState, max_rounds=5_000
):
    """One all-to-all-seeded composite run; returns the finished runner."""
    state = state_cls(graph.nodes())
    state.seed_self_rumors()
    runner = PhaseRunner(
        graph, state=state, backend=backend, engine_kwargs=engine_kwargs
    )
    COMPOSITES[name](runner, graph, max_rounds)
    return runner


def run_crash_leg(name, graph, backend, engine_kwargs):
    """A phase-bounded composite run; returns ``(runner, parked)``."""
    state = VectorState(graph.nodes())
    state.seed_self_rumors()
    runner = PhaseRunner(graph, state=state, backend=backend, engine_kwargs=engine_kwargs)
    try:
        COMPOSITES[name](runner, graph, CRASH_MAX_ROUNDS)
    except SimulationError as exc:
        if "max_rounds" not in str(exc):
            raise
        return runner, True
    return runner, False


def assert_composites_agree(graph, scalar, vector):
    assert vector.total_rounds == scalar.total_rounds
    assert vector.total_exchanges == scalar.total_exchanges
    assert vector.total_messages == scalar.total_messages
    assert [(p.name, p.rounds, p.exchanges) for p in vector.phases] == [
        (p.name, p.rounds, p.exchanges) for p in scalar.phases
    ]
    for node in graph.nodes():
        assert set(vector.state.rumors(node)) == set(scalar.state.rumors(node))


class TestCompositeMatrix:
    """EID / ℓ-DTG / Path Discovery x {crashes, caps, vector state}."""

    @pytest.mark.parametrize("name", sorted(COMPOSITES))
    @given(connected_latency_graphs(min_nodes=4, max_nodes=9), st.data())
    @settings(max_examples=5, deadline=None)
    def test_crash_schedules_agree(self, name, graph, data):
        crashes = data.draw(crash_schedules(graph.nodes()))
        kwargs = {"failure_model": crashes}  # stateless: sharable
        scalar, scalar_parked = run_crash_leg(name, graph, None, kwargs)
        vector, vector_parked = run_crash_leg(name, graph, "vector", kwargs)
        assert vector_parked == scalar_parked
        assert_composites_agree(graph, scalar, vector)

    @pytest.mark.parametrize("name", sorted(COMPOSITES))
    @given(
        connected_latency_graphs(min_nodes=4, max_nodes=9),
        st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=5, deadline=None)
    def test_incoming_caps_agree(self, name, graph, cap):
        kwargs = {"max_incoming_per_round": cap}
        scalar = run_composite(name, graph, backend=None, engine_kwargs=kwargs)
        vector = run_composite(
            name, graph, backend="vector", engine_kwargs=kwargs
        )
        assert_composites_agree(graph, scalar, vector)

    @pytest.mark.parametrize("name", sorted(COMPOSITES))
    @given(connected_latency_graphs(min_nodes=4, max_nodes=9))
    @settings(max_examples=5, deadline=None)
    def test_layout_family_agrees(self, name, graph):
        # The scalar leg runs over the set-backed oracle state, the
        # vector leg over the caller-built bitset state.
        scalar = run_composite(
            name, graph, backend=None, state_cls=ReferenceNetworkState
        )
        vector = run_composite(name, graph, backend="vector")
        assert_composites_agree(graph, scalar, vector)

    @given(connected_latency_graphs(min_nodes=4, max_nodes=9), seeds(100))
    @settings(max_examples=5, deadline=None)
    def test_eid_mixes_backends(self, graph, seed):
        """A plain vector EID run is vector end to end; under an incoming
        cap it really is mixed: RR Broadcast keeps the fast path while
        the ℓ-DTG phases, whose lockstep plan a cap can break, fall back."""
        plain = run_composite("eid", graph, backend="vector")
        assert {p.backend for p in plain.phases} == {"vector"}
        assert all(r is None for r in plain.phase_fallbacks)
        capped = run_composite(
            "eid",
            graph,
            backend="vector",
            engine_kwargs={"max_incoming_per_round": 1 + seed % 3},
        )
        for phase, reason in zip(capped.phases, capped.phase_fallbacks):
            if "DTG" in phase.name:
                assert phase.backend == "scalar-fallback"
                assert "an incoming cap" in reason
            else:
                assert phase.backend == "vector"
                assert reason is None


def _composite_trace(backend) -> tuple[str, PhaseRunner]:
    """A recorded composite EID run's event stream as canonical JSONL,
    with the runner that produced it.

    Every vector-dispatched phase must replay the scalar engine's
    canonical stream byte for byte across phase boundaries.
    """
    graph = ring_of_cliques(3, 4, inter_latency=2, rng=random.Random(2))
    recorder = Recorder.in_memory()
    runner = PhaseRunner(graph, recorder=recorder, backend=backend)
    run_eid(graph, diameter=3, seed=4, runner=runner)
    return events_to_jsonl(recorder.events), runner


GOLDEN_FILE = "eid_composite_mirror.jsonl"


class TestCompositeGoldenTrace:
    def test_scalar_golden_committed(self):
        generated, _ = _composite_trace(None)
        path = GOLDEN_DIR / GOLDEN_FILE
        if os.environ.get("REPRO_UPDATE_GOLDEN"):
            GOLDEN_DIR.mkdir(exist_ok=True)
            path.write_bytes(generated.encode("ascii"))
            pytest.skip(f"re-blessed {GOLDEN_FILE}")
        assert path.exists(), (
            f"missing golden file {path}; generate with REPRO_UPDATE_GOLDEN=1"
        )
        assert path.read_bytes() == generated.encode("ascii"), (
            f"{GOLDEN_FILE} drifted from the committed scalar stream — if "
            "intentional, re-bless with REPRO_UPDATE_GOLDEN=1 and review"
        )

    @pytest.mark.parametrize("leg", ["batched", "checked"])
    def test_mirror_paths_reproduce_committed_bytes(self, leg):
        path = GOLDEN_DIR / GOLDEN_FILE
        assert path.exists(), (
            f"missing golden file {path}; generate with REPRO_UPDATE_GOLDEN=1"
        )
        scope = invariants.checked() if leg == "checked" else contextlib.nullcontext()
        with scope:
            generated, runner = _composite_trace("vector")
        # RR Broadcast really ran on the vector engine's batched mirror;
        # the ℓ-DTG phases, whose plan needs a plain run, fell back, and
        # under the checkers every phase is a per-exchange run.
        for phase in runner.phases:
            fallback = "DTG" in phase.name or leg == "checked"
            expected = "scalar-fallback" if fallback else "vector"
            assert phase.backend == expected, (phase.name, phase.backend)
        assert path.read_bytes() == generated.encode("ascii"), (
            f"the {leg} vector leg diverged from the committed composite "
            "stream — every vector path must replay the scalar engine "
            "byte for byte across phases"
        )
