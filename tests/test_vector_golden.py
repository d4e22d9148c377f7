"""Golden-trace parity for the vector engine backend.

With a :class:`~repro.obs.Recorder` as its only observer the vector
engine takes its batched mirror path (array-kernel rounds that emit the
events from the precomputed delivery buckets), which must replay the
scalar engine's event stream **byte for byte**.  The first two traces regenerate runs whose
canonical JSONL streams are already committed for the scalar engine
(``tests/test_obs_golden.py`` owns them); this suite re-derives them with
``backend="vector"`` and asserts identity with the committed bytes — so
the two backends are pinned to one event stream, not merely to each
other.

The third trace is new in this suite and exercises the vector engine's
bucketed delivery (multiple distinct in-flight latencies at once) on a
multi-latency random graph.  To re-bless it after a deliberate semantic
change::

    REPRO_UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_vector_golden.py
"""

import os
import pathlib
import random

import pytest

from repro.graphs import generators
from repro.graphs.latency_models import uniform_latency
from repro.obs import Recorder, events_to_jsonl
from repro.protocols.push_pull import run_push_pull

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"


def _bucketed_graph():
    """A small ER graph with several distinct latencies in flight."""
    return generators.erdos_renyi(
        16, 0.3, latency_model=uniform_latency(1, 5), rng=random.Random(3)
    )


def trace_push_pull(backend) -> str:
    """The committed push--pull broadcast golden, per backend."""
    graph = generators.ring_of_cliques(3, 4, inter_latency=3, rng=random.Random(0))
    recorder = Recorder.in_memory()
    run_push_pull(graph, source=0, seed=1, recorder=recorder, backend=backend)
    return events_to_jsonl(recorder.events)


def trace_push_pull_string_ids(backend) -> str:
    """The committed string-node-id golden, per backend."""
    from repro.graphs import gadgets
    from repro.graphs.latency_graph import LatencyGraph

    ring = gadgets.theorem8_ring(2, 3, 3, random.Random(0))
    relabel = {node: f"v{node}" for node in ring.graph.nodes()}
    graph = LatencyGraph(
        nodes=[relabel[node] for node in ring.graph.nodes()],
        edges=[
            (relabel[u], relabel[v], latency)
            for u, v, latency in ring.graph.edges()
        ],
    )
    recorder = Recorder.in_memory()
    run_push_pull(
        graph,
        source=relabel[ring.graph.nodes()[0]],
        seed=2,
        recorder=recorder,
        backend=backend,
    )
    return events_to_jsonl(recorder.events)


def trace_vector_bucketed(backend) -> str:
    """Push--pull over uniform latencies 1..5: multi-bucket delivery."""
    recorder = Recorder.in_memory()
    run_push_pull(_bucketed_graph(), source=0, seed=5, recorder=recorder, backend=backend)
    return events_to_jsonl(recorder.events)


#: Traces whose golden files test_obs_golden.py owns (scalar-generated);
#: here the vector backend must reproduce the committed bytes.
SHARED_TRACES = {
    "push_pull_ring_of_cliques.jsonl": trace_push_pull,
    "push_pull_theorem8_ring_string_ids.jsonl": trace_push_pull_string_ids,
}

#: Traces owned by this suite (re-blessed here under REPRO_UPDATE_GOLDEN).
OWNED_TRACES = {
    "push_pull_vector_bucketed.jsonl": trace_vector_bucketed,
}


@pytest.mark.parametrize("filename", sorted(SHARED_TRACES))
def test_vector_backend_matches_committed_golden(filename):
    generated = SHARED_TRACES[filename]("vector")
    path = GOLDEN_DIR / filename
    assert path.exists(), f"missing golden file {path} (owned by test_obs_golden.py)"
    assert path.read_bytes() == generated.encode("ascii"), (
        f"the vector backend's event stream for {filename} diverged from "
        "the committed scalar golden — the batched mirror path must be "
        "byte-identical to the scalar engine"
    )


@pytest.mark.parametrize("filename", sorted(OWNED_TRACES))
def test_bucketed_golden_byte_identical(filename):
    generated = OWNED_TRACES[filename]("vector")
    path = GOLDEN_DIR / filename
    if os.environ.get("REPRO_UPDATE_GOLDEN"):
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_bytes(generated.encode("ascii"))
        pytest.skip(f"re-blessed {filename}")
    assert path.exists(), (
        f"missing golden file {path}; generate with REPRO_UPDATE_GOLDEN=1"
    )
    assert path.read_bytes() == generated.encode("ascii"), (
        f"{filename} drifted from the committed golden stream — if the "
        "change is intentional, re-bless with REPRO_UPDATE_GOLDEN=1 and "
        "review the diff"
    )


@pytest.mark.parametrize("filename", sorted(OWNED_TRACES))
def test_bucketed_golden_scalar_backend_agrees(filename):
    # The owned golden is backend-independent: the scalar engine emits
    # the very same canonical stream.
    assert OWNED_TRACES[filename]("vector") == OWNED_TRACES[filename]("scalar")


def test_bucketed_graph_has_multiple_latency_buckets():
    # The new golden only earns its name if several delivery buckets are
    # genuinely in flight: the graph must carry >= 3 distinct latencies.
    latencies = {latency for _, _, latency in _bucketed_graph().edges()}
    assert len(latencies) >= 3
