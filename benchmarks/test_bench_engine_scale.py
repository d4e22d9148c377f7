"""Mega-scale engine benchmarks: vector-backend broadcasts with memory caps.

Times the ``engine_scale`` suite from :mod:`repro.benchmarking` — seeded
push--pull broadcasts *and streamed all-to-all runs* on the vector
backend at ``n = 10^5`` (quick) and ``n = 10^6`` (full) — and writes
``benchmarks/results/BENCH_engine_scale.json``.  Every workload entry
records ``peak_state_bytes`` and the state's layout label next to the
wall time, so the committed report doubles as the memory-acceptance
artifact: at ``n = 10^6`` a broadcast holds one bitset word per node
(8 MB, the one-part ``dense`` layout) where an all-to-all bitset matrix
would need ~125 GB, and the streamed all-to-all replays rumor blocks
through a chunked layout whose peak residency stays inside its declared
``max_state_bytes`` budget.

The smoke legs re-run each quick workload in a subprocess whose
``RLIMIT_DATA`` is clamped to a hard memory ceiling, so CI catches any
change that silently reintroduces O(n^2)-ish allocations — the run
*crashes* instead of quietly paging.  The broadcast leg's ceiling is
tight enough that one ``random.Random`` per node no longer fits, and a
stream oracle replays sampled nodes' partner draws at the same size.  A third leg builds the ``n = 10^6``
graph substrate alone (``erdos_renyi_fast`` plus the vector engine's CSR
tables) under a 2 GiB ceiling.

Runs standalone — ``pytest benchmarks/test_bench_engine_scale.py`` — so
CI can smoke it without the pytest-benchmark plugin.  Set
``REPRO_PROFILE=full`` for the ``n = 10^6`` acceptance workload, or use
``make scale-smoke``.
"""

import json
import os
import pathlib
import random
import subprocess
import sys

from repro.benchmarking import (
    BENCH_ENGINE_SCALE_PATH,
    ENGINE_SCALE_BASELINE_PATH,
    _vector_bench_graph,
    run_microbenchmarks,
    write_report,
)
from repro.protocols.push_pull import PushPullProtocol
from repro.sim.runner import broadcast_complete
from repro.sim.state import VectorState
from repro.sim.vector import VectorEngine

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]

#: Hard data-segment ceiling for the streamed all-to-all smoke leg, which
#: runs in its own fresh interpreter under this cap.  The n=10^5
#: streamed all-to-all holds its graph plus one rumor-block slice and the
#: in-flight payload rows under a 256 MiB state budget (~0.9 GB
#: resident).  1.5 GiB passes with margin, while the *dense* all-to-all
#: state matrix at that n (1.25 GB before the graph or a single payload
#: row) cannot fit.
MEMORY_CEILING_BYTES = 3 * (1 << 29)

#: The n=10^5 broadcast leg's own, tighter ceiling (graph and CSR tables
#: dominate; the rumor state itself is 800 kB).  With seed-addressed
#: partner streams (no ``random.Random`` per node: an n x 128 uint32
#: word window, 51 MB, instead of ~290 MB of twister objects) and a
#: declared cohort (no protocol, program or handle per node) the leg's
#: smallest passing RLIMIT_DATA, found by bisection to 8 MiB, is 315 MiB
#: (356 MiB with a protocol and a handle per node); this allows 20%
#: more.  Building one ``random.Random`` per node, as before the
#: streams, needs 674 MiB and dies under it.
BROADCAST_CEILING_BYTES = 378 << 20

#: Ceiling for the n=10^6 substrate leg: G(10^6, 8/n) (~5·10^6 edges)
#: and its CSR tables peak around 1.3 GB resident when the graph is
#: built from edge arrays; a per-edge dict-of-dicts build of the same
#: graph needs more than this.
SUBSTRATE_CEILING_BYTES = 1 << 31

# Runs inside `python -c` in a fresh interpreter: clamp RLIMIT_DATA
# before importing numpy or touching any graph, so *every* allocation of
# the workload is under the ceiling, then emit the workload meta as the
# last stdout line for the parent to parse.  argv: ceiling, quick-profile
# workload index.
_CEILING_SCRIPT = """
import json, resource, sys
ceiling = int(sys.argv[1])
soft, hard = resource.getrlimit(resource.RLIMIT_DATA)
resource.setrlimit(resource.RLIMIT_DATA, (ceiling, hard))
try:
    from repro.benchmarking import engine_scale_microbenchmarks
    workload = engine_scale_microbenchmarks("quick")[int(sys.argv[2])]
    meta = workload.run()
finally:
    resource.setrlimit(resource.RLIMIT_DATA, (soft, hard))
print(json.dumps(meta))
"""

# The same clamp around the graph substrate alone.  argv: ceiling, n.
_SUBSTRATE_SCRIPT = """
import json, random, resource, sys, time
ceiling = int(sys.argv[1])
soft, hard = resource.getrlimit(resource.RLIMIT_DATA)
resource.setrlimit(resource.RLIMIT_DATA, (ceiling, hard))
try:
    from repro.graphs.generators import erdos_renyi_fast
    from repro.graphs.latency_models import uniform_latency
    from repro.sim.vector import _csr_arrays
    n = int(sys.argv[2])
    start = time.perf_counter()
    graph = erdos_renyi_fast(n, 8 / n, uniform_latency(1, 8), random.Random(0))
    deg, off, nbr, lat, eid = _csr_arrays(graph)
    seconds = time.perf_counter() - start
finally:
    resource.setrlimit(resource.RLIMIT_DATA, (soft, hard))
print(json.dumps({
    "n": graph.num_nodes,
    "edges": graph.num_edges,
    "slots": int(nbr.shape[0]),
    "dict_built": "_adj" in vars(graph),
    "seconds": seconds,
    "peak_rss_bytes": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024,
}))
"""


def test_engine_scale_microbenchmarks(capsys, profile):
    report = write_report(
        run_microbenchmarks(profile, suite="engine_scale"),
        out_path=BENCH_ENGINE_SCALE_PATH,
        baseline_path=ENGINE_SCALE_BASELINE_PATH,
    )
    with capsys.disabled():
        print()
        for name, entry in sorted(report["workloads"].items()):
            line = (
                f"{name}: {entry['seconds']:.3f}s  layout={entry['layout']}"
                f"  peak_state_bytes={entry['peak_state_bytes']}"
            )
            speedup = report.get("speedup", {}).get(name)
            if speedup:
                line += f"  ({speedup:.1f}x vs committed baseline)"
            print(line)
        print(f"report written to {BENCH_ENGINE_SCALE_PATH}")
    assert BENCH_ENGINE_SCALE_PATH.exists()
    assert report["workloads"], "no workloads were timed"
    for name, entry in report["workloads"].items():
        assert entry["seconds"] > 0
        if "streamed" in name:
            # The streaming acceptance bound: peak rumor-state residency
            # is one block slice inside the declared budget — far under
            # the dense n x n matrix (~125 GB at n = 10^6).
            assert entry["layout"] == "chunked"
            assert 0 < entry["peak_state_bytes"] <= entry["max_state_bytes"]
            assert entry["peak_state_bytes"] < entry["n"] ** 2 // 8
            assert entry["blocks"] >= 1
        else:
            # The broadcast acceptance bound: rumor state stays far under
            # 1 GB at any n (one bitset word, 8 bytes, per node).
            assert entry["peak_state_bytes"] < 1 << 30
            assert entry["layout"] == "dense"


def _run_under_ceiling(script: str, ceiling: int, arg: int, what: str) -> dict:
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", script, str(ceiling), str(arg)],
        capture_output=True,
        text=True,
        env=env,
        timeout=600,
    )
    assert proc.returncode == 0, (
        f"{what} crashed under the {ceiling >> 20} MiB RLIMIT_DATA ceiling:\n"
        f"{proc.stderr[-2000:]}"
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _run_quick_workload_under_ceiling(index: int, ceiling: int) -> dict:
    return _run_under_ceiling(
        _CEILING_SCRIPT, ceiling, index, f"quick workload {index}"
    )


def test_scale_smoke_under_memory_ceiling(profile):
    meta = _run_quick_workload_under_ceiling(0, BROADCAST_CEILING_BYTES)
    assert meta["n"] == 100_000
    assert meta["layout"] == "dense"
    assert 0 < meta["peak_state_bytes"] < 1 << 20


def test_streamed_all_to_all_smoke_under_memory_ceiling(profile):
    meta = _run_quick_workload_under_ceiling(1, MEMORY_CEILING_BYTES)
    assert meta["n"] == 100_000
    assert meta["layout"] == "chunked"
    # One rumor-block slice resident, inside the workload's budget —
    # where the dense n x n bitset alone would need 1.25 GB.
    assert 0 < meta["peak_state_bytes"] <= meta["max_state_bytes"]
    assert meta["blocks"] > 1


def test_scale_broadcast_stream_oracle():
    """The n=10^5 broadcast's rng streams against real ``random.Random``s.

    The vector engine draws a random cohort's partners from word windows
    computed from the seed strings (``repro.sim.streams``).  Here 64
    nodes sampled by seed, plus the eight that consumed the most words
    (the closest to a window refill; at this size none refills, the
    longest stream uses 121 of 128 words — ``tests/test_streams.py``
    covers refills), are replayed
    with a fresh ``random.Random(key)`` calling ``choice`` over the
    repr-sorted neighbours once per round, as the scalar protocol does,
    and must end in the state each node's protocol reports (built on
    demand from the declared cohort, its handle linked to the node's
    window row).
    """
    graph = _vector_bench_graph(100_000, 8.0, 8)
    nodes = graph.nodes()
    state = VectorState(nodes)
    state.add_rumor(nodes[0], "r")
    engine = VectorEngine(graph, PushPullProtocol.cohort(0), state=state)
    engine.run(until=broadcast_complete("r"), max_rounds=10_000)
    handles = [engine.protocol(node)._rng for node in nodes]
    consumed = sorted(range(len(nodes)), key=lambda i: handles[i].position())
    picked = random.Random(20).sample(range(len(nodes)), 64) + consumed[-8:]
    for i in picked:
        node = nodes[i]
        neighbors = sorted(graph.neighbors(node), key=repr)
        replay = random.Random(f"0:{node!r}")
        for _ in range(engine.round if neighbors else 0):
            replay.choice(neighbors)
        assert replay.getstate() == handles[i].getstate(), node


def test_mega_graph_substrate_under_memory_ceiling():
    n = 1_000_000
    meta = _run_under_ceiling(
        _SUBSTRATE_SCRIPT, SUBSTRATE_CEILING_BYTES, n, "the n=10^6 graph substrate"
    )
    assert meta["n"] == n
    # Backbone path plus ~4·10^6 sampled pairs.
    assert 4 * n < meta["edges"] < 6 * n
    assert meta["slots"] == 2 * meta["edges"]
    # The vector engine's tables come from the graph's arrays alone.
    assert not meta["dict_built"]
    assert meta["peak_rss_bytes"] < SUBSTRATE_CEILING_BYTES
