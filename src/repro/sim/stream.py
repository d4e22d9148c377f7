"""Streamed all-to-all dissemination: replay one schedule over rumor blocks.

All-to-all at ``n = 10^6`` needs ``n^2 = 10^12`` bits of rumor state —
~125 GB as a dense bitset, far past any single-allocation budget.  But the
protocols this module accepts are **oblivious and ungated**: who contacts
whom in round ``t`` is a pure function of the per-node RNG streams and the
round number, never of the rumor state.  That makes the run separable by
*rumor*:

1. **Record the contact schedule once.**  A selection-only
   :class:`~repro.sim.vector.VectorEngine` draws each round's
   ``(initiator, responder, latency)`` arrays without simulating any
   deliveries (the draws consume the RNG streams exactly like a real
   run), extended lazily to whatever round the replay needs.
2. **Replay the schedule per rumor block.**  The rumor universe is split
   into blocks of ``B`` rumors sized to the state-memory budget; each
   block replays the same schedule over a word matrix holding only its
   own ``n x B`` bit slice, through the vector engine's own delivery
   stage (payload rows snapshotted at initiation, OR-merged at
   delivery).
3. **Combine.**  Knowledge is a monotone OR, so the full run's state at
   any round is exactly the disjoint union of the block states, and the
   completion round of the monolithic run is the max over blocks.  The
   exchange count is read off the schedule alone.

The returned :class:`~repro.sim.metrics.DisseminationResult` is therefore
**bit-identical** (``==``) to ``run_push_pull(graph, mode="all_to_all",
backend="vector")`` on the same seed — while peak memory stays at one
block slice plus its in-flight payloads instead of the full matrix.

The block loop runs the array round's delivery stage
(:class:`~repro.sim.vector._DeliveryStage`) over one column slice, so
it takes the stage's exact skips: a row holding all ``B`` block rumors
never changes again, so deliveries into it are dropped and its own
payload travels as the shared full-row marker instead of a gather; a row
still *empty* for the block carries nothing, so its payloads are dropped
before the gather.  Late rounds, where most rows are saturated, and
early ones, where a block's rumors have reached few rows, are nearly
free.  The stage's per-row rumor counts also give the completion test:
a block completes exactly when every row is saturated.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Optional

import numpy as np

from repro.errors import SimulationError
from repro.graphs.latency_graph import LatencyGraph
from repro.obs.metrics import default_registry
from repro.obs.telemetry import PhaseTiming
from repro.sim.metrics import DisseminationResult
from repro.sim.state import VectorState
from repro.sim.vector import VectorEngine, _DeliveryStage

__all__ = ["StreamReport", "run_streamed_all_to_all"]


@dataclasses.dataclass(frozen=True)
class StreamReport:
    """Outcome of one streamed all-to-all run.

    ``result`` compares equal to the monolithic vector-backend run of the
    same seed; the remaining fields describe the streaming itself.
    ``phases`` holds one :class:`~repro.obs.telemetry.PhaseTiming` per
    rumor block (wall-clock ``seconds`` is noise by definition).
    """

    result: DisseminationResult
    blocks: int
    block_rumors: int
    schedule_rounds: int
    peak_state_bytes: int
    phases: tuple[PhaseTiming, ...] = dataclasses.field(
        default=(), compare=False
    )


class _RecordedSchedule:
    """The contact schedule of an oblivious run, drawn lazily per round.

    Wraps a :class:`VectorEngine` used *only* for partner selection: each
    recorded round calls ``_select_initiations()`` (consuming the per-node
    RNG streams exactly as a real round would) and advances ``round``
    without delivering anything.  Valid only for ungated programs — a
    gate reads the rumor state, which this engine never evolves.
    """

    def __init__(self, engine: VectorEngine) -> None:
        for cohort in engine._cohorts:
            if cohort["gate"] is not None:
                raise SimulationError(
                    "streamed all-to-all requires an ungated oblivious "
                    "protocol: a gate makes partner selection depend on "
                    "the rumor state, so the schedule cannot be replayed "
                    "per rumor block"
                )
        if engine.max_incoming_per_round is not None:
            raise SimulationError(
                "streamed all-to-all does not support an incoming cap"
            )
        self._engine = engine
        # Compact per-round copies: int32 endpoints (n < 2^31) and the
        # smallest latency dtype, so a 10^6-node, ~10^2-round schedule
        # stays around 10 bytes per (node, round).
        lat_dtype = np.int16 if engine.graph.max_latency() < 2**15 else np.int64
        self._lat_dtype = lat_dtype
        self._rounds: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self._sizes: list[int] = []

    def round(self, t: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(initiators, responders, latencies)`` of round ``t``, dense ids."""
        engine = self._engine
        while len(self._rounds) <= t:
            initiators, responders, latencies, _ = engine._select_initiations()
            engine.round += 1
            self._rounds.append(
                (
                    initiators.astype(np.int32),
                    responders.astype(np.int32),
                    latencies.astype(self._lat_dtype),
                )
            )
            self._sizes.append(int(initiators.shape[0]))
        return self._rounds[t]

    def exchanges_before(self, t: int) -> int:
        """Total initiations in rounds ``0 .. t-1`` (all are accepted)."""
        return sum(self._sizes[:t])


def _pick_block_rumors(
    n: int, max_latency: int, budget: int, requested: Optional[int]
) -> int:
    """Rumors per block: fit state plus worst-case in-flight payloads.

    A block's resident set is its ``n x B`` bit slice plus the payload
    rows in flight — every round gathers two rows per exchange (one per
    direction) that live until delivery, at most ``max_latency`` rounds,
    so the worst case is ``2 * n * max_latency`` extra row copies.
    """
    if requested is not None:
        if requested < 1:
            raise SimulationError(
                f"block_rumors must be >= 1, got {requested}"
            )
        return min(requested, n)
    per_bit = n * (1 + 2 * max(1, max_latency))  # bits resident per rumor
    block = int(budget * 8 // per_bit)
    block = max(64, block - block % 64)  # whole uint64 words
    return min(block, n)


def run_streamed_all_to_all(
    graph: LatencyGraph,
    seed: int = 0,
    max_rounds: int = 1_000_000,
    max_state_bytes: int = 1 << 30,
    block_rumors: Optional[int] = None,
) -> StreamReport:
    """Push--pull all-to-all dissemination, streamed over rumor blocks.

    Produces the *same* :class:`~repro.sim.metrics.DisseminationResult`
    as ``run_push_pull(graph, mode="all_to_all", seed=seed,
    backend="vector")`` — identical rounds, exchanges, and messages —
    while holding only one rumor block's state slice (plus its in-flight
    payload rows) resident at a time, so ``n = 10^6`` all-to-all runs in
    bounded memory where the monolithic dense matrix would need ~125 GB.

    The run is not invariant-checked, not even inside
    :func:`~repro.sim.invariants.checked`: its deliveries run in the
    block loop, outside any engine a checker could attach to.

    Parameters
    ----------
    graph:
        The network.
    seed:
        Per-node RNG seed, matching :func:`~repro.protocols.push_pull.
        run_push_pull`.
    max_rounds:
        Round budget, enforced per block like
        :func:`~repro.sim.runner.run_until_complete`.
    max_state_bytes:
        Memory budget steering the block size (a block's bit slice
        plus its in-flight payloads); at least 1 byte, 1 GiB by default.
    block_rumors:
        Explicit rumors-per-block override (tests use a tiny value to
        force multi-block streaming on small graphs).
    """
    from repro.protocols.push_pull import PushPullProtocol

    nodes = graph.nodes()
    n = len(nodes)
    if n == 0:
        raise SimulationError("streamed all-to-all needs a non-empty graph")
    if max_state_bytes < 1:
        raise SimulationError(
            f"max_state_bytes must be >= 1, got {max_state_bytes}"
        )
    block = _pick_block_rumors(n, graph.max_latency(), max_state_bytes, block_rumors)

    # Selection-only engine over an empty dense state: it never delivers,
    # only draws partners (identical RNG consumption to a monolithic run
    # of the same cohort).  No checker could see the blocks' deliveries,
    # so it takes none, even inside checked().
    recorder_engine = VectorEngine(
        graph,
        PushPullProtocol.cohort(seed),
        state=VectorState(nodes),
        checkers=(),
    )
    schedule = _RecordedSchedule(recorder_engine)

    registry = default_registry()
    phases: list[PhaseTiming] = []
    rounds = 0
    peak_state = 0
    for index, lo in enumerate(range(0, n, block)):
        hi = min(lo + block, n)
        started = time.perf_counter()
        # The block's n x B bit slice, rows in dense-id order: block rumor
        # j, node lo + j's own id, is bit j.
        rumors = hi - lo
        own = np.arange(rumors, dtype=np.int64)
        words = np.zeros((n, (rumors + 63) // 64), dtype=np.uint64)
        words[lo + own, own >> 6] = np.uint64(1) << (own & 63).astype(np.uint64)
        stage = _DeliveryStage(words, rumors)
        # The block completes when every row is saturated, checked before
        # each round like run_until_complete's predicate.
        block_rounds = 0
        while (stage.counts < rumors).any():
            if block_rounds >= max_rounds:
                raise SimulationError(
                    f"streamed all-to-all exceeded max_rounds={max_rounds} "
                    f"(block of {rumors} rumors, round={block_rounds})"
                )
            stage.deliver(block_rounds)
            stage.send(block_rounds, *schedule.round(block_rounds))
            block_rounds += 1
        peak_state = max(peak_state, words.nbytes)
        registry.gauge(
            "sim_state_bytes", "peak rumor-state storage bytes per layout"
        ).set_max(
            words.nbytes,
            layout="chunked",
            protocol="streamed-push-pull[all_to_all]",
        )
        phases.append(
            PhaseTiming(
                name=f"rumor block {index} [{lo}:{hi})",
                rounds=block_rounds,
                exchanges=schedule.exchanges_before(block_rounds),
                seconds=time.perf_counter() - started,
                backend="vector",
            )
        )
        rounds = max(rounds, block_rounds)
    registry.gauge(
        "sim_state_layout", "state layouts used, 1 per (layout, protocol)"
    ).set(1, layout="chunked", protocol="streamed-push-pull[all_to_all]")
    exchanges = schedule.exchanges_before(rounds)
    result = DisseminationResult(
        rounds=rounds,
        complete=True,
        exchanges=exchanges,
        messages=2 * exchanges,
        protocol="push-pull[all_to_all]",
    )
    return StreamReport(
        result=result,
        blocks=len(phases),
        block_rumors=block,
        schedule_rounds=len(schedule._rounds),
        peak_state_bytes=peak_state,
        phases=tuple(phases),
    )
