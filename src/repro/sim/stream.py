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
   own ``n x B`` bit slice (gather payload rows at initiation,
   OR-scatter them at delivery).
3. **Combine.**  Knowledge is a monotone OR, so the full run's state at
   any round is exactly the disjoint union of the block states, and the
   completion round of the monolithic run is the max over blocks.  The
   exchange count is read off the schedule alone.

The returned :class:`~repro.sim.metrics.DisseminationResult` is therefore
**bit-identical** (``==``) to ``run_push_pull(graph, mode="all_to_all",
backend="vector")`` on the same seed — while peak memory stays at one
block slice plus its in-flight payloads instead of the full matrix.

Saturation shortcut (bit-exact): once a node's row holds all ``B`` block
rumors it can never change again — deliveries into it are skipped, and
its outgoing payload is the shared all-ones row instead of a fresh
gather.  Late rounds, where most rows are saturated, become nearly free;
a block completes exactly when every row is saturated, which doubles as
the completion predicate without a full-state popcount pass per round.
Symmetrically, a row still *empty* for this block carries nothing, so
its outgoing payloads are dropped without a gather — early rounds, where
a block's rumors have reached only a few rows, are nearly free too.
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
from repro.sim.vector import (
    VectorEngine,
    VectorState,
    _merge_by_row,
    _popcount_rows,
    current_max_state_bytes,
)

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
        for program in engine._programs:
            if program.gate is not None:
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


class _BlockReplay:
    """One rumor block: the schedule replayed over an ``n x B`` bit slice.

    The replay owns its block's ``(n, words)`` uint64 matrix instead of
    going through a :class:`~repro.sim.vector.VectorState`: the state is
    private to the replay (no scalar consumer reads it mid-run), so the
    kernels' copy-on-write cache invalidation is dead weight, and fusing
    the duplicate-safe scatter with the saturation popcount lets the
    freshly merged rows be counted in place of a second gather.  Rows
    are in node order, so row index == the dense node id the schedule
    speaks, and block rumor ``j`` (node ``lo + j``'s own id) is bit
    ``j``.
    """

    #: Bucket-entry payload marker: "every source row was saturated, the
    #: payload is the all-ones row" (no gather was taken).
    _SATURATED = None

    def __init__(self, n: int, lo: int, hi: int) -> None:
        self.m = hi - lo
        self._words = np.zeros((n, (self.m + 63) // 64), dtype=np.uint64)
        own = np.arange(self.m, dtype=np.int64)
        self._words[lo + own, own >> 6] = np.uint64(1) << (own & 63).astype(
            np.uint64
        )
        popcounts = _popcount_rows(self._words)
        self._saturated = popcounts >= self.m
        self._nonzero = popcounts > 0
        self._full_row = None  # lazily: one copy of a saturated row

    @property
    def nbytes(self) -> int:
        """Resident bytes of the block's bit slice."""
        return int(self._words.nbytes)

    def _fill_full(self, rows: np.ndarray) -> None:
        """Set ``rows`` to the all-ones row (delivery from saturated sources)."""
        if self._full_row is None:
            donor = int(np.flatnonzero(self._saturated)[0])
            self._full_row = self._words[donor].copy()
        self._words[rows] = self._full_row
        self._saturated[rows] = True
        self._nonzero[rows] = True

    def _deliver(self, rows: np.ndarray, pack: np.ndarray) -> None:
        """OR payload rows into ``rows``, duplicate-safe, and mark any row
        that reached all ``m`` block rumors as saturated — counting the
        freshly merged rows instead of re-gathering the state."""
        targets, (merged,) = _merge_by_row(rows, (pack,))
        words = self._words
        updated = words[targets]
        np.bitwise_or(updated, merged, out=updated)
        words[targets] = updated
        self._nonzero[targets] = True
        now_full = _popcount_rows(updated) >= self.m
        if now_full.any():
            self._saturated[targets[now_full]] = True

    def run(self, schedule: _RecordedSchedule, max_rounds: int) -> int:
        """Replay until every row holds all ``m`` block rumors; the round
        count equals the monolithic engine's completion round restricted
        to this block's rumors (checked before each round, like
        :func:`~repro.sim.runner.run_until_complete`).
        """
        words = self._words
        saturated = self._saturated
        buckets: dict[int, list[tuple[np.ndarray, object]]] = {}
        rnd = 0
        while not saturated.all():
            if rnd >= max_rounds:
                raise SimulationError(
                    f"streamed all-to-all exceeded max_rounds={max_rounds} "
                    f"(block of {self.m} rumors, round={rnd})"
                )
            # Deliveries due this round (initiated at rnd - latency).
            for rows, pack in buckets.pop(rnd, ()):
                live = ~saturated[rows]
                if not live.any():
                    continue
                if pack is self._SATURATED:
                    self._fill_full(rows[live])
                    continue
                if not live.all():
                    rows = rows[live]
                    pack = pack[live]
                self._deliver(rows, pack)
            # Initiations: snapshot payload rows *after* this round's
            # deliveries (the engine's deliver-then-initiate order), one
            # bucket entry per direction and latency.
            initiators, responders, latencies = schedule.round(rnd)
            for latency in np.unique(latencies).tolist():
                pick = latencies == latency
                src = initiators[pick]
                dst = responders[pick]
                due = buckets.setdefault(rnd + int(latency), [])
                for a, b in ((src, dst), (dst, src)):
                    # Payload of a -> merged into b at delivery.  A zero
                    # source row carries nothing for this block and a
                    # saturated destination can never change, so either
                    # way the delivery ORs to a no-op: drop those pairs
                    # before paying for the gather.
                    keep = self._nonzero[a] & ~saturated[b]
                    if not keep.all():
                        if not keep.any():
                            continue
                        a, b = a[keep], b[keep]
                    sat = saturated[a]
                    if sat.all():
                        due.append((b, self._SATURATED))
                        continue
                    if sat.any():
                        due.append((b[sat], self._SATURATED))
                        a, b = a[~sat], b[~sat]
                    due.append((b, words[a]))
            rnd += 1
        return rnd


def run_streamed_all_to_all(
    graph: LatencyGraph,
    seed: int = 0,
    max_rounds: int = 1_000_000,
    max_state_bytes: Optional[int] = None,
    block_rumors: Optional[int] = None,
) -> StreamReport:
    """Push--pull all-to-all dissemination, streamed over rumor blocks.

    Produces the *same* :class:`~repro.sim.metrics.DisseminationResult`
    as ``run_push_pull(graph, mode="all_to_all", seed=seed,
    backend="vector")`` — identical rounds, exchanges, and messages —
    while holding only one rumor block's state slice (plus its in-flight
    payload rows) resident at a time, so ``n = 10^6`` all-to-all runs in
    bounded memory where the monolithic dense matrix would need ~125 GB.

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
        plus its in-flight payloads); ``None`` defers to the ambient
        :func:`~repro.sim.vector.state_budget` scope.
    block_rumors:
        Explicit rumors-per-block override (tests use a tiny value to
        force multi-block streaming on small graphs).
    """
    from repro.protocols.base import per_node_rng_factory
    from repro.protocols.push_pull import PushPullProtocol

    nodes = graph.nodes()
    n = len(nodes)
    if n == 0:
        raise SimulationError("streamed all-to-all needs a non-empty graph")
    budget = (
        max_state_bytes if max_state_bytes is not None else current_max_state_bytes()
    )
    block = _pick_block_rumors(n, graph.max_latency(), budget, block_rumors)

    make_rng = per_node_rng_factory(seed)
    # Selection-only engine over an empty dense state: its kernels never
    # run, only the cohort partner draws (identical RNG consumption to a
    # monolithic run of the same factory).
    recorder_engine = VectorEngine(
        graph,
        lambda node: PushPullProtocol(make_rng(node)),
        state=VectorState(nodes),
    )
    schedule = _RecordedSchedule(recorder_engine)

    registry = default_registry()
    phases: list[PhaseTiming] = []
    rounds = 0
    peak_state = 0
    for index, lo in enumerate(range(0, n, block)):
        hi = min(lo + block, n)
        started = time.perf_counter()
        replay = _BlockReplay(n, lo, hi)
        block_rounds = replay.run(schedule, max_rounds)
        peak_state = max(peak_state, replay.nbytes)
        registry.gauge(
            "sim_state_bytes", "peak rumor-state storage bytes per layout"
        ).set_max(
            replay.nbytes,
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
