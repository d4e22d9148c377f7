"""Vectorized engine backend: whole-round array ops for oblivious protocols.

The scalar :class:`~repro.sim.engine.Engine` walks every node with Python
calls each round, which caps experiments near ``n ≈ 10⁴``.  This module
provides a second backend, :class:`VectorEngine`, that advances an entire
round as a handful of numpy array operations:

* **State** is the one packed bitset
  (:class:`~repro.sim.state.VectorState`, see below), so
  merging all of a round's deliveries is one duplicate-safe segmented
  OR (:func:`_merge_by_row`) instead of per-exchange Python merges.
* **Partner selection** reads a CSR layout built from
  :meth:`~repro.graphs.latency_graph.LatencyGraph.csr_rows`, with
  neighbor slots ordered by ``repr`` — exactly the order the oblivious
  protocols sort their neighbor lists in — so the same per-node
  ``random.Random`` streams produce the same partners as the scalar run.
  An engine draws every random program's partners through one
  :class:`~repro.sim.streams.StreamWindow` (rows in dense-id order, one
  ``choose`` per round), so shared rngs keep the scalar order.  Its fresh
  :func:`~repro.protocols.base.per_node_rng_factory` handles
  (:class:`~repro.sim.streams.SeedStream`) build no ``Random`` at all:
  each node's picks come from a window of the 32-bit words its
  ``Random`` would return, computed in bulk from the seed strings, so a
  round's draw is a gather and a shift instead of a call per node.  Any
  other rng is a live row, drawn through its own ``_randbelow``.
  Protocols cycling a *custom* target list (RR Broadcast over spanner
  out-edges) declare it via :attr:`VectorProgram.targets` and get their
  own CSR built — and neighbor-validated — at engine construction.
* **Delivery** runs through one stage (:class:`_DeliveryStage`), shared
  with the streamed all-to-all's rumor blocks: in-flight payload rows
  keyed by their delivery round (latency slices of one round's
  initiations), mirroring the scalar engine's ``dict.pop`` bucket scheme
  at array granularity.  It keeps each state row's rumor count, and with
  it skips every delivery that would OR to a no-op: pairs from empty
  rows or into saturated rows (rows holding every interned rumor) are
  dropped, and a saturated row's payload is one shared full-row marker,
  not a gather.  A broadcast round therefore gathers no payload at all.
* **Metrics and coverage** come from array reductions: payload sizes from
  the stage's row counts, activated edges via a boolean edge-id array
  folded back into the canonical
  :class:`~repro.sim.metrics.EngineMetrics` set only when
  ``activated_edges`` is read, never for the counters.

State layout (the ``n = 10⁶`` memory story)
-------------------------------------------
:class:`~repro.sim.state.VectorState` stores one ``n × ceil(B/64)``
uint64 bitset matrix (``B`` = rumor-space size), ``n·⌈B/64⌉·8`` bytes,
grown by at least doubling its width in place (seeding every node's own
id widens it once, to the exact width); its layout label is the
constant ``"dense"``.  A
broadcast (one rumor) is the one-word case: ``8·n`` bytes.  An
all-to-all at ``n = 10⁶`` would need ~125 GB, so that run is the
streamed one (:mod:`repro.sim.stream`), which replays rumor blocks
sized to its own ``max_state_bytes`` budget.

Backend eligibility (see ``docs/MODEL.md`` §8): only **oblivious**
protocols — whose partner choice does not depend on delivered knowledge
beyond a fixed knows/not-knows gate and which take no per-delivery
actions — can be replayed as whole-round array ops.  Protocols declare
eligibility by returning a :class:`VectorProgram` from a
``vector_program()`` method; a protocol that locally terminates must
declare its fixed round budget via :attr:`VectorProgram.duration`;
anything else is refused (see below).  Push--pull, push, pull, flooding
and RR Broadcast are :class:`ObliviousProtocol` instances: the program
is their whole declaration, which :meth:`ObliviousProtocol.on_round`
runs one node at a time for the per-exchange engines and the array
round replays.  A run whose nodes share one program declares it once,
as an :class:`ObliviousCohort` (``PushPullProtocol.cohort(seed)``): the
engine then builds its arrays and its stream window from the
declaration and the seed keys alone, with no protocol, program, context
or rng per node, and builds a node's protocol only when
:meth:`VectorEngine.protocol` asks for it.
The one adaptive protocol replayed is ℓ-DTG (``kind="dtg"``): in a plain
run it is in lockstep, so it adapts only at iteration boundaries shared
by every node, and the engine replays it as a per-iteration plan
(:class:`_LDTGPlan`).  The plan and the per-node
:class:`~repro.protocols.dtg.LDTGProtocol` read one schedule, declared
here (``dtg_*``); the plan runs no member protocol, and
:meth:`VectorEngine.protocol` fills in the asked node's inspectable
state from its plan row.

Exactness contract: for the same graph, seeds, and engine options, a
``VectorEngine`` run is **field-identical** to the scalar ``Engine`` run —
same per-node knowledge each round, same ``EngineMetrics``, same
completion round.  The differential suite
(``tests/test_vector_differential``) and the golden-trace parity suite
enforce this.

One rule, :func:`vector_refusal`, says whether the array round can
replay a run, and the ``vector`` backend (:func:`vector_backend`) is the
one route: it asks the rule about one unstarted probe protocol and the
run's options.  A refused run — a protocol the array round cannot
replay (no program, ping-only, a delivery callback, adaptive
termination, an ℓ-DTG plan outside a plain run) or a per-exchange
feature it cannot replay in order (invariant checkers, a failure model,
``fresh_snapshots``, ``enforce_blocking``, or note boards carried in
from a previous phase) — goes to the scalar :class:`Engine` over a
:class:`VectorState`, so its event stream is the scalar backend's by
construction; that engine is labelled ``"scalar-fallback"`` and carries
the refusal.  Every other run gets a :class:`VectorEngine`, which only
runs the array round: plain, or with a recorder (the **batched
mirror**), which delivers rank by rank and emits the scalar event
stream; without it observation costs nothing.  A :class:`VectorEngine`
built directly asks the same rule about every node's protocol (one
probe for a declared cohort) and raises
:class:`~repro.errors.SimulationError` with its reason.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import itertools
import random
import weakref
from typing import Any, Callable, Hashable, Iterable, Iterator, Optional, Sequence

import numpy as np

from repro.errors import ProtocolError, SimulationError
from repro.graphs.latency_graph import LatencyGraph, Node
from repro.obs.events import (
    DeliveryEvent,
    InitiationEvent,
    RejectedInitiationEvent,
    RoundEvent,
    WakeupEvent,
)
from repro.obs.profile import span
from repro.obs.recorder import Recorder
from repro.sim import invariants as _invariants
from repro.sim.engine import Engine, NodeContext, NodeProtocol, ProtocolFactory
from repro.sim.failures import FailureModel
from repro.sim.invariants import InvariantChecker
from repro.sim.metrics import EngineMetrics
from repro.sim.programs import ProgramProtocol
from repro.sim.state import VectorState, _popcount_rows
from repro.sim.streams import SeedStream, StreamWindow, seed_key

__all__ = [
    "ObliviousCohort",
    "ObliviousProtocol",
    "VectorProgram",
    "VectorEngine",
    "ENGINE_BACKENDS",
    "current_engine_backend",
    "engine_backend",
    "resolve_engine_backend",
    "vector_backend",
    "vector_refusal",
]


def _merge_by_row(
    rows: np.ndarray, payload: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(targets, merged)``: the distinct ``rows`` and each target's
    ``payload`` rows OR-ed together — so one fancy ``|=`` applies every
    update (duplicate-safe).

    Plain fancy-index assignment (``bits[rows] |= payloads``) silently
    keeps only one update per duplicated row index; a round's deliveries
    routinely hit the same responder many times.  Duplicate-free calls
    (the common case under random partner selection) get their inputs
    back unchanged; otherwise duplicated segments are pre-merged rank by
    rank — the deepest pile-up on one row is small (Poisson in-degree),
    so a few bulk ``|=`` passes beat a segmented
    ``np.bitwise_or.reduceat``, which degenerates to per-segment loops.
    """
    if rows.shape[0] == 0:
        return rows, payload
    order = np.argsort(rows, kind="stable")
    sorted_rows = rows[order]
    starts = np.flatnonzero(np.r_[True, sorted_rows[1:] != sorted_rows[:-1]])
    if starts.shape[0] == rows.shape[0]:
        return rows, payload
    sizes = np.diff(np.r_[starts, sorted_rows.shape[0]])
    merged = payload[order[starts]]
    for rank in range(1, int(sizes.max())):
        deep = np.flatnonzero(sizes > rank)
        merged[deep] |= payload[order[starts[deep] + rank]]
    return sorted_rows[starts], merged


def _group_ranks(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(order, rank, sizes)``: the stable argsort of ``keys``, the rank
    of each sorted position within its run of equal keys (so the ``t``-th
    occurrence of a key, in ``keys`` order, has rank ``t``), and the runs'
    lengths."""
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    starts = np.flatnonzero(np.r_[True, sorted_keys[1:] != sorted_keys[:-1]])
    sizes = np.diff(np.r_[starts, sorted_keys.shape[0]])
    rank = np.arange(keys.shape[0], dtype=np.int64) - np.repeat(starts, sizes)
    return order, rank, sizes


def _fold_edges(
    active: np.ndarray, us: np.ndarray, vs: np.ndarray, nodes: list
) -> set:
    """The activated-edge set of an edge-id mask, as node-pair tuples."""
    hit = np.flatnonzero(active)
    return set(
        zip(
            map(nodes.__getitem__, us[hit].tolist()),
            map(nodes.__getitem__, vs[hit].tolist()),
        )
    )


def _spanned(name: str) -> Callable:
    """Run the decorated method under :class:`~repro.obs.profile.span` ``name``."""

    def decorate(method: Callable) -> Callable:
        @functools.wraps(method)
        def timed(*args: Any, **kwargs: Any) -> Any:
            with span(name):
                return method(*args, **kwargs)

        return timed

    return decorate


#: CSR layouts are pure functions of a graph revision, and engines are
#: routinely rebuilt over one memoized graph (benchmark repeats, seed
#: ladders), so the repr-sort and edge-id mapping are cached per graph.
#: Keyed by ``id(graph)`` (graphs are unhashable); a weakref callback
#: evicts the entry when the graph is collected, before its id can be
#: reused.
_CSR_CACHE: dict[int, tuple] = {}


def _repr_ranks(nodes: list) -> np.ndarray:
    """Each node's rank in ``repr`` order; nodes with equal reprs share one.

    Non-negative int labels (not ``bool``, below ``2**63``) are ranked in
    numpy: the repr of such an int is its decimal digits, so repr order is
    the order of the digits left-justified to 19 places, shorter first on
    a tie ("1" < "10" < "2").  Other labels sort their reprs in Python.
    """
    n = len(nodes)
    if all(type(node) is int and 0 <= node < 1 << 63 for node in nodes):
        values = np.fromiter(nodes, dtype=np.uint64, count=n)
        powers = np.array([10**k for k in range(20)], dtype=np.uint64)
        digits = np.maximum(np.searchsorted(powers, values, side="right"), 1)
        justified = values * powers[19 - digits]
        ranks = np.empty(n, dtype=np.int64)
        ranks[np.lexsort((digits, justified))] = np.arange(n, dtype=np.int64)
        return ranks
    reprs = [repr(node) for node in nodes]
    ranks = np.empty(n, dtype=np.int64)
    rank, previous = -1, None
    for i in sorted(range(n), key=reprs.__getitem__):
        if reprs[i] != previous:
            rank, previous = rank + 1, reprs[i]
        ranks[i] = rank
    return ranks


def _csr_arrays(graph: LatencyGraph) -> tuple:
    """``(deg, off, nbr, lat, eid)`` for ``graph``, cached.

    ``nbr`` holds each node's neighbors as dense ids in ``repr`` order —
    the order the oblivious protocols sort their neighbor lists in — so a
    slot index drawn from the same RNG stream lands on the same partner;
    neighbors with equal reprs keep their insertion order, as Python's
    stable sort does.  ``eid`` maps each CSR slot to its undirected edge
    id in :meth:`~repro.graphs.latency_graph.LatencyGraph.edge_arrays`
    order.
    """
    version = getattr(graph, "_version", None)
    key = id(graph)
    cached = _CSR_CACHE.get(key)
    if (
        cached is not None
        and version is not None
        and cached[0] == version
        and cached[1]() is graph
    ):
        return cached[2:]
    off, row_nbr, _ = graph.csr_rows()
    n = off.shape[0] - 1
    deg = np.diff(off)
    src = np.repeat(np.arange(n, dtype=np.int64), deg)
    # Rows are contiguous, so sorting on (row, rank) sorts within rows
    # and leaves every slot's source where it was.
    keys = src * max(n, 1) + _repr_ranks(graph.nodes())[row_nbr]
    nbr = row_nbr[np.argsort(keys, kind="stable")]
    eid, lat = _edge_ids(graph, src, nbr)
    arrays = (deg, off, nbr, lat, eid)
    if version is not None:
        try:
            ref = weakref.ref(
                graph, lambda _ref, key=key: _CSR_CACHE.pop(key, None)
            )
        except TypeError:  # pragma: no cover - non-weakref-able graph type
            pass
        else:
            _CSR_CACHE[key] = (version, ref) + arrays
    return arrays


def _edge_ids(
    graph: LatencyGraph, src: np.ndarray, dst: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Edge ids and latencies of the dense-id pairs ``(src[k], dst[k])``.

    Edge ids index :meth:`~repro.graphs.latency_graph.LatencyGraph.edge_arrays`.
    Raises :class:`~repro.errors.ProtocolError` naming the first pair
    that is not an edge (the scalar engine's contact-time error).
    """
    n = graph.num_nodes
    us, vs, edge_lats = graph.edge_arrays()
    keys = us * n + vs
    key_order = np.argsort(keys, kind="stable")
    sorted_keys = keys[key_order]
    want = np.minimum(src, dst) * n + np.maximum(src, dst)
    # Looking the pairs up in key order keeps the binary searches cache
    # local: on millions of pairs that is faster, sort included, than
    # searching them in the order given.
    want_order = np.argsort(want)
    sorted_want = want[want_order]
    pos = np.searchsorted(sorted_keys, sorted_want)
    found = pos < sorted_keys.shape[0]
    found[found] = sorted_keys[pos[found]] == sorted_want[found]
    if not found.all():
        bad = int(want_order[~found].min())
        raise ProtocolError(
            f"node {graph.node_at(int(src[bad]))!r} tried to contact "
            f"non-neighbor {graph.node_at(int(dst[bad]))!r}"
        )
    eid = np.empty_like(want)
    eid[want_order] = key_order[pos]
    return eid, edge_lats[eid]


# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True, slots=True)
class VectorProgram:
    """Declarative partner-selection rule an oblivious protocol exports.

    Attributes
    ----------
    kind:
        ``"random"`` — contact a uniform random neighbor (push--pull and
        its gated push/pull variants) — ``"round_robin"`` — cycle the
        repr-sorted neighbor list (flooding) or the explicit ``targets``
        list (RR Broadcast) deterministically — or ``"dtg"`` — the
        lockstep ℓ-DTG plan (Algorithm 5): at each iteration boundary
        (:func:`dtg_iteration_start`) the node stops once it knows the
        token (:func:`dtg_token`) of every fast neighbor, else links its
        first unheard one in :func:`dtg_fast_order`, then runs 4·i
        exchanges spaced ``period`` rounds apart over its linked list in
        :func:`dtg_link` order.  The engine replays a ``"dtg"`` program
        only in plain runs (see :func:`vector_refusal`).
    rng:
        For ``kind="random"``: the protocol's own per-node stream, a
        :class:`random.Random` or a :class:`~repro.sim.streams.SeedStream`
        handle (an :class:`ObliviousProtocol` holds it itself and puts it
        here in :meth:`~ObliviousProtocol.vector_program`, so its shared
        program carries none).  The backend consumes it exactly as
        ``Random.choice`` over the repr-sorted neighbor list would, so
        scalar and vector runs of the same seed pick the same partners
        and leave every stream in the same state.  On the array paths fresh handles
        are drawn from word windows and build no ``Random``, and any
        other rng is drawn live through its ``_randbelow``; reading a
        handle (``getstate()``, ``choice``, ...) at any time gives the
        ``Random`` as the scalar run would have left it.
    gate:
        ``None`` (always initiate) or ``("knows", rumor)`` /
        ``("not_knows", rumor)``: the node only initiates in rounds where
        the condition holds against the shared state.  Gated-out nodes
        consume no randomness, matching the scalar protocols which return
        early before touching their RNG.
    start:
        Initial round-robin offset, mirroring any counter the protocol
        advanced before the engine adopted it.
    targets:
        ``None`` (cycle the repr-sorted full neighbor list) or an
        explicit tuple of neighbor nodes to cycle instead — the directed
        spanner out-edges of RR Broadcast.  For ``kind="dtg"`` it is the
        node's fast-neighbor list (``None``: the graph neighbors over
        edges of latency at most ``period``, which needs
        ``latencies_known``).  ``"random"`` programs take no targets;
        every target must be a graph neighbor of the node (validated at
        engine construction, where the scalar engine would have raised on
        first contact).
    duration:
        ``None`` (the protocol never terminates locally — classic
        oblivious gossip) or the number of rounds the node initiates
        before parking, mirroring a fixed-budget ``is_done()``.  A
        protocol overriding ``is_done()`` must declare a duration to be
        vector-eligible; the engine is then all-done once every node's
        budget has elapsed, exactly like the scalar parking scheduler.
    period:
        For ``kind="dtg"``: the ``ℓ`` rounds every exchange step waits.
    tag:
        For ``kind="dtg"``: the run tag of the node's tokens — neighbor
        ``v``'s token is ``v`` itself when ``None``, else ``(tag, v)``.
    """

    kind: str
    rng: Optional[random.Random | SeedStream] = None
    gate: Optional[tuple[str, Hashable]] = None
    start: int = 0
    targets: Optional[tuple[Node, ...]] = None
    duration: Optional[int] = None
    period: Optional[int] = None
    tag: Optional[Hashable] = None


# The ℓ-DTG schedule (Algorithm 5): LDTGProtocol runs it one node at a
# time, _LDTGPlan replays it as array ops.
def dtg_fast_order(node: Node, fast: Iterable[Node]) -> list:
    """``node``'s fast neighbors in the order it links them: repr-sorted,
    rotated to start just past its own repr.

    "Link any new neighbor" is arbitrary in Algorithm 5, but if every
    node picked the globally smallest id they would all funnel through
    one accidental hub, hiding the binomial-tree dynamics the analysis
    (and Figure 4) is about.
    """
    fast = sorted(fast, key=repr)
    own = repr(node)
    pivot = next((k for k, v in enumerate(fast) if repr(v) > own), 0)
    return fast[pivot:] + fast[:pivot]


def dtg_token(tag: Optional[Hashable], node: Node) -> Hashable:
    """The token ``node`` seeds in a run tagged ``tag``: ``node`` itself,
    or ``(tag, node)``."""
    return node if tag is None else (tag, node)


def dtg_link(i: int, k: int) -> int:
    """The linked-list index (0-based) contacted at step ``k`` of
    iteration ``i``: PUSH ``j = i..1``, PULL ``j = 1..i``, PULL
    ``j = 1..i``, PUSH ``j = i..1``, for ``0 <= k < 4·i``."""
    if k < i:
        return i - 1 - k
    if k < 3 * i:
        return (k - i) % i
    return 4 * i - 1 - k


def dtg_iteration_start(ell: int, i: int) -> int:
    """The round iteration ``i`` (1-based) starts at in a lockstep run:
    ``2ℓ·i·(i−1)``, after ``4·j`` steps of ``ℓ`` rounds for each
    ``j < i``.  It is also when a node first contacts its ``i``-th link."""
    return 2 * ell * i * (i - 1)


def _check_oblivious(program: VectorProgram) -> None:
    """Raise :class:`~repro.errors.ProtocolError` unless
    :class:`ObliviousProtocol` can run ``program``."""
    if program.kind not in ("random", "round_robin"):
        raise ProtocolError(
            "ObliviousProtocol runs 'random' or 'round_robin' programs, "
            f"got {program.kind!r}"
        )
    if program.gate is not None and program.gate[0] not in ("knows", "not_knows"):
        raise ProtocolError(f"unknown gate {program.gate[0]!r}")
    if program.duration is not None and program.duration < 0:
        raise ProtocolError(f"duration must be >= 0, got {program.duration}")


class ObliviousProtocol(NodeProtocol):
    """A ``random`` or ``round_robin`` :class:`VectorProgram`, run one
    exchange at a time for the per-exchange engines.

    The program is the protocol's whole declaration: the array round
    replays it, and :meth:`on_round` runs it for one node.  A round first
    checks the gate (a gated-out node touches neither its rng nor its
    round-robin counter), then either picks ``rng.choice`` over the
    repr-sorted neighbor list or cycles that list (or ``targets``) from
    ``start``.  The list is built on first use.  :meth:`is_done` counts
    rounds against ``duration``.

    ``rng`` is the node's stream (``program.rng`` when omitted), so many
    nodes can share one rng-free program: the shipped protocols share one
    per class and gate (see :class:`ObliviousCohort`).
    """

    def __init__(self, program: VectorProgram, rng: Optional[Any] = None) -> None:
        _check_oblivious(program)
        self._program = program
        self._rng = program.rng if rng is None else rng
        self._targets: Optional[Sequence[Node]] = program.targets
        self._next = program.start
        self._rounds = 0

    def on_round(self, ctx: NodeContext) -> Optional[Node]:
        self._rounds += 1
        gate = self._program.gate
        if gate is not None and ctx.state.knows(ctx.node, gate[1]) != (
            gate[0] == "knows"
        ):
            return None
        targets = self._targets
        if targets is None:
            targets = self._targets = sorted(ctx.neighbors(), key=repr)
        if not targets:
            return None
        if self._program.kind == "random":
            return self._rng.choice(targets)
        target = targets[self._next % len(targets)]
        self._next += 1
        return target

    def is_done(self, ctx: NodeContext) -> bool:
        duration = self._program.duration
        return duration is not None and self._rounds >= duration

    def vector_program(self) -> VectorProgram:
        """The program with this node's rng, and with the round-robin
        offset and the budget left after the rounds this protocol already
        ran."""
        program = self._program
        changes: dict[str, Any] = {}
        if self._rng is not program.rng:
            changes["rng"] = self._rng
        if self._rounds:
            duration = program.duration
            changes["start"] = self._next
            changes["duration"] = (
                None if duration is None else max(duration - self._rounds, 0)
            )
        return dataclasses.replace(program, **changes) if changes else program


class ObliviousCohort:
    """A declared oblivious cohort: the protocol factory of a run in which
    every node runs one shared, rng-free program.

    Called with a node, it builds ``cls`` (an :class:`ObliviousProtocol`
    class) around ``program``, so every engine takes it as a factory.  A
    ``"random"`` program draws node ``v``'s stream from ``seed``: the fresh
    :class:`~repro.sim.streams.SeedStream` ``seed_key(seed, v)``, the
    stream :func:`~repro.protocols.base.per_node_rng_factory` gives it.  A
    ``"round_robin"`` program takes no seed.  The program cycles (or
    draws from) the graph neighbors, so it declares no ``targets``.

    :class:`VectorEngine` reads the declaration instead of calling it:
    it validates the class and program once and builds no per-node
    object, only the protocol :meth:`VectorEngine.protocol` asks for.
    ``cls.__init__`` is not run (the cohort binds ``program`` itself),
    and ``cls`` may not override ``setup``, which such a build never
    calls.
    """

    __slots__ = ("cls", "program", "seed")

    def __init__(
        self,
        cls: type,
        program: VectorProgram,
        seed: Optional[int] = None,
    ) -> None:
        if not (isinstance(cls, type) and issubclass(cls, ObliviousProtocol)):
            raise ProtocolError(
                f"a cohort runs an ObliviousProtocol class, got {cls!r}"
            )
        if cls.setup is not NodeProtocol.setup:
            raise ProtocolError(
                f"{cls.__name__} overrides setup(), which a declared cohort never calls"
            )
        _check_oblivious(program)
        if program.rng is not None or program.targets is not None:
            raise ProtocolError("a cohort's program carries no rng and no targets")
        if (program.kind == "random") != (seed is not None):
            raise ProtocolError(
                "a cohort seeds every stream of a 'random' program, and only of one"
            )
        self.cls = cls
        self.program = program
        self.seed = seed

    def __call__(self, node: Node) -> ObliviousProtocol:
        rng = None if self.seed is None else SeedStream(seed_key(self.seed, node))
        return self.build(rng)

    def build(self, rng: Optional[SeedStream]) -> ObliviousProtocol:
        """A node's protocol over ``rng``."""
        protocol = self.cls.__new__(self.cls)
        ObliviousProtocol.__init__(protocol, self.program, rng)
        return protocol


# ----------------------------------------------------------------------
# The one refusal rule.  The ``vector`` backend asks it about one probe
# protocol and routes a refused run to the scalar engine; a VectorEngine
# built directly asks it about every node's protocol and raises instead.
#: The ``on_deliver`` implementations the array round replays: none but
#: the default, except that an ℓ-DTG plan replays ProgramProtocol's own
#: latency bookkeeping (and its own termination rule).
_REPLAYED_ON_DELIVER = (NodeProtocol.on_deliver,)
_REPLAYED_ON_DELIVER_DTG = (NodeProtocol.on_deliver, ProgramProtocol.on_deliver)
#: The ``is_done`` implementations replayed without a declared duration:
#: the default, and ObliviousProtocol's count of its program's budget.
_REPLAYED_IS_DONE = (NodeProtocol.is_done, ObliviousProtocol.is_done)


def vector_refusal(
    protocols: Iterable[Any],
    state: Any = None,
    programs: Optional[list] = None,
    *,
    checkers: Optional[Sequence[InvariantChecker]] = None,
    recorder: Optional[Recorder] = None,
    failure_model: Optional[FailureModel] = None,
    max_incoming_per_round: Optional[int] = None,
    fresh_snapshots: bool = False,
    enforce_blocking: bool = False,
    **_: Any,
) -> Optional[tuple[str, str]]:
    """Why the array round cannot replay a run, as ``(slug, reason)`` — or
    ``None`` when it can.

    ``protocols`` are the instances to check: the ``vector`` backend's one
    unstarted probe, or every node's protocol of a :class:`VectorEngine`
    build, whose programs go to ``programs`` when given.  ``state`` and
    the engine options describe the run (``checkers=None`` is the
    ambient :func:`~repro.sim.invariants.checked` scope).  The protocol
    refusals come first — its class (no ``vector_program()``), its
    payload (ping-only), its program, and an ℓ-DTG plan in a run with
    anything that observes, perturbs or rejects single exchanges — then
    a per-exchange run: checkers, a failure model, ``fresh_snapshots``,
    ``enforce_blocking`` or inherited note boards, which no array round
    replays.  ``slug`` is the ``sim_phase_backend`` reason label.
    """
    dtg: Optional[type] = None
    for protocol in protocols:
        cls = type(protocol)
        if getattr(cls, "vector_program", None) is None:
            return "no-vector-program", (
                f"protocol {cls.__name__} is not vector-backend "
                "eligible: it declares no vector_program() (only oblivious "
                "protocols can run on the vector backend; see docs/MODEL.md §8)"
            )
        if not getattr(protocol, "sends_payload", True):
            return "ping-only", (
                f"protocol {cls.__name__} is ping-only "
                "(sends_payload=False); the vector backend only ships rumor "
                "payloads"
            )
        program = protocol.vector_program()
        if programs is not None:
            programs.append(program)
        name = cls.__name__
        if not isinstance(program, VectorProgram):
            return "ineligible", (
                f"{name}.vector_program() must return a VectorProgram, got "
                f"{type(program).__name__}"
            )
        kind = program.kind
        if kind not in ("random", "round_robin", "dtg"):
            return "ineligible", f"unknown vector program kind {kind!r} from {name}"
        replayed = _REPLAYED_ON_DELIVER_DTG if kind == "dtg" else _REPLAYED_ON_DELIVER
        if cls.on_deliver not in replayed:
            return "on-deliver-callback", (
                f"protocol {name} overrides on_deliver(); the vector backend "
                "cannot replay per-delivery protocol callbacks"
            )
        if kind == "dtg":
            if program.rng is not None:
                return "dtg-random-selection", (
                    f"protocol {name} links neighbors at random "
                    "(selection='random'); only the deterministic rotated "
                    "order replays as a vector ℓ-DTG plan"
                )
            if program.period is None or program.period < 1:
                return "ineligible", f"{name} declares kind='dtg' without a period >= 1"
            if program.gate is not None or program.duration is not None:
                return "ineligible", (
                    f"{name} declares kind='dtg' with a gate or a duration"
                )
            dtg = dtg or cls
            continue
        if kind == "random" and program.rng is None:
            return "ineligible", f"{name} declares kind='random' but carries no rng"
        if program.gate is not None and program.gate[0] not in ("knows", "not_knows"):
            return "ineligible", (
                f"unknown vector program gate {program.gate[0]!r} from {name}"
            )
        if program.targets is not None and kind != "round_robin":
            return "ineligible", (
                f"{name} declares custom targets with kind={kind!r}; "
                "only round_robin programs cycle an explicit target list"
            )
        if program.duration is not None and program.duration < 0:
            return "ineligible", (
                f"{name} declares a negative duration ({program.duration})"
            )
        if cls.is_done not in _REPLAYED_IS_DONE and program.duration is None:
            return "adaptive-termination", (
                f"protocol {name} overrides is_done() but its VectorProgram "
                "declares no duration; only fixed-round-budget termination "
                "can be replayed by the vector backend (see docs/MODEL.md §8)"
            )
    checked = _invariants.checking_enabled() if checkers is None else checkers
    blockers = [
        label
        for label, present in (
            ("invariant checkers", bool(checked)),
            ("a recorder", recorder is not None),
            ("a failure model", failure_model is not None),
            ("fresh snapshots", fresh_snapshots),
            ("blocking enforcement", enforce_blocking),
            ("note boards", state is not None and any(state._notes)),
            ("an incoming cap", max_incoming_per_round is not None),
        )
        if present
    ]
    if dtg is not None and blockers:
        # The plan relies on lockstep: every exchange of iteration i
        # delivers before iteration i + 1 starts.
        return "dtg-plan-run", (
            f"protocol {dtg.__name__} runs an adaptive ℓ-DTG "
            "plan, which the vector backend replays only in plain runs "
            f"(this run has {', '.join(blockers)}; see docs/MODEL.md §8)"
        )
    # The array round replays a recorder (the batched mirror) and a cap.
    per_exchange = [
        label for label in blockers if label not in ("a recorder", "an incoming cap")
    ]
    if per_exchange:
        return "per-exchange-run", (
            f"per-exchange run ({', '.join(per_exchange)}), which the vector "
            "backend hands to the scalar Engine (resolve_engine_backend)"
        )
    return None


# ----------------------------------------------------------------------
class _DeliveryStage:
    """The array round's in-flight exchanges, merged at their delivery round.

    The stage works on one uint64 bit matrix ``words`` — a
    :class:`VectorState`'s matrix, or one rumor block of a streamed run —
    whose set bits are all among its first ``rumors`` bits, and keeps
    ``counts``, each row's popcount, exact through every merge.  A row
    whose count reaches ``rumors`` is *saturated*: knowledge only grows,
    so it never changes again.  Three skips follow, each exact because
    the skipped delivery would OR to a no-op:

    * :meth:`send` drops a pair whose source row is empty or whose target
      row is saturated, before paying for a gather;
    * a saturated source travels as the shared full-row marker (``None``
      in place of a pack), not as a gathered copy;
    * :meth:`deliver` skips target rows that saturated since the send.

    ``due`` maps a delivery round to its entries ``(rows, pack, sent)``:
    the target rows, the payload pack (an array of gathered rows; pack
    row ``k`` merges into ``rows[k]``) or the full-row marker, and the round
    the exchanges were initiated in.  Each entry owns its arrays, so a
    delivered entry frees its bytes at once instead of pinning a
    round-wide gather until the slowest latency is due.  ``invalidate``
    is called with every row set a delivery changed.

    The stage holds ``words`` itself, so a :class:`VectorState` that
    grows after the stage is built leaves it with a stale matrix; the
    owning :class:`VectorEngine` raises before its next step then.
    """

    def __init__(
        self,
        words: np.ndarray,
        rumors: int,
        invalidate: Optional[Callable[[np.ndarray], None]] = None,
    ) -> None:
        self.words = words
        self.rumors = rumors
        self.counts = _popcount_rows(words)
        self.due: dict[
            int, list[tuple[np.ndarray, Optional[np.ndarray], int]]
        ] = {}
        self._exchanges: dict[int, int] = {}
        self._invalidate = invalidate
        self._full: Optional[np.ndarray] = None

    def _count_due(self, rnd: int, latencies: np.ndarray) -> list[int]:
        """Count every exchange sent in round ``rnd`` as due in round
        ``rnd + latency``; returns the distinct latencies, increasing."""
        distinct, sizes = np.unique(latencies, return_counts=True)
        distinct = distinct.tolist()
        for latency, size in zip(distinct, sizes.tolist()):
            due = rnd + latency
            self._exchanges[due] = self._exchanges.get(due, 0) + size
        return distinct

    def send(
        self,
        rnd: int,
        initiators: np.ndarray,
        responders: np.ndarray,
        latencies: np.ndarray,
    ) -> None:
        """Queue both payloads of each exchange initiated in round ``rnd``
        (row ``initiators[k]`` with row ``responders[k]``, delivered at
        ``rnd + latencies[k]``), snapshotting the rows now."""
        self._count_due(rnd, latencies)
        counts = self.counts
        rumors = self.rumors
        # Skips first, then one stable sort of the kept pairs by (latency,
        # partial sender): a due round's entries are forward full, forward
        # partial, backward full, backward partial, each in initiation order.
        for src, dst in ((initiators, responders), (responders, initiators)):
            held = counts[src]
            keep = np.flatnonzero((held > 0) & (counts[dst] < rumors))
            if not keep.shape[0]:
                continue
            src, dst = src[keep], dst[keep]
            keys = 2 * latencies[keep] + (held[keep] < rumors)
            order = np.argsort(keys, kind="stable")
            keys = keys[order]
            cuts = (np.flatnonzero(keys[1:] != keys[:-1]) + 1).tolist()
            for lo, hi in zip([0] + cuts, cuts + [keys.shape[0]]):
                key = int(keys[lo])
                pick = order[lo:hi]
                pack = self.words[src[pick]] if key & 1 else None
                self.due.setdefault(rnd + (key >> 1), []).append((dst[pick], pack, rnd))

    def send_all(
        self,
        rnd: int,
        initiators: np.ndarray,
        responders: np.ndarray,
        latencies: np.ndarray,
    ) -> None:
        """:meth:`send` without skips, for a caller that reports every
        delivery: one entry per latency, whose rows are
        ``[responders; initiators]`` and whose pack is a copy of
        ``[initiators; responders]``."""
        for latency in self._count_due(rnd, latencies):
            pick = latencies == latency
            a, b = initiators[pick], responders[pick]
            pack = self.words[np.concatenate((a, b))]
            self.due.setdefault(rnd + latency, []).append(
                (np.concatenate((b, a)), pack, rnd)
            )

    def take(self, rnd: int) -> tuple[int, list]:
        """``(exchanges, entries)`` due in round ``rnd``, removed."""
        return self._exchanges.pop(rnd, 0), self.due.pop(rnd, [])

    @_spanned("vector.deliver")
    def deliver(self, rnd: int) -> int:
        """Merge everything due in round ``rnd``; returns the number of
        exchanges delivered."""
        exchanges, entries = self.take(rnd)
        counts = self.counts
        for rows, pack, _ in entries:
            live = counts[rows] < self.rumors
            if not live.all():
                rows = rows[live]
                if not rows.shape[0]:
                    continue
                if pack is not None:
                    pack = pack[live]
            if pack is None:
                self._fill(rows)
            else:
                self.merge(rows, pack)
        return exchanges

    def merge(self, rows: np.ndarray, pack: np.ndarray) -> None:
        """OR pack row ``k`` into row ``rows[k]`` (duplicate-safe) and
        recount the merged rows."""
        targets, merged = _merge_by_row(rows, pack)
        now = self.words[targets]
        now |= merged
        self.words[targets] = now
        self.counts[targets] = _popcount_rows(now)
        if self._invalidate is not None:
            self._invalidate(targets)

    def _fill(self, rows: np.ndarray) -> None:
        """Set ``rows`` to the full row (a marker's delivery)."""
        if self._full is None:
            # The marker was sent from a saturated row, so the largest
            # count is one.
            self._full = self.words[int(np.argmax(self.counts))].copy()
        self.words[rows] = self._full
        self.counts[rows] = self.rumors
        if self._invalidate is not None:
            self._invalidate(rows)


def _segment_slots(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``concat(arange(s, s + c) for s, c in zip(starts, counts))``."""
    total = int(counts.sum())
    shift = starts - np.cumsum(counts) + counts
    return np.repeat(shift, counts) + np.arange(total, dtype=np.int64)


class _LDTGPlan:
    """One ℓ-DTG selection cohort, replayed iteration by iteration.

    In a plain run ℓ-DTG is in lockstep: every member starts iteration
    ``i`` at :func:`dtg_iteration_start`.  At that boundary one column test
    on the rumor bitsets decides, for every member at once, whether it
    stops (it knows the token of every fast neighbor) or links its first
    unheard one.  Its ``4·i`` exchanges are then fixed: one every ``ℓ``
    rounds over the linked list, in :func:`dtg_link` order — the same
    column of the linked-slot matrix for every member.

    Slots are the members' fast lists flattened in member order, each in
    :func:`dtg_fast_order`; ``linked[p, j]`` is the slot member ``p``
    linked in iteration ``j + 1``.  The members' protocols never run:
    :meth:`read` sets what the scalar run would have left on one of them.
    """

    def __init__(
        self,
        engine: "VectorEngine",
        members: list[int],
        ell: int,
        programs: list[VectorProgram],
    ) -> None:
        self.ell = ell
        self.ids = np.asarray(members, dtype=np.int64)
        self.order = order = engine._order
        index = engine.state._space.index
        index_of = engine.graph.index_of
        owner: list[int] = []
        nbrs: list[int] = []
        bits: list[int] = []
        for p, (i, program) in enumerate(zip(members, programs)):
            node = order[i]
            if program.targets is not None:
                fast = program.targets
            else:
                if not engine.latencies_known:
                    raise ProtocolError("edge latencies are unknown in this model")
                fast = (
                    v
                    for v, latency in engine.graph.neighbor_latencies(node).items()
                    if latency <= ell
                )
            tag = program.tag
            for v in dtg_fast_order(node, fast):
                try:
                    nbrs.append(index_of(v))
                except Exception:
                    raise ProtocolError(
                        f"node {node!r} tried to contact non-neighbor {v!r}"
                    ) from None
                owner.append(p)
                bits.append(index.get(dtg_token(tag, v), -1))
        m = len(members)
        self.owner = np.asarray(owner, dtype=np.int64)
        self.nbr = np.asarray(nbrs, dtype=np.int64)
        self.bits = np.asarray(bits, dtype=np.int64)
        self.eid, self.lat = _edge_ids(engine.graph, self.ids[self.owner], self.nbr)
        self.rows = engine._row_of[self.ids[self.owner]]
        self.deg = np.bincount(self.owner, minlength=m)
        self.off = np.zeros(m + 1, dtype=np.int64)
        np.cumsum(self.deg, out=self.off[1:])
        self.linked = np.zeros((m, max(1, int(self.deg.max(initial=0)))), dtype=np.int64)
        #: Links per member so far — its ``iterations_used``.
        self.count = np.zeros(m, dtype=np.int64)
        #: Member positions still running; every member until round 0.
        self.active = np.arange(m, dtype=np.int64)
        self.iteration = 0
        self.start = 0
        self.next_boundary = 0

    def select(self, rnd: int, state: VectorState) -> Optional[tuple]:
        """This round's ``(initiators, responders, latencies, edge_ids)``
        from the cohort, or ``None`` when it initiates nothing."""
        if rnd == self.next_boundary:
            self._boundary(rnd, state)
        if not self.active.shape[0]:
            return None
        step, offset = divmod(rnd - self.start, self.ell)
        if offset:
            return None
        slots = self.linked[self.active, dtg_link(self.iteration, step)]
        return self.ids[self.active], self.nbr[slots], self.lat[slots], self.eid[slots]

    def _boundary(self, rnd: int, state: VectorState) -> None:
        """Iteration boundary: stop or link, for every active member."""
        active = self.active
        slots = _segment_slots(self.off[active], self.deg[active])
        known = state._k_knows_pairs(self.rows[slots], self.bits[slots])
        unheard = slots[~known]
        # Slots are grouped by member, so each member's first unheard slot
        # starts a run of equal owners.
        first = np.ones(unheard.shape[0], dtype=bool)
        first[1:] = self.owner[unheard[1:]] != self.owner[unheard[:-1]]
        going = self.owner[unheard[first]]
        self.active = going
        if not going.shape[0]:
            return
        i = self.iteration
        if i:
            # Lockstep invariant: every linked neighbor was heard from
            # during the iteration that linked it.  A missing token means
            # an exchange outran its ℓ-round step, and the scalar protocol
            # would re-walk its linked list instead of linking a new one.
            heard = np.zeros(self.nbr.shape[0], dtype=bool)
            heard[slots[known]] = True
            missing = ~heard[self.linked[going, :i]]
            if missing.any():
                p, j = (int(x[0]) for x in np.nonzero(missing))
                slot = int(self.linked[going[p], j])
                order = self.order
                raise SimulationError(
                    f"ℓ-DTG lockstep broken at round {rnd}: node "
                    f"{order[int(self.ids[going[p]])]!r} has not heard from "
                    f"its linked neighbor {order[int(self.nbr[slot])]!r} "
                    f"(an edge slower than ℓ={self.ell} in its fast list?)"
                )
        self.linked[going, i] = unheard[first]
        self.count[going] = i + 1
        self.iteration = i + 1
        self.start = rnd
        self.next_boundary = dtg_iteration_start(self.ell, i + 2)

    def read(self, i: int, protocol: NodeProtocol, rnd: int) -> None:
        """Set member ``i``'s ``iterations_used``, ``measured_latencies``
        and done flag on ``protocol`` as the scalar run leaves them after
        ``rnd`` rounds; a node outside the plan is left alone.

        Its ``j``-th link is first contacted when iteration ``j`` starts;
        that exchange's delivery, if it has happened, recorded the edge
        latency — in delivery order, ties by initiation.
        """
        p = int(np.searchsorted(self.ids, i))
        if p == self.ids.shape[0] or self.ids[p] != i:
            return
        count = int(self.count[p])
        protocol.iterations_used = count
        protocol._finished = not (self.active == p).any()
        heard = []
        for j, slot in enumerate(self.linked[p, :count].tolist(), start=1):
            sent = dtg_iteration_start(self.ell, j)
            latency = int(self.lat[slot])
            if sent + latency < rnd:
                heard.append((sent + latency, sent, int(self.nbr[slot]), latency))
        heard.sort()
        order = self.order
        protocol.measured_latencies = {order[v]: latency for _, _, v, latency in heard}


def _vector_state(graph: LatencyGraph, state: Any) -> VectorState:
    """The state a ``vector``-backend run mutates: ``state`` itself, or a
    fresh one."""
    if state is None:
        return VectorState(graph.nodes())
    if isinstance(state, VectorState):
        return state
    raise SimulationError(
        f"the vector backend needs a VectorState, got {type(state).__name__}"
    )


class VectorEngine(Engine):
    """Array-ops drop-in for :class:`~repro.sim.engine.Engine`.

    Accepts the same constructor arguments and exposes the same run-facing
    surface, but requires every protocol instance to export a
    :class:`VectorProgram` (oblivious protocols only — see module
    docstring; an :class:`ObliviousCohort` factory is read as a
    declaration and builds no protocol until :meth:`protocol` asks) and
    only runs the array round: plain runs take the fast
    path and a run whose only observer is a recorder takes the batched
    mirror.  Any run :func:`vector_refusal` refuses — for a node's
    protocol or for a per-exchange option (checkers, a failure model,
    ``fresh_snapshots``, ``enforce_blocking``, inherited note boards) —
    raises :class:`~repro.errors.SimulationError` with the refusal's
    reason; :func:`vector_backend` sends such runs to the scalar engine
    instead.

    A running engine owns its state between steps: its delivery stage
    keeps every row's rumor count from the build on, so code outside the
    engine must not change the state until the run is over.  Interning a
    new rumor, the one change the round can detect, raises
    :class:`~repro.errors.SimulationError` at the next step.
    """

    backend = "vector"
    #: No checkers: the inherited ``finish_checks()`` has none to run.
    _checkers: tuple = ()

    @_spanned("vector.build")
    def __init__(
        self,
        graph: LatencyGraph,
        protocol_factory: ProtocolFactory,
        state: Optional[Any] = None,
        latencies_known: bool = False,
        fresh_snapshots: bool = False,
        failure_model: Optional[FailureModel] = None,
        max_incoming_per_round: Optional[int] = None,
        enforce_blocking: bool = False,
        checkers: Optional[Sequence[InvariantChecker]] = None,
        recorder: Optional[Recorder] = None,
    ) -> None:
        if max_incoming_per_round is not None and max_incoming_per_round < 1:
            raise SimulationError(
                f"max_incoming_per_round must be >= 1, got {max_incoming_per_round}"
            )
        self.graph = graph
        self.state = _vector_state(graph, state)
        self.latencies_known = latencies_known
        self.max_incoming_per_round = max_incoming_per_round
        self.recorder = recorder
        self.metrics = EngineMetrics()
        self.round = 0
        self._order = graph.nodes()
        n = graph.num_nodes
        try:
            self._row_of = np.fromiter(
                (self.state._node_index[node] for node in self._order),
                dtype=np.int64,
                count=n,
            )
        except KeyError as exc:
            raise SimulationError(
                f"state does not track graph node {exc.args[0]!r}"
            ) from None

        declared = (
            protocol_factory if isinstance(protocol_factory, ObliviousCohort) else None
        )
        #: A per-node factory's protocols, every node's; a declared cohort's,
        #: only those :meth:`protocol` was asked for.
        self._protocols: dict[Node, NodeProtocol] = {}
        self._declared = declared
        programs: Optional[list[VectorProgram]] = None
        if declared is not None:
            # One probe stands for every node: same class, same program.
            probes = [declared(self._order[0])] if n else []
        else:
            # Contexts serve setup() only: dropped, they leave no reference
            # cycle (unless a protocol keeps its ctx), so a finished engine
            # is freed by reference counting, not by the next full collection.
            contexts: dict[Node, NodeContext] = {}
            for node in self._order:
                self._protocols[node] = protocol_factory(node)
                contexts[node] = NodeContext(self, node)
            for node in self._order:
                self._protocols[node].setup(contexts[node])
            del contexts
            probes = self._protocols.values()
            programs = []
        refusal = vector_refusal(
            probes,
            self.state,
            programs,
            checkers=checkers,
            recorder=recorder,
            failure_model=failure_model,
            max_incoming_per_round=max_incoming_per_round,
            fresh_snapshots=fresh_snapshots,
            enforce_blocking=enforce_blocking,
        )
        if refusal is not None:
            slug, reason = refusal
            if slug == "per-exchange-run":
                reason = f"VectorEngine cannot take a {reason}"
            raise SimulationError(reason)
        #: A recorder takes the batched mirror: array deliveries, emitting
        #: the scalar event stream from the precomputed buckets.
        self._mirror = recorder is not None

        deg, off, nbr, lat, eid = _csr_arrays(graph)
        us, vs, _ = graph.edge_arrays()
        # The array round marks activated edges in this mask and drops the
        # metrics' set; reading ``activated_edges`` folds it back.
        self._edge_active = np.zeros(us.shape[0], dtype=bool)
        self.metrics._track_edges(
            functools.partial(_fold_edges, self._edge_active, us, vs, self._order)
        )

        # Selection cohorts: nodes sharing (kind, gate, duration, custom
        # targets?) advance together over one slot table; ℓ-DTG nodes
        # sharing ℓ advance together through one plan.  ``streams`` are
        # the random programs' rngs (or key strings), in dense-id order;
        # ``budgets`` every node's duration (-1: none), ``counted`` those
        # of the non-ℓ-DTG programs.
        custom = None
        plan_members: dict[int, list[int]] = {}
        if declared is not None:
            program = declared.program
            ids = np.flatnonzero(deg > 0)
            groups = (
                {(program.kind, program.gate, program.duration, False): ids}
                if ids.shape[0]
                else {}
            )
            drawn = ids if program.kind == "random" else ids[:0]
            order = self._order
            streams = [seed_key(declared.seed, order[i]) for i in drawn.tolist()]
            self._rr_next = np.full(n, program.start, dtype=np.int64)
            budget = -1 if program.duration is None else program.duration
            budgets = counted = np.full(n, budget, dtype=np.int64)
        else:
            custom = self._build_target_tables(n, programs)
            members: dict[tuple, list[int]] = {}
            drawn_ids: list[int] = []
            for i, program in enumerate(programs):
                if program.kind == "dtg":
                    plan_members.setdefault(program.period, []).append(i)
                    continue
                fan_out = (
                    len(program.targets) if program.targets is not None else deg[i]
                )
                if fan_out:
                    key = (
                        program.kind,
                        program.gate,
                        program.duration,
                        program.targets is not None,
                    )
                    members.setdefault(key, []).append(i)
                    if program.kind == "random":
                        drawn_ids.append(i)
            groups = {
                key: np.array(ids_list, dtype=np.int64)
                for key, ids_list in members.items()
            }
            drawn = np.asarray(drawn_ids, dtype=np.int64)
            streams = [programs[i].rng for i in drawn_ids]
            self._rr_next = np.fromiter(
                (program.start for program in programs), dtype=np.int64, count=n
            )
            budgets = np.fromiter(
                (-1 if p.duration is None else p.duration for p in programs),
                dtype=np.int64,
                count=n,
            )
            counted = budgets[
                np.fromiter((p.kind != "dtg" for p in programs), dtype=bool, count=n)
            ]
        # One StreamWindow for every random program, rows in dense-id order.
        self._window_ids = drawn
        self._window_degs = deg[drawn]
        self._window = StreamWindow(streams, self._window_degs.tolist())
        self._csr = (off, nbr, lat, eid)
        self._cohorts = []
        for (kind, gate, duration, is_custom), ids in groups.items():
            tdeg, toff, tnbr, tlat, teid = (
                custom if is_custom else (deg, off, nbr, lat, eid)
            )
            entry: dict[str, Any] = {
                "kind": kind,
                "gate": gate,
                "duration": duration,
                "ids": ids,
                "degs": tdeg[ids],
                "off": toff,
                "nbr": tnbr,
                "lat": tlat,
                "eid": teid,
            }
            if kind == "random":
                entry["rows"] = np.searchsorted(self._window_ids, ids)
            self._cohorts.append(entry)
        # ℓ-DTG members stop when their plan says so (see all_done), so
        # only the other programs' budgets count here — vacuously all of
        # them in an engine of ℓ-DTG members only.
        self._all_durations = bool((counted >= 0).all())
        self._max_duration = int(counted.max(initial=0))

        self._plans = [
            _LDTGPlan(self, members, ell, [programs[i] for i in members])
            for ell, members in plan_members.items()
        ]
        if self._mirror:
            # Done-node parking replayed as a pure function: a node whose
            # program declares duration d parks at round d's scan, so it is
            # parked during the delivery stage of round r iff r > d.
            # Indexed by state row, as the mirror's deliveries are.
            by_row = np.full(len(self.state._node_list), -1, dtype=np.int64)
            by_row[self._row_of] = budgets
            self._duration_list = by_row.tolist()
            parking = budgets[budgets >= 0]
            self._min_duration = int(parking.min()) if parking.shape[0] else None
        self._fingerprint = self._state_shape()
        # Built after every setup(), so its counts start from the state
        # the first round sees.
        self._stage = _DeliveryStage(
            self.state._words,
            len(self.state._space.tokens),
            self.state._invalidate_rows,
        )
        self._pending_count = 0
        self._last_pairs: Optional[tuple[np.ndarray, np.ndarray]] = None
        self._last_list: Optional[list[tuple[Node, Node]]] = []

    # ------------------------------------------------------------------
    def _build_target_tables(
        self, n: int, programs: list[VectorProgram]
    ) -> Optional[tuple]:
        """CSR-style slot tables for programs cycling explicit targets.

        Returns ``(deg, off, nbr, lat, eid)`` over all nodes (zero
        degree for nodes without custom targets), or ``None`` when no
        program declares targets.  Every target is validated to be a
        graph neighbor here — the scalar engine would raise
        :class:`~repro.errors.ProtocolError` on first contact; the
        vector backend front-loads that check to construction.
        """
        if not any(p.targets is not None and p.kind == "round_robin" for p in programs):
            return None
        index_of = self.graph.index_of
        tdeg = np.zeros(n, dtype=np.int64)
        flat: list[int] = []
        srcs: list[int] = []
        for i, program in enumerate(programs):
            if program.targets is None or program.kind != "round_robin":
                continue
            tdeg[i] = len(program.targets)
            for target in program.targets:
                try:
                    j = index_of(target)
                except Exception:
                    raise ProtocolError(
                        f"node {self._order[i]!r} tried to contact "
                        f"non-neighbor {target!r}"
                    ) from None
                flat.append(j)
                srcs.append(i)
        toff = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(tdeg, out=toff[1:])
        tnbr = np.asarray(flat, dtype=np.int64)
        teid, tlat = _edge_ids(self.graph, np.asarray(srcs, dtype=np.int64), tnbr)
        return tdeg, toff, tnbr, tlat, teid

    # -- Engine-compatible surface --------------------------------------
    @property
    def last_initiations(self) -> list[tuple[Node, Node]]:
        """This round's ``(initiator, responder)`` pairs (lazy on fast path)."""
        if self._last_list is None:
            node_at = self.graph.node_at
            initiators, responders = self._last_pairs
            self._last_list = [
                (node_at(a), node_at(b))
                for a, b in zip(initiators.tolist(), responders.tolist())
            ]
        return self._last_list

    def protocol(self, node: Node) -> NodeProtocol:
        """The protocol instance for ``node`` (for post-run inspection).

        A declared cohort's is built on the first ask (see
        :meth:`_declared_protocol`).  ℓ-DTG instances never run on this
        engine; the node's plan row fills in its inspectable state
        (``iterations_used``, ``measured_latencies``, done flag) as the
        scalar run of these rounds leaves it (:meth:`_LDTGPlan.read`).
        """
        protocol = self._protocols.get(node)
        if protocol is None:
            protocol = self._protocols[node] = self._declared_protocol(node)
        for plan in self._plans:
            plan.read(self.graph.index_of(node), protocol, self.round)
        return protocol

    def _declared_protocol(self, node: Node) -> NodeProtocol:
        """A declared cohort's protocol for ``node``, built when first asked
        for.  Its stream is a handle linked to the node's window row, so it
        reads as the scalar run leaves it: position, ``getstate()``, and
        materialising mid-run all behave as for a handle the factory built.
        """
        declared = self._declared
        if declared is None:
            raise KeyError(node)
        i = self.graph.index_of(node)
        rng = None
        if declared.seed is not None:
            row = int(np.searchsorted(self._window_ids, i))
            if row < self._window_ids.shape[0] and self._window_ids[row] == i:
                rng = self._window.handle(row)
            else:
                # Never drawn (no neighbor): still the fresh stream.
                rng = SeedStream(seed_key(declared.seed, node))
        return declared.build(rng)

    def all_done(self) -> bool:
        """Local-termination check.

        A protocol is done exactly when its declared ``duration`` has
        elapsed (programs without a duration never terminate) and an ℓ-DTG
        member once its plan stopped it.
        """
        if any(plan.active.shape[0] for plan in self._plans):
            return False
        return self._all_durations and self.round >= self._max_duration

    def step(self) -> None:
        """Execute one round: deliver due exchanges, then collect initiations.

        The fast and mirror paths run the same array round; the mirror
        (a recorder attached) delivers rank by rank to recover learned
        counts and emits the scalar engine's event stream — delivery and
        wakeup events in exchange order, then rejected and accepted
        initiations in the dense-id scan order, then the round summary.
        """
        self._check_fingerprint()
        if self._mirror:
            delivered = self._deliver_mirror()
        else:
            delivered = self._stage.deliver(self.round)
        self._pending_count -= delivered
        initiators, responders, latencies, edge_ids = self._select_initiations()
        accepted = self._apply_cap(initiators, responders)
        if self._mirror:
            self._emit_initiations(initiators, responders, latencies, accepted)
        if accepted is not None:
            initiators = initiators[accepted]
            responders = responders[accepted]
            latencies = latencies[accepted]
            edge_ids = edge_ids[accepted]
        self._last_pairs = (initiators, responders)
        self._last_list = None
        self._record_initiations(initiators, responders, latencies, edge_ids)
        if self._mirror:
            self.recorder.record(
                RoundEvent(
                    round=self.round,
                    initiations=int(initiators.shape[0]),
                    deliveries=delivered,
                    in_flight=self._pending_count,
                )
            )
        self.round += 1
        self.metrics.rounds = self.round

    # -- the array round: a handful of array ops -----------------------
    def _gate_passes(self, ids: np.ndarray, gate: tuple) -> np.ndarray:
        condition, rumor = gate
        knows = self.state._k_knows_column(self._row_of[ids], rumor)
        return ~knows if condition == "not_knows" else knows

    def _state_shape(self) -> tuple[int, int]:
        """The state's matrix width and interned-rumor count."""
        return self.state._words.shape[1], len(self.state._space.tokens)

    def _check_fingerprint(self) -> None:
        if self._state_shape() != self._fingerprint:
            raise SimulationError(
                "rumor space grew mid-run; the vector fast path assumes a "
                "fixed rumor universe (oblivious protocols never intern new "
                "rumors after setup, and a running engine owns its state "
                "between steps)"
            )

    @_spanned("vector.partner_draw")
    def _select_initiations(
        self,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """This round's pre-cap ``(initiators, responders, latencies,
        edge_ids)`` in dense-id initiation order (the scalar scan order).

        Partner selection runs cohort by cohort, but the random cohorts'
        initiating nodes share one draw.  Expired, gated-out, and degree-0
        nodes consume no randomness, exactly like the scalar scheduler
        (parked nodes never reach on_round).
        """
        chosen: list[tuple[np.ndarray, ...]] = []
        drawing: list[np.ndarray] = []
        for cohort in self._cohorts:
            duration = cohort["duration"]
            if duration is not None and self.round >= duration:
                continue
            ids = cohort["ids"]
            degs = cohort["degs"]
            take = None
            if cohort["gate"] is not None:
                passes = self._gate_passes(ids, cohort["gate"])
                if not passes.all():
                    take = np.flatnonzero(passes)
                    ids = ids[take]
                    degs = degs[take]
                if ids.shape[0] == 0:
                    continue
            if cohort["kind"] == "random":
                drawing.append(cohort["rows"] if take is None else cohort["rows"][take])
                continue
            # round_robin
            counters = self._rr_next[ids]
            slots = cohort["off"][ids] + counters % degs
            self._rr_next[ids] = counters + 1
            chosen.append(
                (
                    ids,
                    cohort["nbr"][slots],
                    cohort["lat"][slots],
                    cohort["eid"][slots],
                )
            )
        if drawing:
            # One choose() over every drawing row in dense-id order, the
            # scalar scan order, so an rng several cohorts share is
            # consumed as the scalar run consumes it.
            degs = self._window_degs
            if len(drawing) == 1 and drawing[0].shape[0] == degs.shape[0]:
                ids, picks = self._window_ids, self._window.choose(None, degs)
            else:
                rows = np.sort(np.concatenate(drawing))
                ids = self._window_ids[rows]
                picks = self._window.choose(rows, degs[rows])
            off, nbr, lat, eid = self._csr
            slots = off[ids] + picks
            chosen.append((ids, nbr[slots], lat[slots], eid[slots]))
        for plan in self._plans:
            picked = plan.select(self.round, self.state)
            if picked is not None:
                chosen.append(picked)

        if chosen:
            initiators = np.concatenate([c[0] for c in chosen])
            responders = np.concatenate([c[1] for c in chosen])
            latencies = np.concatenate([c[2] for c in chosen])
            edge_ids = np.concatenate([c[3] for c in chosen])
            if len(chosen) > 1:
                # Restore dense-id initiation order (the scalar scan order);
                # the in-degree cap is first-come-first-served in it.
                order = np.argsort(initiators, kind="stable")
                initiators = initiators[order]
                responders = responders[order]
                latencies = latencies[order]
                edge_ids = edge_ids[order]
        else:
            initiators = responders = np.zeros(0, dtype=np.int64)
            latencies = edge_ids = np.zeros(0, dtype=np.int64)
        return initiators, responders, latencies, edge_ids

    def _apply_cap(
        self, initiators: np.ndarray, responders: np.ndarray
    ) -> Optional[np.ndarray]:
        """In-degree cap over pre-cap arrays: an accept mask, or ``None``
        when nothing is rejected.  Counts rejections into the metrics.
        """
        cap = self.max_incoming_per_round
        if cap is None or not initiators.shape[0]:
            return None
        by_target, rank, _ = _group_ranks(responders)
        accepted = np.empty(responders.shape[0], dtype=bool)
        accepted[by_target] = rank < cap
        rejected = int(responders.shape[0] - int(accepted.sum()))
        if not rejected:
            return None
        self.metrics.rejected_initiations += rejected
        return accepted

    def _record_initiations(
        self,
        initiators: np.ndarray,
        responders: np.ndarray,
        latencies: np.ndarray,
        edge_ids: np.ndarray,
    ) -> None:
        """Account accepted initiations and send them to the delivery
        stage.  Payload sizes are the stage's row counts: every payload
        is a snapshot of its row taken now, after this round's deliveries.
        """
        count = int(initiators.shape[0])
        if not count:
            return
        metrics = self.metrics
        stage = self._stage
        initiator_rows = self._row_of[initiators]
        responder_rows = self._row_of[responders]
        sent = stage.counts[initiator_rows]
        received = stage.counts[responder_rows]
        metrics.rumor_tokens_sent += int(sent.sum() + received.sum())
        largest = int(max(sent.max(), received.max()))
        if largest > metrics.max_payload_rumors:
            metrics.max_payload_rumors = largest
        metrics.exchanges += count
        metrics.messages += 2 * count
        self._edge_active[edge_ids] = True
        metrics._edges_changed()
        self._pending_count += count
        # The mirror reports every delivery, so it sends without skips.
        send = stage.send_all if self._mirror else stage.send
        send(self.round, initiator_rows, responder_rows, latencies)

    # -- mirror path: the recorder's stages of the array round ---------
    def _emit_initiations(
        self,
        initiators: np.ndarray,
        responders: np.ndarray,
        latencies: np.ndarray,
        accepted: Optional[np.ndarray],
    ) -> None:
        """Record the round's pre-cap initiations in scan order: accepted
        ones as initiation events, capped ones as rejections."""
        record = self.recorder.record
        nodes = self._order
        rnd = self.round
        oks = itertools.repeat(True) if accepted is None else accepted.tolist()
        for a, b, lat, ok in zip(
            initiators.tolist(), responders.tolist(), latencies.tolist(), oks
        ):
            if ok:
                record(InitiationEvent(rnd, nodes[a], nodes[b], lat))
            else:
                record(RejectedInitiationEvent(rnd, nodes[a], nodes[b]))

    def _deliver_mirror(self) -> int:
        """Deliver the stage's due entries, emitting scalar-order delivery
        and wakeup events.  Returns the delivery count.

        Per-endpoint learned counts (``rumor_count`` delta around the
        endpoint's own merge) are recovered exactly despite the batched
        merges: the global scalar merge order within a delivery round is
        ``responder₀, initiator₀, responder₁, initiator₁, …``, so a
        stable argsort of that sequence groups merges by target row while
        preserving each row's merge order.  Applying one merge *rank* at
        a time (every rank's merges target distinct rows) lets the
        stage's row counts before and after each rank yield every merge's
        delta.
        """
        delivered, entries = self._stage.take(self.round)
        record = self.recorder.record
        stage = self._stage
        counts = stage.counts
        nodes = self.state._node_list
        durations = self._duration_list
        any_parked = (
            self._min_duration is not None and self._min_duration < self.round
        )
        r = self.round
        woken: set[int] = set()
        for rows, pack, initiated_at in entries:
            # Entry position k < m is responder k (merging initiator k's
            # payload), m + k is initiator k; interleaved, they are the
            # scalar merge sequence.
            m = rows.shape[0] // 2
            sequence = np.empty(2 * m, dtype=np.int64)
            sequence[0::2] = np.arange(m)
            sequence[1::2] = np.arange(m, 2 * m)
            order, rank, sizes = _group_ranks(rows[sequence])
            learned = np.empty(2 * m, dtype=np.int64)
            for t in range(int(sizes.max())):
                sel = sequence[order[rank == t]]
                target_rows = rows[sel]
                before = counts[target_rows]
                stage.merge(target_rows, pack[sel])
                learned[sel] = counts[target_rows] - before
            for a, b, learned_a, learned_b in zip(
                rows[m:].tolist(),
                rows[:m].tolist(),
                learned[m:].tolist(),
                learned[:m].tolist(),
            ):
                record(
                    DeliveryEvent(
                        r,
                        nodes[a],
                        nodes[b],
                        initiated_at,
                        False,
                        True,
                        learned_a,
                        learned_b,
                    )
                )
                if any_parked:
                    # Scalar parking replay: a node with duration d is
                    # parked during round r's deliveries iff r > d, and
                    # wakes at most once per round (initiator endpoint
                    # first).
                    for x in (a, b):
                        d = durations[x]
                        if 0 <= d < r and x not in woken:
                            woken.add(x)
                            record(WakeupEvent(r, nodes[x]))
        return delivered


# ----------------------------------------------------------------------
# Backend registry and selection scope.
def vector_backend(
    graph: LatencyGraph,
    protocol_factory: ProtocolFactory,
    state: Optional[Any] = None,
    **options: Any,
) -> Engine:
    """The ``vector`` backend, the one route to an engine (takes
    :class:`Engine`'s arguments).

    :func:`vector_refusal` is asked about one unstarted probe protocol and
    the run.  A refused run gets the scalar :class:`Engine` over a
    :class:`VectorState`, labelled ``"scalar-fallback"`` and carrying its
    refusal; any other run gets a :class:`VectorEngine`.
    """
    state = _vector_state(graph, state)
    probe = [protocol_factory(graph.node_at(0))] if graph.num_nodes else []
    refusal = vector_refusal(probe, state, **options)
    if refusal is None:
        return VectorEngine(graph, protocol_factory, state=state, **options)
    engine = Engine(graph, protocol_factory, state=state, **options)
    engine.backend = "scalar-fallback"
    engine.refusal = refusal
    return engine


ENGINE_BACKENDS: dict[str, Callable[..., Any]] = {
    "scalar": Engine,
    "vector": vector_backend,
}

_BACKEND_STACK: list[str] = ["scalar"]


def current_engine_backend() -> str:
    """The backend name engines default to (innermost active scope)."""
    return _BACKEND_STACK[-1]


def resolve_engine_backend(name: Optional[str] = None) -> Callable[..., Any]:
    """Map a backend name to an engine class (``None`` = current scope)."""
    if name is None:
        name = current_engine_backend()
    try:
        return ENGINE_BACKENDS[name]
    except KeyError:
        raise SimulationError(
            f"unknown engine backend {name!r}; available: "
            + ", ".join(sorted(ENGINE_BACKENDS))
        ) from None


@contextlib.contextmanager
def engine_backend(name: str) -> Iterator[None]:
    """Scope during which ``resolve_engine_backend(None)`` yields ``name``.

    This is how ``repro --backend vector`` and
    ``run_experiment(..., backend=...)`` steer every engine construction
    in a call tree without threading a parameter through each layer.
    """
    resolve_engine_backend(name)  # validate eagerly, before entering
    _BACKEND_STACK.append(name)
    try:
        yield
    finally:
        _BACKEND_STACK.pop()
