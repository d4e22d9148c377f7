"""Shared network state: per-node rumor sets and versioned per-origin notes.

Dissemination protocols in this library all operate on the same two pieces
of node-local knowledge:

* a **rumor set** — the set of rumors the node currently knows.  Rumors are
  arbitrary hashable tokens; for all-to-all dissemination they are node ids,
  for one-to-all broadcast there is a single token.
* a **note board** — a per-origin key/value record (e.g. the error flag and
  rumor-set fingerprint used by the Termination Check of Algorithm 1).  Each
  origin node only ever writes its *own* entry and bumps a version counter
  when it does, so merging two boards is conflict-free: keep the higher
  version per origin.

Keeping this state in one object (rather than inside protocol instances)
lets composite algorithms such as EID run several protocol *phases* over the
same knowledge: the D-DTG phase fills the rumor sets, the RR-broadcast phase
keeps spreading them, the termination check reads them.

Data layout
-----------
One class, :class:`VectorState`, holds every node's rumor set for every
engine: an ``n × ⌈k/64⌉`` uint64 bitset matrix over an interned rumor
space (every distinct rumor token gets a dense bit index on first sight).
The vector engine's array kernels OR whole rows at once; the scalar
engine's per-exchange step reads the same rows through cached Python-int
row masks, so merging two rumor sets is one ``|``.  Snapshots are
**copy-on-write**: :meth:`VectorState.snapshot` returns a cached immutable
:class:`Payload` that is reused until the node's state next changes, so
repeated snapshots of an idle node are O(1) and the shipped "frozen set of
rumors" is materialized lazily only if someone actually iterates it.  The
set-of-frozensets reference semantics are preserved exactly —
``tests/test_state_equivalence`` checks this implementation
observation-for-observation against the naive set-backed
:class:`~repro.testing.reference.ReferenceNetworkState`.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Hashable, Iterable, Optional

import numpy as np

from repro.graphs.latency_graph import Node

__all__ = ["Note", "Payload", "VectorState"]

Rumor = Hashable


@dataclasses.dataclass(frozen=True)
class Note:
    """A versioned, origin-owned record. Higher version wins on merge."""

    version: int
    data: tuple[tuple[str, Any], ...]

    def get(self, key: str, default: Any = None) -> Any:
        for k, value in self.data:
            if k == key:
                return value
        return default


class _RumorSpace:
    """Interned rumor tokens: rumor <-> dense bit index, append-only."""

    __slots__ = ("index", "tokens")

    def __init__(self) -> None:
        self.index: dict[Rumor, int] = {}
        self.tokens: list[Rumor] = []

    def intern(self, rumor: Rumor) -> int:
        bit = self.index.get(rumor)
        if bit is None:
            bit = len(self.tokens)
            self.index[rumor] = bit
            self.tokens.append(rumor)
        return bit

    def unpack(self, mask: int) -> frozenset:
        tokens = self.tokens
        out = []
        while mask:
            low = mask & -mask
            out.append(tokens[low.bit_length() - 1])
            mask ^= low
        return frozenset(out)


class Payload:
    """An immutable snapshot shipped in one exchange.

    Either constructed from an explicit ``rumors`` frozenset (the portable
    form any test or foreign state can build) or — on the fast path — from
    a bitmask over a :class:`_RumorSpace`, in which case the frozenset view
    is materialized lazily on first access.
    """

    __slots__ = ("_rumors", "_mask", "_space", "notes")

    def __init__(
        self,
        rumors: Optional[frozenset] = None,
        notes: tuple[tuple[Node, "Note"], ...] = (),
        *,
        mask: Optional[int] = None,
        space: Optional[_RumorSpace] = None,
    ) -> None:
        if rumors is None and mask is None:
            raise TypeError("Payload needs either rumors or a mask+space")
        self._rumors = frozenset(rumors) if rumors is not None else None
        self._mask = mask
        self._space = space
        self.notes = notes

    @property
    def rumors(self) -> frozenset:
        """The shipped rumor set (materialized lazily from the bitmask)."""
        if self._rumors is None:
            self._rumors = self._space.unpack(self._mask)
        return self._rumors

    @property
    def rumor_count(self) -> int:
        """``len(rumors)`` without materializing the frozenset."""
        if self._mask is not None:
            return self._mask.bit_count()
        return len(self._rumors)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Payload):
            return NotImplemented
        return self.rumors == other.rumors and self.notes == other.notes

    def __repr__(self) -> str:
        return f"Payload(rumors={self.rumors!r}, notes={self.notes!r})"


# ----------------------------------------------------------------------
# Popcount: hardware instruction when numpy provides it, byte LUT otherwise.
if hasattr(np, "bitwise_count"):

    def _popcount_rows(matrix: np.ndarray) -> np.ndarray:
        """Per-row popcount of a uint64 bit matrix (vectorized)."""
        return np.bitwise_count(matrix).sum(axis=-1, dtype=np.int64)

else:  # pragma: no cover - exercised only on numpy < 2.0
    _POPCOUNT_LUT = np.array(
        [bin(i).count("1") for i in range(256)], dtype=np.uint8
    )

    def _popcount_rows(matrix: np.ndarray) -> np.ndarray:
        """Per-row popcount via a byte lookup table (numpy < 2 fallback)."""
        return _POPCOUNT_LUT[matrix.view(np.uint8)].sum(axis=-1, dtype=np.int64)


class VectorState:
    """Rumor sets and note boards for every node in the network.

    The one rumor state: rumors, coverage, note boards and snapshot/merge
    interop via :class:`Payload` over an ``n × words`` uint64 matrix, so
    the vector engine's array kernels and every scalar consumer
    (completion predicates, invariant checkers, the scalar engine's
    per-exchange step) read the same storage.

    The matrix (``_words``) is one array, ``n·⌈k/64⌉·8`` bytes for ``k``
    interned rumors.  Interning past its width rebinds ``_words`` to a
    copy at least twice as wide, so an array held across a growth is
    stale (a running :class:`~repro.sim.vector.VectorEngine` checks for
    that each step).
    """

    #: Layout name surfaced in metrics/manifests (``sim_state_layout``).
    layout = "dense"

    __slots__ = (
        "_node_index",
        "_node_list",
        "_space",
        "_words",
        "_notes",
        "_snapshots",
        "_masks_cache",
        "_cache_filled",
    )

    def __init__(self, nodes: Iterable[Node]) -> None:
        self._node_index: dict[Node, int] = {}
        self._node_list: list[Node] = []
        for node in nodes:
            if node not in self._node_index:
                self._node_index[node] = len(self._node_list)
                self._node_list.append(node)
        n = len(self._node_list)
        self._space = _RumorSpace()
        self._notes: list[dict[Node, Note]] = [{} for _ in range(n)]
        # Copy-on-write caches, invalidated per node on change: reused
        # Payload snapshots and Python-int row masks, so the per-exchange
        # path's snapshot/merge hotspots stop re-packing unchanged rows.
        self._snapshots: list[Optional[Payload]] = [None] * n
        self._masks_cache: list[Optional[int]] = [None] * n
        self._cache_filled = False
        self._words = np.zeros((n, 1), dtype=np.uint64)

    # -- storage primitives ---------------------------------------------
    def _ensure_bit(self, bit: int) -> None:
        """Grow until ``bit`` is addressable: to at least twice the width,
        or straight to the width ``bit`` needs when that is wider."""
        words = self._words
        width = words.shape[1]
        if bit < width * 64:
            return
        grown = max(2 * width, bit // 64 + 1)
        wider = np.zeros((words.shape[0], grown), dtype=np.uint64)
        wider[:, :width] = words
        self._words = wider

    def _set_bit(self, i: int, bit: int) -> None:
        """Set one addressable bit in row ``i`` (no growth, no caches)."""
        self._words[i, bit >> 6] |= np.uint64(1 << (bit & 63))

    def _mask_of_row(self, i: int) -> int:
        """Recompute row ``i`` as an arbitrary-precision Python-int bitmask."""
        return int.from_bytes(self._words[i].tobytes(), "little")

    def _or_row_storage(self, i: int, mask: int) -> None:
        """OR an addressable ``mask`` into row ``i`` (no growth, no caches)."""
        words = self._words
        words[i] |= np.frombuffer(
            mask.to_bytes(words.shape[1] * 8, "little"), dtype=np.uint64
        )

    # -- packed-row plumbing --------------------------------------------
    def _row_mask(self, i: int) -> int:
        """Row ``i`` as a Python-int bitmask (cached until the row changes)."""
        cached = self._masks_cache[i]
        if cached is None:
            cached = self._mask_of_row(i)
            self._masks_cache[i] = cached
            self._cache_filled = True
        return cached

    def _invalidate_rows(self, rows: np.ndarray) -> None:
        """Drop cached masks/snapshots for rows an array kernel mutated."""
        if not self._cache_filled:
            return
        snapshots = self._snapshots
        masks = self._masks_cache
        for i in set(rows.tolist()):
            snapshots[i] = None
            masks[i] = None

    def _bit_location(self, rumor: Hashable) -> Optional[tuple[int, np.uint64]]:
        """``(column, bit mask)`` of ``rumor``, or ``None`` when it was
        never interned or lies beyond the storage."""
        bit = self._space.index.get(rumor)
        if bit is None or bit >= self._words.shape[1] * 64:
            return None
        return bit >> 6, np.uint64(1 << (bit & 63))

    # -- memory accounting ----------------------------------------------
    def state_nbytes(self) -> int:
        """Resident bytes of the rumor-state matrix."""
        return int(self._words.nbytes)

    # -- rumors ---------------------------------------------------------
    def nodes(self) -> list[Node]:
        """All nodes this state tracks, in insertion order."""
        return list(self._node_list)

    def add_rumor(self, node: Node, rumor: Hashable) -> None:
        """Give ``node`` knowledge of ``rumor``."""
        i = self._node_index[node]
        bit = self._space.intern(rumor)
        self._ensure_bit(bit)
        self._set_bit(i, bit)
        cached = self._masks_cache[i]
        if cached is not None:
            self._masks_cache[i] = cached | (1 << bit)
        self._snapshots[i] = None

    def seed_self_rumors(self) -> None:
        """Give every node its own id as a rumor (all-to-all dissemination).

        Interns every id first and widens once, to the exact word count,
        then sets the diagonal in one array op: ``n`` single-rumor growths
        would double past it (256 words instead of 157 at ``n = 10⁴``).
        """
        n = len(self._node_list)
        if not n:
            return
        intern = self._space.intern
        bits = np.fromiter(
            (intern(node) for node in self._node_list), dtype=np.int64, count=n
        )
        self._ensure_bit(int(bits.max()))
        self._words[np.arange(n), bits >> 6] |= np.left_shift(
            np.uint64(1), (bits & 63).astype(np.uint64)
        )
        if self._cache_filled:
            self._snapshots[:] = [None] * n
            self._masks_cache[:] = [None] * n

    def rumors(self, node: Node) -> frozenset:
        """The rumors ``node`` currently knows."""
        return self._space.unpack(self._row_mask(self._node_index[node]))

    def rumor_count(self, node: Node) -> int:
        """How many rumors ``node`` knows (one vectorized popcount)."""
        return int(_popcount_rows(self._words[self._node_index[node]]))

    def min_rumor_count(self) -> int:
        """The smallest per-node rumor count (one matrix popcount).

        Multi-rumor phase gates ("every node knows >= m rumors") reduce to
        ``min_rumor_count() >= m``; see
        :func:`~repro.sim.runner.min_rumors_complete`.
        """
        if not self._node_list:
            return 0
        return int(_popcount_rows(self._words).min())

    def knows(self, node: Node, rumor: Hashable) -> bool:
        """Whether ``node`` knows ``rumor``."""
        at = self._bit_location(rumor)
        if at is None:
            return False
        w, bit = at
        return bool(self._words[self._node_index[node], w] & bit)

    def count_knowing(self, rumor: Hashable) -> int:
        """How many nodes know ``rumor`` (one column reduction)."""
        at = self._bit_location(rumor)
        if at is None:
            return 0
        w, bit = at
        return int(np.count_nonzero(self._words[:, w] & bit))

    def knows_every(
        self, nodes: Iterable[Node], rumors: Iterable[Hashable]
    ) -> bool:
        """Whether every node in ``nodes`` knows every rumor in ``rumors``.

        One vectorized mask comparison over the packed rows instead of
        materializing per-node rumor frozensets (which is O(n²) on an
        all-to-all completeness check).
        """
        index = self._space.index
        words = self._words
        width = words.shape[1]
        required = np.zeros(width, dtype=np.uint64)
        for rumor in rumors:
            bit = index.get(rumor)
            if bit is None or bit >= width * 64:
                return False
            required[bit >> 6] |= np.uint64(1 << (bit & 63))
        rows = words[[self._node_index[node] for node in nodes]]
        return bool(((rows & required) == required).all())

    # -- notes ----------------------------------------------------------
    def publish_note(self, origin: Node, **data: Any) -> None:
        """Write/overwrite ``origin``'s own note, bumping its version."""
        i = self._node_index[origin]
        old = self._notes[i].get(origin)
        version = (old.version + 1) if old is not None else 1
        self._notes[i][origin] = Note(
            version=version, data=tuple(sorted(data.items()))
        )
        self._snapshots[i] = None

    def note_of(self, reader: Node, origin: Node) -> Optional[Note]:
        """The note of ``origin`` as currently known by ``reader`` (or ``None``)."""
        return self._notes[self._node_index[reader]].get(origin)

    def known_note_origins(self, reader: Node) -> list[Node]:
        """All origins whose notes ``reader`` has seen."""
        return list(self._notes[self._node_index[reader]])

    def clear_notes(self) -> None:
        """Drop every note board."""
        for i, board in enumerate(self._notes):
            if board:
                board.clear()
                self._snapshots[i] = None

    # -- exchange plumbing ----------------------------------------------
    def snapshot(self, node: Node) -> Payload:
        """An immutable snapshot of everything ``node`` knows right now.

        Copy-on-write: the returned :class:`Payload` is cached and reused
        until the node's rumors or note board next change, so
        snapshotting an unchanged node is O(1).
        """
        i = self._node_index[node]
        payload = self._snapshots[i]
        if payload is None:
            payload = Payload(
                notes=tuple(self._notes[i].items()),
                mask=self._row_mask(i),
                space=self._space,
            )
            self._snapshots[i] = payload
            self._cache_filled = True
        return payload

    def merge(self, node: Node, payload: Payload) -> bool:
        """Merge a received snapshot; returns ``True`` if anything was new."""
        i = self._node_index[node]
        if payload._space is self._space and payload._mask is not None:
            incoming = payload._mask
        else:
            incoming = 0
            for rumor in payload.rumors:
                incoming |= 1 << self._space.intern(rumor)
        mine = self._row_mask(i)
        changed = False
        if incoming & ~mine:
            self._ensure_bit(incoming.bit_length() - 1)
            self._or_row_storage(i, incoming)
            self._masks_cache[i] = mine | incoming
            self._snapshots[i] = None
            changed = True
        board = self._notes[i]
        for origin, note in payload.notes:
            current = board.get(origin)
            if current is None or note.version > current.version:
                board[origin] = note
                self._snapshots[i] = None
                changed = True
        return changed

    # -- array kernels (the vector fast path) ----------------------------
    def _k_knows_column(self, rows: np.ndarray, rumor: Hashable) -> np.ndarray:
        """Boolean array: whether each given state row knows ``rumor``."""
        at = self._bit_location(rumor)
        if at is None:
            return np.zeros(rows.shape[0], dtype=bool)
        w, bit = at
        return (self._words[rows, w] & bit) != 0

    def _k_knows_pairs(self, rows: np.ndarray, bits: np.ndarray) -> np.ndarray:
        """Boolean array: whether state row ``rows[k]`` has bit ``bits[k]``
        set (``False`` for bit ``-1``, a rumor never interned)."""
        out = np.zeros(rows.shape[0], dtype=bool)
        ok = bits >= 0
        bit = bits[ok]
        values = self._words[rows[ok], bit >> 6]
        out[ok] = (values >> (bit & 63).astype(np.uint64)) & np.uint64(1) != 0
        return out
