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

Data layout (the simulation fast path)
--------------------------------------
Rumor sets are stored as **Python-int bitmasks** over an interned rumor
space: every distinct rumor token is assigned a dense bit index on first
sight, a node's knowledge is one arbitrary-precision integer, and merging
two rumor sets is a single ``|`` plus a popcount.  Snapshots are
**copy-on-write**: :meth:`snapshot` returns a cached immutable
:class:`Payload` that is reused until the node's state next changes, so
repeated snapshots of an idle node are O(1) and the shipped "frozen set of
rumors" is materialized lazily only if someone actually iterates it.
:meth:`count_knowing` is O(1) via per-rumor coverage counters maintained
incrementally by :meth:`add_rumor`/:meth:`merge`.  The set-of-frozensets
reference semantics are preserved exactly — ``tests/test_state_equivalence``
checks this implementation observation-for-observation against the naive
set-backed :class:`~repro.testing.reference.ReferenceNetworkState`.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Hashable, Iterable, Optional

from repro.graphs.latency_graph import Node

__all__ = ["Note", "NetworkState", "Payload"]

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


class NetworkState:
    """Rumor sets and note boards for every node in the network."""

    #: Layout name surfaced in metrics/manifests (``sim_state_layout``);
    #: the vector state's one bitset matrix reports ``dense``.
    layout = "scalar"

    def __init__(self, nodes: Iterable[Node]) -> None:
        self._node_index: dict[Node, int] = {}
        self._node_list: list[Node] = []
        for node in nodes:
            if node not in self._node_index:
                self._node_index[node] = len(self._node_list)
                self._node_list.append(node)
        n = len(self._node_list)
        self._space = _RumorSpace()
        self._masks: list[int] = [0] * n
        self._coverage: list[int] = []  # per rumor bit: nodes knowing it
        self._notes: list[dict[Node, Note]] = [{} for _ in range(n)]
        # Copy-on-write snapshot cache, invalidated per node on change.
        self._snapshots: list[Optional[Payload]] = [None] * n

    def nodes(self) -> list[Node]:
        """All nodes this state tracks, in insertion order."""
        return list(self._node_list)

    def state_nbytes(self) -> int:
        """Resident bytes of the rumor-state storage (the mask integers)."""
        return sum((mask.bit_length() + 7) // 8 for mask in self._masks)

    # -- rumors ---------------------------------------------------------
    def add_rumor(self, node: Node, rumor: Rumor) -> None:
        """Give ``node`` knowledge of ``rumor``."""
        i = self._node_index[node]
        bit = self._space.intern(rumor)
        if bit >= len(self._coverage):
            self._coverage.append(0)
        flag = 1 << bit
        if not self._masks[i] & flag:
            self._masks[i] |= flag
            self._coverage[bit] += 1
            self._snapshots[i] = None

    def seed_self_rumors(self) -> None:
        """Give every node its own id as a rumor (all-to-all dissemination)."""
        for node in self._node_list:
            self.add_rumor(node, node)

    def rumors(self, node: Node) -> frozenset:
        """The rumors ``node`` currently knows."""
        return self.snapshot(node).rumors

    def rumor_count(self, node: Node) -> int:
        """How many rumors ``node`` knows (O(1) popcount)."""
        return self._masks[self._node_index[node]].bit_count()

    def min_rumor_count(self) -> int:
        """The smallest per-node rumor count (0 for an empty state).

        One popcount pass over the mask list — the backing primitive for
        the ``min_rumors_complete`` phase gate ("every node knows ≥ m
        rumors") without per-node Python round trips.
        """
        if not self._masks:
            return 0
        return min(mask.bit_count() for mask in self._masks)

    def knows(self, node: Node, rumor: Rumor) -> bool:
        """Whether ``node`` knows ``rumor``."""
        bit = self._space.index.get(rumor)
        if bit is None:
            return False
        return bool(self._masks[self._node_index[node]] >> bit & 1)

    def count_knowing(self, rumor: Rumor) -> int:
        """How many nodes know ``rumor`` (O(1) incremental counter)."""
        bit = self._space.index.get(rumor)
        if bit is None:
            return 0
        return self._coverage[bit]

    def knows_every(self, nodes: Iterable[Node], rumors: Iterable[Rumor]) -> bool:
        """Whether every node in ``nodes`` knows every rumor in ``rumors``.

        One integer mask test per node instead of materializing each
        node's rumor frozenset — on an n-node all-to-all run the final
        completeness check is O(n) bitmask ANDs rather than O(n²) set
        inserts.
        """
        index = self._space.index
        required = 0
        for rumor in rumors:
            bit = index.get(rumor)
            if bit is None:
                return False
            required |= 1 << bit
        masks = self._masks
        node_index = self._node_index
        return all(
            masks[node_index[node]] & required == required for node in nodes
        )

    # -- notes ----------------------------------------------------------
    def publish_note(self, origin: Node, **data: Any) -> None:
        """Write/overwrite ``origin``'s own note, bumping its version."""
        i = self._node_index[origin]
        old = self._notes[i].get(origin)
        version = (old.version + 1) if old is not None else 1
        self._notes[i][origin] = Note(version=version, data=tuple(sorted(data.items())))
        self._snapshots[i] = None

    def note_of(self, reader: Node, origin: Node) -> Optional[Note]:
        """The note of ``origin`` as currently known by ``reader`` (or ``None``)."""
        return self._notes[self._node_index[reader]].get(origin)

    def known_note_origins(self, reader: Node) -> list[Node]:
        """All origins whose notes ``reader`` has seen."""
        return list(self._notes[self._node_index[reader]])

    def clear_notes(self) -> None:
        """Drop every note board (used between guess-and-double iterations)."""
        for i, board in enumerate(self._notes):
            if board:
                board.clear()
                self._snapshots[i] = None

    # -- exchange plumbing ----------------------------------------------
    def snapshot(self, node: Node) -> Payload:
        """An immutable snapshot of everything ``node`` knows right now.

        Copy-on-write: the returned :class:`Payload` is cached and reused
        until the node's rumors or note board next change, so snapshotting
        an unchanged node is O(1).
        """
        i = self._node_index[node]
        payload = self._snapshots[i]
        if payload is None:
            payload = Payload(
                notes=tuple(self._notes[i].items()),
                mask=self._masks[i],
                space=self._space,
            )
            self._snapshots[i] = payload
        return payload

    def merge(self, node: Node, payload: Payload) -> bool:
        """Merge a received snapshot into ``node``'s knowledge.

        Returns ``True`` if anything new was learned.  Payloads produced by
        this state's own :meth:`snapshot` merge as one ``or`` over bitmasks;
        foreign payloads (hand-built, or from another state instance) fall
        back to interning their rumor tokens.
        """
        i = self._node_index[node]
        mine = self._masks[i]
        if payload._space is self._space:
            added = payload._mask & ~mine
        else:
            added = 0
            coverage_len = len(self._coverage)
            for rumor in payload.rumors:
                bit = self._space.intern(rumor)
                if bit >= coverage_len:
                    self._coverage.append(0)
                    coverage_len += 1
                flag = 1 << bit
                if not mine & flag:
                    added |= flag
        changed = False
        if added:
            self._masks[i] = mine | added
            coverage = self._coverage
            bits = added
            while bits:
                low = bits & -bits
                coverage[low.bit_length() - 1] += 1
                bits ^= low
            changed = True
        board = self._notes[i]
        for origin, note in payload.notes:
            current = board.get(origin)
            if current is None or note.version > current.version:
                board[origin] = note
                changed = True
        if changed:
            self._snapshots[i] = None
        return changed
