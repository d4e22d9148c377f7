"""Seed-addressed random streams: CPython's Mersenne Twister words in bulk.

Every randomized protocol draws from one stream per node,
``random.Random(f"{seed}:{node!r}")`` (see
:func:`~repro.protocols.base.per_node_rng_factory`).  A ``random.Random``
holds 2.5 KB of twister state and takes ~15 µs to seed, and the vector
engine's partner draw used to be one ``getrandbits`` call per node per
attempt — at ``n = 10⁵`` that was the largest cost of a broadcast and
290 MB of its memory.

This module replaces the objects by what they would produce:

* :func:`first_words` computes the first ``width`` 32-bit outputs of many
  ``random.Random(key)`` streams at once in numpy, following CPython's
  version-2 ``str`` seeding step by step: the key bytes followed by their
  ``sha512`` digest, read as one big-endian integer, split into
  little-endian 32-bit words, fed to ``init_by_array`` (vectorised across
  keys with the same word count), then the first chunk of the first
  twist and the tempering.  For ``width <= 227`` (``N - M``) the first
  twist chunk needs only ``mt[0:width+1]`` and ``mt[397:397+width]``.
* :func:`stream_words` is the same for one key from any offset, through a
  transient ``random.Random``: exact by construction, it serves small
  cohorts, window refills, and the tests as the oracle.
* :class:`SeedStream` is the handle protocols hold instead of a
  ``random.Random``: it becomes ``random.Random(key)``, advanced past the
  words already consumed, on the first read of any ``Random`` attribute.
* :class:`StreamWindow` is an engine's random streams as an
  ``m × WINDOW`` word matrix and one read pointer per row: ``Random.choice`` over ``d``
  neighbours is ``getrandbits(d.bit_length())`` with rejection, and
  ``getrandbits(k)`` for ``k <= 32`` is the top ``k`` bits of one word, so
  a whole round's picks are a gather, a shift, and pointer arithmetic.
  It is the vector engine's one partner-draw primitive, one per engine: any rng that is
  not a fresh handle (a plain ``random.Random``, a subclass, a handle
  already read) is a live row that draws through its own ``_randbelow``.

The constants below are measured on a 2-vCPU x86-64 VM (see
``docs/PERFORMANCE.md``, *Seed-addressed streams*).
"""

from __future__ import annotations

import copy
import hashlib
import random
from operator import methodcaller
from typing import Any, Optional, Sequence

import numpy as np

__all__ = ["SeedStream", "StreamWindow", "first_words", "seed_key", "stream_words"]

#: Words per row of a :class:`StreamWindow` (51 MB at n = 10⁵).  A
#: G(10⁵, 8/n) broadcast consumes ~62 words per node; 128 leaves most
#: rows never refilled.  At most ``_N - _M`` (see :func:`_twist_words`).
WINDOW = 128

#: Keys seeded together by :func:`first_words`: the ``624 × BATCH``
#: uint32 twister state is 20 MB.  The kernel's cost per batch is ~10 ms
#: of numpy call overhead (1,247 sequential seeding steps) plus ~2 µs per
#: key, so batches much smaller than this pay mostly overhead.
BATCH = 8192

#: Key groups smaller than this are seeded through ``random.Random``
#: (~19 µs per key) instead of the kernel (~10 ms per group plus ~5 µs
#: per key); the two cost the same near 750 keys.
CROSSOVER = 800

_N, _M = 624, 397
_UPPER, _LOWER = np.uint32(0x80000000), np.uint32(0x7FFFFFFF)


def _genrand_base() -> list:
    """``init_genrand(19650218)``: the state ``init_by_array`` starts from."""
    mt = [19650218]
    for i in range(1, _N):
        prev = mt[-1]
        mt.append((1812433253 * (prev ^ (prev >> 30)) + i) & 0xFFFFFFFF)
    return [np.uint32(word) for word in mt]


_BASE = _genrand_base()
_INDEX = [np.uint32(i) for i in range(_N)]


def seed_key(seed: int, node: Any) -> str:
    """The key of node ``node``'s stream under ``seed``: ``f"{seed}:{node!r}"``."""
    return f"{seed}:{node!r}"


def stream_words(key: str, start: int, count: int) -> np.ndarray:
    """Words ``start .. start + count`` of ``random.Random(key)``'s
    ``getrandbits(32)`` sequence, through one transient ``Random``.

    ``getrandbits(32 * k)`` consumes exactly ``k`` words and holds them
    little-endian, first word lowest.
    """
    rng = random.Random(key)
    if start:
        rng.getrandbits(32 * start)
    return np.frombuffer(
        rng.getrandbits(32 * count).to_bytes(4 * count, "little"), dtype="<u4"
    ).astype(np.uint32)


def _init_by_array(state: np.ndarray, key: np.ndarray, scratch: np.ndarray) -> None:
    """CPython's ``init_by_array`` over the columns of ``state`` at once.

    ``state`` is ``624 × B`` (word-major, so each step touches two
    contiguous rows); ``key`` is ``nw × B`` with the key index ``j``
    already added to row ``j``.  The first 623 steps only read the
    ``init_genrand`` constant of the row they write.
    """
    c1, c2 = np.uint32(1664525), np.uint32(1566083941)
    width = key.shape[0]
    state[0] = _BASE[0]
    i, j = 1, 0
    for step in range(max(_N, width)):
        prev, row = state[i - 1], state[i]
        np.right_shift(prev, 30, out=scratch)
        np.bitwise_xor(scratch, prev, out=scratch)
        np.multiply(scratch, c1, out=scratch)
        np.bitwise_xor(scratch, _BASE[i] if step < _N - 1 else row, out=row)
        np.add(row, key[j], out=row)
        i += 1
        j += 1
        if i >= _N:
            state[0] = state[_N - 1]
            i = 1
        if j >= width:
            j = 0
    for _ in range(_N - 1):
        prev, row = state[i - 1], state[i]
        np.right_shift(prev, 30, out=scratch)
        np.bitwise_xor(scratch, prev, out=scratch)
        np.multiply(scratch, c2, out=scratch)
        np.bitwise_xor(row, scratch, out=row)
        np.subtract(row, _INDEX[i], out=row)
        i += 1
        if i >= _N:
            state[0] = state[_N - 1]
            i = 1
    state[0] = _UPPER


def _twist_words(
    state: np.ndarray, width: int, out: np.ndarray, rows: Any
) -> None:
    """Write the first ``width`` tempered outputs of freshly seeded states
    (the columns of ``state``) to ``out[rows, :width]``.

    The first ``N - M`` words of the first twist read only the seeded
    ``mt[0 : width + 1]`` and ``mt[M : M + width]``.  Sixteen words at a
    time keep the temporaries in cache.
    """
    for lo in range(0, width, 16):
        hi = min(width, lo + 16)
        y = state[lo:hi] & _UPPER
        y |= state[lo + 1 : hi + 1] & _LOWER
        words = state[_M + lo : _M + hi] ^ (y >> 1)
        y &= np.uint32(1)
        y *= np.uint32(0x9908B0DF)
        words ^= y
        words ^= words >> 11
        words ^= (words << 7) & np.uint32(0x9D2C5680)
        words ^= (words << 15) & np.uint32(0xEFC60000)
        words ^= words >> 18
        out[rows, lo:hi] = words.T


def first_words(keys: Sequence[str], width: int) -> np.ndarray:
    """``len(keys) × width`` uint32: row ``t`` holds the first ``width``
    ``getrandbits(32)`` outputs of ``random.Random(keys[t])``.

    Keys whose seed integer has the same number of 32-bit words are
    seeded together, in batches of :data:`BATCH`; groups smaller than
    :data:`CROSSOVER`, and keys whose encoding is empty or starts with a
    NUL byte (a shorter seed integer than its byte count says), go
    through :func:`stream_words`.
    """
    if not 0 < width <= _N - _M:
        raise ValueError(f"width must be in [1, {_N - _M}], got {width}")
    size = len(keys)
    out = np.empty((size, width), dtype=np.uint32)
    if not size:
        return out
    encoded = list(map(str.encode, keys))
    lengths = np.fromiter(map(len, encoded), dtype=np.int64, count=size)
    counts = (lengths + 67) >> 2
    slow = np.zeros(size, dtype=bool)
    if min(encoded)[:1] in (b"", b"\0"):
        slow[[t for t, data in enumerate(encoded) if data[:1] in (b"", b"\0")]] = True
    order = np.argsort(counts, kind="stable")
    cuts = np.flatnonzero(np.diff(counts[order])) + 1
    state = scratch = None
    for members in np.split(order, cuts):
        members = members[~slow[members]]
        if members.shape[0] < CROSSOVER:
            slow[members] = True
            continue
        if state is None:
            columns = min(BATCH, size)
            state = np.empty((_N, columns), dtype=np.uint32)
            scratch = np.empty(columns, dtype=np.uint32)
        count = int(counts[members[0]])
        for lo in range(0, members.shape[0], BATCH):
            part = members[lo : lo + BATCH]
            batch = part.shape[0]
            key = _key_words(encoded, part, lengths[part], count)
            _init_by_array(state[:, :batch], key, scratch[:batch])
            first, last = int(part[0]), int(part[-1])
            rows = slice(first, last + 1) if last - first == batch - 1 else part
            _twist_words(state[:, :batch], width, out, rows)
    for t in np.flatnonzero(slow).tolist():
        out[t] = stream_words(keys[t], 0, width)
    return out


def _key_words(
    encoded: list[bytes], part: np.ndarray, lengths: np.ndarray, count: int
) -> np.ndarray:
    """The ``init_by_array`` key (``count × B``, plus the key index) of
    the keys ``part``, whose seed integers are ``count`` words long.

    CPython seeds with ``int.from_bytes(data + sha512(data).digest())``
    and splits that integer into little-endian words: the bytes reversed,
    zero-padded to ``4 * count``.
    """
    batch = part.shape[0]
    mine = [encoded[t] for t in part.tolist()]
    buf = np.zeros((batch, 4 * count), dtype=np.uint8)
    digests = b"".join(map(methodcaller("digest"), map(hashlib.sha512, mine)))
    buf[:, :64] = np.frombuffer(digests, dtype=np.uint8).reshape(batch, 64)[:, ::-1]
    for length in np.unique(lengths).tolist():
        rows = np.flatnonzero(lengths == length)
        raw = b"".join([mine[r] for r in rows.tolist()])
        buf[rows, 64 : 64 + length] = np.frombuffer(raw, dtype=np.uint8).reshape(
            rows.shape[0], length
        )[:, ::-1]
    key = buf.view("<u4").T.astype(np.uint32, order="C")
    key += np.arange(count, dtype=np.uint32)[:, None]
    return key


# ----------------------------------------------------------------------
class SeedStream:
    """``random.Random(key)``, built only when something reads it.

    The handle stands in for the ``Random`` it names.  Reading any
    ``Random`` attribute (``choice``, ``getstate``, ...) *materialises*
    it: ``random.Random(key)``, advanced past the words already consumed
    with one ``getrandbits(32 · k)`` call.  Bound methods are then cached
    on the handle, so a materialised handle's ``choice`` costs no more
    than the ``Random``'s.  While a :class:`StreamWindow` draws for the
    handle it is *linked* to it and reads its position from there;
    materialising hands the row back to the live ``Random``.

    ``repr``, ``copy`` and ``pickle`` neither materialise a handle nor
    lose its position.
    """

    __slots__ = ("key", "_pos", "_rng", "_window", "_row", "__dict__")

    def __init__(self, key: str, position: int = 0) -> None:
        self.key = key
        #: Words consumed before the current window (if any) took over.
        self._pos = position
        self._rng: Optional[random.Random] = None
        self._window: Optional[StreamWindow] = None
        self._row = 0

    @property
    def materialised(self) -> bool:
        return self._rng is not None

    def position(self) -> int:
        """Words consumed so far (unmaterialised handles only)."""
        if self._rng is not None:
            raise ValueError("a materialised stream's position is its Random's state")
        window = self._window
        return self._pos if window is None else window.position(self._row)

    def materialise(self) -> random.Random:
        """The live ``random.Random`` this handle names."""
        rng = self._rng
        if rng is None:
            window = self._window
            consumed = self._pos if window is None else window.position(self._row)
            rng = self._rng = random.Random(self.key)
            if consumed:
                rng.getrandbits(32 * consumed)
            if window is not None:
                window.detach(self._row, rng)
                self._window = None
        return rng

    def __repr__(self) -> str:
        if self._rng is not None:
            return f"SeedStream({self.key!r}, materialised)"
        return f"SeedStream({self.key!r}, position={self.position()})"

    def __reduce__(self) -> tuple:
        if self._rng is not None:
            return _restore_materialised, (self.key, self._rng)
        return SeedStream, (self.key, self.position())

    def __copy__(self) -> "SeedStream":
        if self._rng is not None:
            return _restore_materialised(self.key, copy.copy(self._rng))
        return SeedStream(self.key, self.position())

    def __deepcopy__(self, memo: dict) -> "SeedStream":
        return self.__copy__()


def _restore_materialised(key: str, rng: random.Random) -> SeedStream:
    handle = SeedStream(key)
    handle._rng = rng
    return handle


class _Forward:
    """A ``random.Random`` attribute on :class:`SeedStream`.

    Reading it materialises the handle.  A bound method is then stored
    in the handle's ``__dict__``, which a non-data descriptor does not
    shadow, so later reads are plain instance-dict hits.
    """

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def __get__(self, handle: Optional[SeedStream], owner: Any = None) -> Any:
        if handle is None:
            return self
        rng = handle._rng
        if rng is None:
            rng = handle.materialise()
        value = getattr(rng, self.name)
        if getattr(value, "__self__", None) is rng:
            handle.__dict__[self.name] = value
        return value


for _name in [n for n in dir(random.Random) if not n.startswith("__")] + ["gauss_next"]:
    assert not hasattr(SeedStream, _name), _name
    setattr(SeedStream, _name, _Forward(_name))
del _name


class StreamWindow:
    """Many streams as word windows: ``Random.choice`` in bulk.

    Row ``t`` stands for ``rngs[t]``.  A fresh :class:`SeedStream` handle,
    or a key string naming a fresh stream that no handle holds yet, is a
    *window row*: it holds words ``base[t] .. base[t] + WINDOW`` of the
    stream and a read pointer, and is refilled through
    :func:`stream_words` when it runs out; :meth:`handle` links a key
    row's handle when something asks for it.  Every other rng (a plain
    ``random.Random`` or a subclass, or a handle that is materialised,
    linked to another window, or restored part-way through its stream) is
    a *live row*, and so is a handle that materialises later because
    something reads it: a live row calls the rng's own ``_randbelow``,
    the draw ``Random.choice`` makes, in the order :meth:`choose` is
    given the rows.  A window without a fresh handle holds no words.
    """

    def __init__(self, rngs: Sequence[Any], degrees: Sequence[int]) -> None:
        size = len(rngs)
        self._shift = 32 - np.fromiter(
            map(int.bit_length, degrees), dtype=np.int64, count=size
        ).astype(np.uint32)
        self._ptr = np.zeros(size, dtype=np.int64)
        self._base = np.zeros(size, dtype=np.int64)
        self._starts = np.arange(0, size * WINDOW, WINDOW, dtype=np.int64)
        self._keys: list[Optional[str]] = [None] * size
        self._live: dict[int, Any] = {}
        self._is_live = np.zeros(size, dtype=bool)
        for t, rng in enumerate(rngs):
            if type(rng) is str:
                self._keys[t] = rng
            elif type(rng) is not SeedStream:
                self.detach(t, rng)
            elif rng._rng is None and rng._window is None and not rng._pos:
                rng._window = self
                rng._row = t
                self._keys[t] = rng.key
            else:
                self.detach(t, rng.materialise())
        fresh = np.flatnonzero(~self._is_live)
        self._words: Optional[np.ndarray] = None
        if fresh.shape[0] == size:
            self._words = first_words(self._keys, WINDOW)
        elif fresh.shape[0]:
            self._words = np.zeros((size, WINDOW), dtype=np.uint32)
            self._words[fresh] = first_words(
                [self._keys[t] for t in fresh.tolist()], WINDOW
            )

    def handle(self, row: int) -> SeedStream:
        """A handle on key row ``row``'s stream, linked to the row, so it
        reads its position from here until it materialises."""
        assert not self._is_live[row], "a live row's stream has its handle"
        handle = SeedStream(self._keys[row])
        handle._window = self
        handle._row = row
        return handle

    def position(self, row: int) -> int:
        """Words row ``row`` has consumed since its stream was seeded."""
        return int(self._base[row] + self._ptr[row])

    def detach(self, row: int, rng: random.Random) -> None:
        """Draw row ``row`` from ``rng`` from now on."""
        self._live[row] = rng._randbelow
        self._is_live[row] = True

    def choose(self, rows: Optional[np.ndarray], degrees: np.ndarray) -> np.ndarray:
        """``Random.choice`` indices in ``[0, degrees)`` for ``rows`` (all
        rows when ``None``), consuming each stream as ``_randbelow`` would:
        window rows take one word per attempt, rejected attempts redrawn
        in passes; live rows call their rng."""
        if self._live:
            if rows is None:
                rows = np.arange(self._ptr.shape[0], dtype=np.int64)
            live = self._is_live[rows]
            if live.any():
                picks = np.empty(rows.shape[0], dtype=np.int64)
                drawn = np.flatnonzero(~live)
                if drawn.shape[0]:
                    picks[drawn] = self.choose(rows[drawn], degrees[drawn])
                draws = map(self._live.__getitem__, rows[live].tolist())
                degs = degrees[live].tolist()
                picks[live] = [draw(d) for draw, d in zip(draws, degs)]
                return picks
        picks = self._next(rows).astype(np.int64)
        redo = np.flatnonzero(picks >= degrees)
        while redo.shape[0]:
            again = self._next(redo if rows is None else rows[redo])
            picks[redo] = again
            redo = redo[again >= degrees[redo]]
        return picks

    def _next(self, rows: Optional[np.ndarray]) -> np.ndarray:
        """One ``getrandbits(bits)`` per row (all rows when ``None``): the
        top bits of the row's next word."""
        whole = rows is None
        ptr = self._ptr if whole else self._ptr[rows]
        spent = np.flatnonzero(ptr == WINDOW)
        if spent.shape[0]:
            self._refill(spent if whole else rows[spent])
            ptr[spent] = 0
        slots = (self._starts if whole else self._starts[rows]) + ptr
        ptr += 1
        if not whole:
            self._ptr[rows] = ptr
        shift = self._shift if whole else self._shift[rows]
        return self._words.reshape(-1)[slots] >> shift

    def _refill(self, rows: np.ndarray) -> None:
        """Move ``rows``' windows on to their next ``WINDOW`` words."""
        for row in rows.tolist():
            base = int(self._base[row]) + WINDOW
            self._base[row] = base
            self._words[row] = stream_words(self._keys[row], base, WINDOW)
