"""Latency assignment models.

A *latency model* is a callable that, given the two endpoints of an edge and
a ``random.Random`` instance, returns the positive integer latency for that
edge.  Generators in :mod:`repro.graphs.generators` accept any such callable,
so users can plug in their own distributions; this module provides the ones
used throughout the paper's constructions and our experiments.

:func:`draw_latencies` draws a whole edge list's latencies at once.  The
uniform and constant models with int bounds carry a bulk draw for it,
which consumes a plain ``random.Random`` exactly as the per-edge calls
would; with other bounds they are called per edge, so the graph
constructor rejects what they return with
:meth:`~repro.graphs.latency_graph.LatencyGraph.add_edge`'s message.
"""

from __future__ import annotations

import math
import random
from typing import Callable, Optional, Union

import numpy as np

from repro.errors import GraphError
from repro.graphs.latency_graph import Node

LatencyModel = Callable[[Node, Node, random.Random], int]

__all__ = [
    "LatencyModel",
    "constant_latency",
    "uniform_latency",
    "bimodal_latency",
    "zipf_latency",
    "geometric_distance_latency",
    "draw_latencies",
]


def constant_latency(value: int = 1) -> LatencyModel:
    """Every edge gets latency ``value`` (the classical unweighted setting)."""
    if value < 1:
        raise GraphError(f"constant latency must be >= 1, got {value}")

    def model(_u: Node, _v: Node, _rng: random.Random) -> int:
        return value

    if type(value) is int:
        model.bulk = lambda count, _rng: np.full(count, value, dtype=np.int64)
    return model


def uniform_latency(low: int, high: int) -> LatencyModel:
    """Latencies drawn uniformly from the integer interval ``[low, high]``."""
    if not 1 <= low <= high:
        raise GraphError(f"need 1 <= low <= high, got [{low}, {high}]")

    def model(_u: Node, _v: Node, rng: random.Random) -> int:
        return rng.randint(low, high)

    width = high - low + 1
    if type(low) is type(high) is int and width.bit_length() <= 32:
        model.bulk = lambda count, rng: low + _randbelow_many(rng, width, count)
    return model


def _randbelow_many(rng: random.Random, width: int, count: int) -> np.ndarray:
    """``count`` values of ``rng._randbelow(width)``, in order, for a plain
    ``random.Random`` and ``width < 2**32``.

    CPython draws ``getrandbits(k)`` (``k = width.bit_length()``: the top
    ``k`` bits of one 32-bit Mersenne Twister word) and rejects values
    ``>= width``.  This takes as many words as draws remain, in one
    ``getrandbits(32 * remaining)`` call (word ``i`` is bits ``32i..32i+31``),
    applies the same shift and rejection to each, and repeats for the
    draws still missing.  Each word yields at most one draw, so it never
    takes a word the per-draw loop would not, and it leaves ``rng`` in the
    same state.
    """
    shift = 32 - width.bit_length()
    parts = []
    remaining = count
    while remaining:
        words = np.frombuffer(
            rng.getrandbits(32 * remaining).to_bytes(4 * remaining, "little"),
            dtype="<u4",
        )
        draws = words >> shift
        accepted = draws[draws < width]
        parts.append(accepted)
        remaining -= accepted.shape[0]
    if not parts:
        return np.zeros(0, dtype=np.int64)
    return np.concatenate(parts).astype(np.int64)


def bimodal_latency(fast: int, slow: int, fast_probability: float) -> LatencyModel:
    """Each edge is *fast* with probability ``fast_probability``, else *slow*.

    This is the distribution behind the paper's lower-bound gadgets
    (Theorem 7): a few hidden fast edges among many slow ones.
    """
    if fast < 1 or slow < 1:
        raise GraphError("latencies must be >= 1")
    if not 0.0 <= fast_probability <= 1.0:
        raise GraphError(f"fast_probability must be in [0, 1], got {fast_probability}")

    def model(_u: Node, _v: Node, rng: random.Random) -> int:
        return fast if rng.random() < fast_probability else slow

    return model


def zipf_latency(max_latency: int, exponent: float = 2.0) -> LatencyModel:
    """Heavy-tailed latencies: ``P(ℓ = k) ∝ k^{-exponent}`` for ``k in [1, max_latency]``.

    Models wide-area networks where most links are fast but a few are very
    slow.  Sampling is done by inverse-CDF over the truncated Zipf weights.
    """
    if max_latency < 1:
        raise GraphError(f"max_latency must be >= 1, got {max_latency}")
    if exponent <= 0:
        raise GraphError(f"exponent must be positive, got {exponent}")
    weights = [k ** (-exponent) for k in range(1, max_latency + 1)]
    total = sum(weights)
    cdf = []
    acc = 0.0
    for w in weights:
        acc += w / total
        cdf.append(acc)

    def model(_u: Node, _v: Node, rng: random.Random) -> int:
        r = rng.random()
        # Linear scan is fine: max_latency is small in practice and the scan
        # usually stops after a couple of steps because the head is heavy.
        for k, threshold in enumerate(cdf, start=1):
            if r <= threshold:
                return k
        return max_latency

    return model


def geometric_distance_latency(
    positions: dict[Node, tuple[float, float]],
    scale: float = 1.0,
    minimum: int = 1,
) -> LatencyModel:
    """Latency proportional to Euclidean distance between node positions.

    Used with random geometric graphs: ``latency = max(minimum,
    round(scale * dist(u, v)))``.  The ``positions`` mapping must cover every
    node the model is asked about.
    """
    if scale <= 0:
        raise GraphError(f"scale must be positive, got {scale}")
    if minimum < 1:
        raise GraphError(f"minimum latency must be >= 1, got {minimum}")

    def model(u: Node, v: Node, _rng: random.Random) -> int:
        if u not in positions or v not in positions:
            raise GraphError(f"no position for edge endpoint ({u!r}, {v!r})")
        (x1, y1), (x2, y2) = positions[u], positions[v]
        dist = math.hypot(x1 - x2, y1 - y2)
        return max(minimum, round(scale * dist))

    return model


def draw_latencies(
    model: LatencyModel, us: np.ndarray, vs: np.ndarray, rng: random.Random
) -> Union[np.ndarray, list]:
    """Latencies of the edges ``(us[k], vs[k])``, consuming ``rng`` exactly
    as calling ``model(us[k], vs[k], rng)`` for each ``k`` in order would.

    A model's bulk draw is used only when ``rng`` is a plain
    ``random.Random`` (a subclass may override the primitives it replays);
    otherwise the model is called per edge and its raw return values come
    back as a list, for the graph constructor to validate.
    """
    bulk = getattr(model, "bulk", None)
    if bulk is not None and type(rng) is random.Random:
        return bulk(len(us), rng)
    return [model(u, v, rng) for u, v in zip(us.tolist(), vs.tolist())]


def resolve_model(latency_model: Optional[LatencyModel]) -> LatencyModel:
    """Default to unit latencies when no model is supplied."""
    return latency_model if latency_model is not None else constant_latency(1)
