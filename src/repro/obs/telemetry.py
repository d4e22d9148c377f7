"""Per-run time-series telemetry attached to dissemination results.

:class:`RunTelemetry` is the structured answer to "why did this run take
the rounds it did": the coverage curve (how many nodes satisfied the
progress measure at each round), the in-flight backlog curve, and — for
composite protocols driven by a
:class:`~repro.protocols.base.PhaseRunner` — per-phase round/exchange/
wall-clock timings.

It rides on :class:`~repro.sim.metrics.DisseminationResult` as a
``compare=False`` field: two runs with and without telemetry enabled
still compare equal, which is exactly what the recorder-equivalence
property suite asserts.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

__all__ = ["PhaseTiming", "RunTelemetry"]


@dataclasses.dataclass(frozen=True)
class PhaseTiming:
    """One protocol phase: logical cost (rounds/exchanges) plus wall clock.

    Wall-clock ``seconds`` is environment noise by definition; everything
    logical about the phase is in ``rounds``/``exchanges``.
    """

    name: str
    rounds: int
    exchanges: int
    seconds: float
    #: Engine backend the phase executed on: ``"vector"``, ``"scalar"``,
    #: or ``"scalar-fallback"`` (the ``vector`` backend refused the array
    #: round — for the phase's protocol or for a per-exchange run — and
    #: ran the scalar engine over its state).
    backend: str = "scalar"


@dataclasses.dataclass(frozen=True)
class RunTelemetry:
    """Per-round series for one dissemination run.

    Attributes
    ----------
    coverage_curve:
        ``coverage_curve[t]`` is the progress measure at round ``t`` —
        sampled before every executed round and once more at the end, so a
        complete ``r``-round run yields ``r + 1`` samples.  ``None`` when
        the run had no coverage measure (e.g. all-to-all modes).
    in_flight_curve:
        End-of-round in-flight exchange backlog, one sample per executed
        round.
    phase_timings:
        Phase boundaries for composite protocols (empty otherwise).
    """

    coverage_curve: Optional[tuple[int, ...]] = None
    in_flight_curve: tuple[int, ...] = ()
    phase_timings: tuple[PhaseTiming, ...] = ()

    def in_flight_histogram(self) -> dict[int, int]:
        """``{backlog: rounds-at-that-backlog}`` over the run."""
        histogram: dict[int, int] = {}
        for pending in self.in_flight_curve:
            histogram[pending] = histogram.get(pending, 0) + 1
        return dict(sorted(histogram.items()))

    def max_in_flight(self) -> int:
        """Peak in-flight backlog (0 for an empty curve)."""
        return max(self.in_flight_curve, default=0)
