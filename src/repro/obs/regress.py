"""Automated perf-regression gating over the committed benchmark reports.

Every benchmark suite writes a ``BENCH_<suite>.json`` report and commits
a ``BENCH_<suite>_baseline.json`` capturing the numbers a slower, older
revision produced (see :mod:`repro.benchmarking`).  Until now a slowdown
was only visible to someone eyeballing those files; this module turns
the comparison into a machine-checkable verdict wired into CI:

* :func:`compare_benchmarks` — per-workload relative thresholds with a
  noise floor (sub-floor timings never flag: on shared CI boxes a 2x on
  a 5 ms workload is scheduler jitter, a 2x on 2 s is a regression);
* :func:`gate_suite` / :func:`gate_suites` — load the report/baseline
  pair of a named suite of :data:`SUITE_FILES` straight from
  ``benchmarks/results/`` and gate them.  The ``e2e``
  pair are ``bench/run.py`` results files: each workload's
  ``metrics.wall_s.value`` is its seconds, and a smoke run, a failed
  output check or an absent metric is refused, not gated;
* :meth:`RegressionReport.to_dict` — the machine-readable verdict CI
  archives, and :meth:`RegressionReport.summary` — the human account.

Gate semantics: a workload **regresses** when its current time exceeds
``max(threshold × baseline, baseline + noise_floor)``, and a suite in
which no workload has both a current and a baseline entry fails: it
compared nothing.  The committed
baselines are deliberately *pre-optimization* captures, so the default
gate is a loud catastrophic-regression tripwire (current code is many
times faster); re-bless a baseline with
``python -m repro.benchmarking --write-baseline`` to tighten it after a
perf PR.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
from typing import Any, Mapping, Optional

from repro.errors import ObservabilityError

__all__ = [
    "WorkloadVerdict",
    "RegressionReport",
    "compare_benchmarks",
    "gate_suite",
    "gate_suites",
    "GATE_SUITES",
    "SUITE_FILES",
]

#: Default relative threshold: current may be up to 25% over baseline.
DEFAULT_THRESHOLD = 1.25
#: Default absolute noise floor in seconds: differences smaller than this
#: never flag, whatever the ratio.
DEFAULT_NOISE_FLOOR = 0.05

RESULTS_DIR = pathlib.Path(__file__).resolve().parents[3] / "benchmarks" / "results"

#: The benchmark record: suite name -> (report file, baseline file).  The
#: runner (:mod:`repro.benchmarking`), the gates and ``repro regress``
#: all read it; the ``e2e`` pair are ``bench/run.py`` results files.
SUITE_FILES: dict[str, tuple[pathlib.Path, pathlib.Path]] = {
    suite: (
        RESULTS_DIR / f"BENCH_{suite}.json",
        RESULTS_DIR / f"BENCH_{suite}_baseline.json",
    )
    for suite in ("engine", "engine_scale", "conductance", "e2e")
}

#: Suites the file-level gates know how to locate.
GATE_SUITES = tuple(SUITE_FILES)


@dataclasses.dataclass(frozen=True)
class WorkloadVerdict:
    """The gate's decision for one benchmark workload.

    ``status`` is one of ``ok`` (within budget), ``regressed`` (over
    budget), ``new`` (no baseline entry), or ``missing`` (baseline entry
    with no current measurement).  ``missing`` only fails the gate under
    ``strict=True``: baselines are captured with ``--profile both`` while
    a quick CI run measures the quick subset, so a plain subset report is
    routine — but a strict full-suite gate should fail on it, otherwise
    deleting a benchmark "fixes" its regression.
    """

    name: str
    status: str
    current_seconds: Optional[float]
    baseline_seconds: Optional[float]
    ratio: Optional[float]
    budget_seconds: Optional[float]
    failed: bool = False
    detail: str = ""


@dataclasses.dataclass(frozen=True)
class RegressionReport:
    """All workload verdicts for one suite plus the overall verdict."""

    suite: str
    verdict: str  # "ok" | "regressed"
    threshold: float
    noise_floor: float
    workloads: tuple[WorkloadVerdict, ...]

    @property
    def regressed(self) -> bool:
        return self.verdict == "regressed"

    @property
    def compared(self) -> bool:
        """Whether any workload had both a current and a baseline entry."""
        return any(v.status in ("ok", "regressed") for v in self.workloads)

    def to_dict(self) -> dict[str, Any]:
        """The machine-readable verdict (canonically ordered)."""
        return {
            "schema": "repro-regression-gate/1",
            "suite": self.suite,
            "verdict": self.verdict,
            "threshold": self.threshold,
            "noise_floor_seconds": self.noise_floor,
            "workloads": [
                dataclasses.asdict(verdict)
                for verdict in sorted(self.workloads, key=lambda v: v.name)
            ],
        }

    def summary(self) -> str:
        """The human account, one line per workload, failures first."""
        lines = [
            f"regression gate [{self.suite}]: {self.verdict.upper()} "
            f"(threshold {self.threshold:g}x, noise floor "
            f"{self.noise_floor:g}s)"
        ]
        if not self.compared:
            lines.append(
                "  FAIL nothing compared: no workload has both a current "
                "and a baseline entry"
            )
        ordered = sorted(self.workloads, key=lambda v: (not v.failed, v.name))
        for v in ordered:
            marker = "FAIL" if v.failed else "ok  "
            if v.status == "new":
                lines.append(f"  {marker} {v.name}: new workload (no baseline)")
            elif v.status == "missing":
                lines.append(
                    f"  {marker} {v.name}: in baseline but not measured "
                    "(profile subset, or a dropped workload)"
                )
            else:
                lines.append(
                    f"  {marker} {v.name}: {v.current_seconds:.4f}s vs baseline "
                    f"{v.baseline_seconds:.4f}s ({v.ratio:.2f}x, budget "
                    f"{v.budget_seconds:.4f}s)"
                )
        return "\n".join(lines)


def _workloads_of(report: Mapping[str, Any], role: str) -> dict[str, Any]:
    workloads = report.get("workloads")
    if not isinstance(workloads, dict):
        raise ObservabilityError(f"{role} report has no 'workloads' mapping")
    return workloads


def compare_benchmarks(
    current: Mapping[str, Any],
    baseline: Mapping[str, Any],
    suite: str = "bench",
    threshold: float = DEFAULT_THRESHOLD,
    noise_floor: float = DEFAULT_NOISE_FLOOR,
    per_workload_thresholds: Optional[Mapping[str, float]] = None,
    strict: bool = False,
) -> RegressionReport:
    """Gate a benchmark report dict against a baseline report dict.

    Both dicts use the :mod:`repro.benchmarking` report shape (a
    ``workloads`` mapping of ``{name: {"seconds": ...}}``).
    ``per_workload_thresholds`` overrides the relative threshold for
    individual workloads (e.g. a known-noisy one); ``strict=True`` fails
    baseline workloads absent from the current report.  A report
    sharing no workload with its baseline fails: it compared nothing.
    """
    if threshold <= 0:
        raise ObservabilityError(f"threshold must be > 0, got {threshold}")
    if noise_floor < 0:
        raise ObservabilityError(f"noise_floor must be >= 0, got {noise_floor}")
    overrides = dict(per_workload_thresholds or {})
    current_workloads = _workloads_of(current, "current")
    baseline_workloads = _workloads_of(baseline, "baseline")
    verdicts: list[WorkloadVerdict] = []
    for name in sorted(set(current_workloads) | set(baseline_workloads)):
        entry = current_workloads.get(name)
        base = baseline_workloads.get(name)
        if base is None:
            verdicts.append(
                WorkloadVerdict(
                    name=name,
                    status="new",
                    current_seconds=float(entry["seconds"]),
                    baseline_seconds=None,
                    ratio=None,
                    budget_seconds=None,
                    detail="no baseline entry; gate skipped",
                )
            )
            continue
        if entry is None:
            verdicts.append(
                WorkloadVerdict(
                    name=name,
                    status="missing",
                    current_seconds=None,
                    baseline_seconds=float(base["seconds"]),
                    ratio=None,
                    budget_seconds=None,
                    failed=strict,
                    detail="baseline workload not present in current report",
                )
            )
            continue
        seconds = float(entry["seconds"])
        base_seconds = float(base["seconds"])
        workload_threshold = overrides.get(name, threshold)
        budget = max(workload_threshold * base_seconds, base_seconds + noise_floor)
        ratio = seconds / base_seconds if base_seconds > 0 else float("inf")
        status = "regressed" if seconds > budget else "ok"
        verdicts.append(
            WorkloadVerdict(
                name=name,
                status=status,
                current_seconds=seconds,
                baseline_seconds=base_seconds,
                ratio=round(ratio, 4),
                budget_seconds=round(budget, 4),
                failed=status == "regressed",
            )
        )
    report = RegressionReport(
        suite=suite,
        verdict="regressed" if any(v.failed for v in verdicts) else "ok",
        threshold=threshold,
        noise_floor=noise_floor,
        workloads=tuple(verdicts),
    )
    if not report.compared:
        report = dataclasses.replace(report, verdict="regressed")
    return report


def _load(path: pathlib.Path, role: str) -> dict[str, Any]:
    if not path.exists():
        raise ObservabilityError(
            f"{role} file {path} does not exist; run the benchmark suite "
            "first (python -m repro.benchmarking, or bench/run.py for e2e)"
        )
    try:
        return json.loads(path.read_text("utf-8"))
    except json.JSONDecodeError as error:
        raise ObservabilityError(f"{role} file {path} is not valid JSON: {error}")


def _bench_results(results: Mapping[str, Any], role: str) -> dict[str, Any]:
    """A ``bench/run.py`` results file as a report: ``wall_s`` seconds.

    Only a full-size run whose every output check passed and which
    measured every end-to-end metric is a measurement; anything else is
    refused rather than gated.
    """
    if results.get("smoke"):
        raise ObservabilityError(f"{role} is a --smoke run, not a measurement")
    workloads = {}
    for name, entry in _workloads_of(results, role).items():
        if entry.get("correct") is not True:
            raise ObservabilityError(f"{role}: {name} failed its output checks")
        metrics = entry.get("metrics", {})
        if entry.get("absent") or "value" not in metrics.get("wall_s", {}):
            raise ObservabilityError(f"{role}: {name} has an absent metric")
        workloads[name] = {"seconds": metrics["wall_s"]["value"]}
    return {"workloads": workloads}


def gate_suite(
    suite: str,
    threshold: float = DEFAULT_THRESHOLD,
    noise_floor: float = DEFAULT_NOISE_FLOOR,
    report_path: Optional[pathlib.Path] = None,
    baseline_path: Optional[pathlib.Path] = None,
    strict: bool = False,
) -> RegressionReport:
    """Gate one named suite's files under ``benchmarks/results/``.

    Explicit ``report_path`` / ``baseline_path`` override the standard
    locations (the fixture-injection hook the gate tests use).
    """
    default_report, default_baseline = SUITE_FILES.get(suite, (None, None))
    report_file = report_path or default_report
    baseline_file = baseline_path or default_baseline
    if report_file is None or baseline_file is None:
        raise ObservabilityError(
            f"unknown gate suite {suite!r}; use one of {GATE_SUITES}"
        )
    current = _load(pathlib.Path(report_file), "benchmark report")
    baseline = _load(pathlib.Path(baseline_file), "baseline")
    if suite == "e2e":
        current = _bench_results(current, "benchmark report")
        baseline = _bench_results(baseline, "baseline")
    return compare_benchmarks(
        current,
        baseline,
        suite=suite,
        threshold=threshold,
        noise_floor=noise_floor,
        strict=strict,
    )


def gate_suites(
    suites: tuple[str, ...] = GATE_SUITES,
    threshold: float = DEFAULT_THRESHOLD,
    noise_floor: float = DEFAULT_NOISE_FLOOR,
    skip_missing: bool = False,
    strict: bool = False,
) -> list[RegressionReport]:
    """Gate several suites; with ``skip_missing`` absent reports are skipped.

    ``skip_missing=True`` is for local runs where only one suite has been
    benchmarked; CI generates all reports first and gates every suite.
    """
    reports = []
    for suite in suites:
        report_file, _ = SUITE_FILES.get(suite, (None, None))
        if skip_missing and report_file is not None and not report_file.exists():
            continue
        reports.append(
            gate_suite(
                suite, threshold=threshold, noise_floor=noise_floor, strict=strict
            )
        )
    return reports
