"""Tests for the perf-regression gate (``repro.obs.regress``).

The acceptance pair from the issue: an **injected 2x slowdown** must
flag, and the **committed real baselines** must pass — the gate is a
tripwire, not a noise machine.
"""

import json
import pathlib

import pytest

from repro.benchmarking import microbenchmark_suite
from repro.errors import ObservabilityError
from repro.obs.regress import (
    DEFAULT_NOISE_FLOOR,
    DEFAULT_THRESHOLD,
    GATE_SUITES,
    compare_benchmarks,
    gate_suite,
    gate_suites,
)


def _report(**seconds):
    return {"workloads": {name: {"seconds": s} for name, s in seconds.items()}}


def _bench_file(**seconds):
    """A ``bench/run.py`` results file: one untraced run per workload."""
    return {
        "schema": "repro-bench/1",
        "seed": 0,
        "smoke": False,
        "trace": False,
        "workloads": {
            name: {
                "correct": True,
                "attempted": 1,
                "failed": 0,
                "absent": [],
                "metrics": {
                    "wall_s": {"value": s, "unit": "s"},
                    "setup_s": {"value": 0.5, "unit": "s"},
                    "peak_rss_mb": {"value": 100.0, "unit": "MB"},
                },
            }
            for name, s in seconds.items()
        },
    }


def _benchmark_spec_workloads():
    root = pathlib.Path(__file__).resolve().parents[1]
    spec = json.loads((root / "BENCHMARK.json").read_text("utf-8"))
    return {workload["name"] for workload in spec["workloads"]}


class TestCompareBenchmarks:
    def test_injected_2x_slowdown_flags(self):
        baseline = _report(fast=2.0, steady=1.0)
        current = _report(fast=4.0, steady=1.0)  # 2x on 'fast'
        report = compare_benchmarks(current, baseline, suite="demo")
        assert report.regressed
        assert report.verdict == "regressed"
        by_name = {v.name: v for v in report.workloads}
        assert by_name["fast"].status == "regressed"
        assert by_name["fast"].failed
        assert by_name["fast"].ratio == pytest.approx(2.0)
        assert by_name["steady"].status == "ok"
        assert not by_name["steady"].failed

    def test_within_threshold_passes(self):
        report = compare_benchmarks(
            _report(w=1.2), _report(w=1.0), threshold=1.25
        )
        assert not report.regressed
        assert report.workloads[0].budget_seconds == pytest.approx(1.25)

    def test_noise_floor_suppresses_millisecond_jitter(self):
        # 3x ratio, but the absolute delta (4 ms) is under the 50 ms floor.
        report = compare_benchmarks(_report(tiny=0.006), _report(tiny=0.002))
        assert not report.regressed
        assert report.workloads[0].status == "ok"
        # with the floor removed the same numbers flag
        report = compare_benchmarks(
            _report(tiny=0.006), _report(tiny=0.002), noise_floor=0.0
        )
        assert report.regressed

    def test_budget_is_max_of_relative_and_absolute(self):
        # baseline 1.0s: budget = max(1.25, 1.05) = 1.25
        report = compare_benchmarks(_report(w=1.3), _report(w=1.0))
        assert report.regressed
        # baseline 0.1s: budget = max(0.125, 0.15) = 0.15
        report = compare_benchmarks(_report(w=0.14), _report(w=0.1))
        assert not report.regressed

    def test_new_workload_never_fails(self):
        report = compare_benchmarks(
            _report(brand_new=99.0, shared=1.0), _report(shared=1.0)
        )
        assert not report.regressed
        verdict = report.workloads[0]
        assert verdict.name == "brand_new"
        assert verdict.status == "new"
        assert not verdict.failed
        assert verdict.baseline_seconds is None

    def test_missing_workload_fails_only_under_strict(self):
        baseline = _report(dropped=1.0, shared=1.0)
        lenient = compare_benchmarks(_report(shared=1.0), baseline)
        assert not lenient.regressed
        assert lenient.workloads[0].status == "missing"
        strict = compare_benchmarks(_report(shared=1.0), baseline, strict=True)
        assert strict.regressed
        assert strict.workloads[0].failed

    def test_zero_overlap_fails(self):
        # Only new and missing workloads: the gate measured nothing, so
        # it must not pass.
        report = compare_benchmarks(
            _report(fresh=1.0), _report(gone=1.0), suite="s"
        )
        assert report.regressed
        assert not report.compared
        assert not any(v.failed for v in report.workloads)
        assert "FAIL nothing compared" in report.summary().splitlines()[1]
        assert compare_benchmarks(_report(), _report()).regressed

    def test_per_workload_threshold_override(self):
        current, baseline = _report(noisy=1.8), _report(noisy=1.0)
        assert compare_benchmarks(current, baseline).regressed
        report = compare_benchmarks(
            current, baseline, per_workload_thresholds={"noisy": 2.0}
        )
        assert not report.regressed

    def test_invalid_parameters_raise(self):
        with pytest.raises(ObservabilityError, match="threshold"):
            compare_benchmarks(_report(), _report(), threshold=0)
        with pytest.raises(ObservabilityError, match="noise_floor"):
            compare_benchmarks(_report(), _report(), noise_floor=-1)

    def test_malformed_report_raises(self):
        with pytest.raises(ObservabilityError, match="workloads"):
            compare_benchmarks({}, _report())
        with pytest.raises(ObservabilityError, match="workloads"):
            compare_benchmarks(_report(), {"workloads": []})

    def test_zero_baseline_is_infinite_ratio(self):
        report = compare_benchmarks(_report(w=1.0), _report(w=0.0))
        assert report.workloads[0].ratio == float("inf")
        assert report.regressed


class TestReportShape:
    def test_to_dict_schema(self):
        report = compare_benchmarks(
            _report(b=4.0, a=1.0), _report(b=2.0, a=1.0), suite="demo"
        )
        payload = report.to_dict()
        assert payload["schema"] == "repro-regression-gate/1"
        assert payload["suite"] == "demo"
        assert payload["verdict"] == "regressed"
        assert payload["threshold"] == DEFAULT_THRESHOLD
        assert payload["noise_floor_seconds"] == DEFAULT_NOISE_FLOOR
        names = [w["name"] for w in payload["workloads"]]
        assert names == sorted(names)
        assert json.dumps(payload)  # JSON-serializable end to end

    def test_summary_text_failures_first(self):
        report = compare_benchmarks(
            _report(alpha=1.0, zeta=4.0), _report(alpha=1.0, zeta=2.0),
            suite="demo",
        )
        summary = report.summary()
        lines = summary.splitlines()
        assert lines[0].startswith("regression gate [demo]: REGRESSED")
        assert lines[1].startswith("  FAIL zeta")
        assert "2.00x" in lines[1]
        assert lines[2].startswith("  ok   alpha")

    def test_summary_mentions_new_and_missing(self):
        report = compare_benchmarks(
            _report(fresh=1.0), _report(gone=1.0), suite="s"
        )
        summary = report.summary()
        assert "fresh: new workload (no baseline)" in summary
        assert "gone: in baseline but not measured" in summary


class TestFileGates:
    def _write(self, tmp_path, name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload), encoding="utf-8")
        return path

    def test_gate_suite_with_injected_slowdown_fixture(self, tmp_path):
        report_path = self._write(
            tmp_path, "BENCH_demo.json", _report(workload=2.0)
        )
        baseline_path = self._write(
            tmp_path, "BENCH_demo_baseline.json", _report(workload=1.0)
        )
        report = gate_suite(
            "engine", report_path=report_path, baseline_path=baseline_path
        )
        assert report.regressed
        assert report.suite == "engine"

    def test_gate_suite_missing_file_raises(self, tmp_path):
        with pytest.raises(ObservabilityError, match="does not exist"):
            gate_suite(
                "engine",
                report_path=tmp_path / "nope.json",
                baseline_path=tmp_path / "nope2.json",
            )

    def test_gate_suite_invalid_json_raises(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{", encoding="utf-8")
        with pytest.raises(ObservabilityError, match="not valid JSON"):
            gate_suite("engine", report_path=bad, baseline_path=bad)

    def test_unknown_suite_raises(self):
        with pytest.raises(ObservabilityError, match="unknown gate suite"):
            gate_suite("no-such-suite")

    def test_committed_baselines_pass(self):
        # The acceptance criterion: the real BENCH_*.json in the repo must
        # clear the gate against their committed baselines.
        reports = gate_suites(skip_missing=True)
        assert reports, "no committed benchmark reports found"
        for report in reports:
            assert not report.regressed, report.summary()
            assert report.suite in GATE_SUITES


class TestE2EGate:
    """The ``e2e`` suite gates ``bench/run.py`` results files."""

    def _gate(self, tmp_path, current, baseline):
        report_path = tmp_path / "BENCH_e2e.json"
        baseline_path = tmp_path / "BENCH_e2e_baseline.json"
        report_path.write_text(json.dumps(current), encoding="utf-8")
        baseline_path.write_text(json.dumps(baseline), encoding="utf-8")
        return gate_suite(
            "e2e", report_path=report_path, baseline_path=baseline_path
        )

    def test_wall_s_is_the_gated_seconds(self, tmp_path):
        report = self._gate(
            tmp_path, _bench_file(a=4.0, b=1.0), _bench_file(a=2.0, b=1.0)
        )
        assert report.regressed
        by_name = {v.name: v for v in report.workloads}
        assert by_name["a"].status == "regressed"
        assert by_name["a"].ratio == pytest.approx(2.0)
        assert by_name["b"].status == "ok"
        assert not self._gate(
            tmp_path, _bench_file(a=2.1, b=1.0), _bench_file(a=2.0, b=1.0)
        ).regressed

    @pytest.mark.parametrize("side", ["current", "baseline"])
    def test_refuses_smoke_file(self, tmp_path, side):
        files = {"current": _bench_file(a=1.0), "baseline": _bench_file(a=1.0)}
        files[side]["smoke"] = True
        with pytest.raises(ObservabilityError, match="smoke"):
            self._gate(tmp_path, files["current"], files["baseline"])

    @pytest.mark.parametrize("side", ["current", "baseline"])
    def test_refuses_incorrect_file(self, tmp_path, side):
        files = {"current": _bench_file(a=1.0), "baseline": _bench_file(a=1.0)}
        files[side]["workloads"]["a"]["correct"] = False
        with pytest.raises(ObservabilityError, match="a failed its output checks"):
            self._gate(tmp_path, files["current"], files["baseline"])

    @pytest.mark.parametrize("how", ["listed_absent", "wall_s_missing"])
    @pytest.mark.parametrize("side", ["current", "baseline"])
    def test_refuses_absent_metric(self, tmp_path, side, how):
        files = {"current": _bench_file(a=1.0), "baseline": _bench_file(a=1.0)}
        entry = files[side]["workloads"]["a"]
        if how == "listed_absent":
            # run.py reads an absent metric as 0 and lists it here.
            entry["absent"] = ["peak_rss_mb"]
            entry["metrics"]["peak_rss_mb"]["value"] = 0
        else:
            del entry["metrics"]["wall_s"]
        with pytest.raises(ObservabilityError, match="a has an absent metric"):
            self._gate(tmp_path, files["current"], files["baseline"])


class TestCommittedRecord:
    """Every committed report is compared, against live baselines."""

    @pytest.mark.parametrize("suite", GATE_SUITES)
    def test_every_measured_workload_has_a_baseline(self, suite):
        new = [v.name for v in gate_suite(suite).workloads if v.status == "new"]
        assert not new, f"{suite}: no baseline entry for {new}"

    @pytest.mark.parametrize("suite", GATE_SUITES)
    def test_every_baseline_entry_is_a_defined_workload(self, suite):
        baselined = {
            v.name
            for v in gate_suite(suite).workloads
            if v.baseline_seconds is not None
        }
        if suite == "e2e":
            assert baselined == _benchmark_spec_workloads()
            return
        defined = {
            workload.name
            for profile in ("quick", "full")
            for workload in microbenchmark_suite(suite, profile)
        }
        assert baselined <= defined, sorted(baselined - defined)
