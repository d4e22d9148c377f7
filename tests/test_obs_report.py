"""Tests for ``repro.obs.report`` and the report/regress/version CLI.

The headline property is the issue's acceptance criterion: ``repro
report`` output is **byte-deterministic** across two invocations modulo
lines carrying manifest timestamp fields (``captured_at``).
"""

import json
import random

import pytest

from repro.cli import main
from repro.errors import ObservabilityError
from repro.experiments import artifacts
from repro.graphs import generators
from repro.obs import MemorySink, Recorder, reset_metrics, reset_spans
from repro.obs.regress import compare_benchmarks
from repro.obs.report import (
    TIMESTAMP_FIELDS,
    ascii_sparkline,
    experiment_report,
    markdown_table,
    render_experiment_report,
    render_regression_section,
    render_trace_report,
)
from repro.obs.traces import Trace
from repro.protocols.push_pull import run_push_pull


def _strip_timestamps(text):
    return [
        line
        for line in text.splitlines()
        if not any(field in line for field in TIMESTAMP_FIELDS)
    ]


def _fresh_observability_state():
    # An experiment rerun must start from the same observability state the
    # first run saw: empty artifact cache, zeroed metrics and spans.
    artifacts.clear()
    reset_metrics()
    reset_spans()


class TestBuildingBlocks:
    def test_markdown_table_formats_cells(self):
        table = markdown_table(
            ("a", "b", "c"), [(True, 0.123456789, "text"), (False, 2, None)]
        )
        lines = table.splitlines()
        assert lines[0] == "| a | b | c |"
        assert lines[1] == "|---|---|---|"
        assert lines[2] == "| yes | 0.123457 | text |"
        assert lines[3] == "| no | 2 | None |"

    def test_sparkline_scales_to_max(self):
        line = ascii_sparkline([0, 1, 2, 4])
        assert len(line) == 4
        assert line[0] == "▁"
        assert line[-1] == "█"

    def test_sparkline_downsamples_to_width(self):
        assert len(ascii_sparkline(list(range(1000)), width=60)) == 60

    def test_sparkline_edge_cases(self):
        assert ascii_sparkline([]) == "(empty)"
        assert ascii_sparkline([0, 0]) == "▁▁"


class TestTraceReport:
    def _trace(self):
        graph = generators.ring_of_cliques(
            3, 4, inter_latency=5, rng=random.Random(0)
        )
        memory = MemorySink()
        with Recorder(memory) as recorder:
            run_push_pull(graph, seed=1, recorder=recorder)
        return Trace.from_events(memory.events)

    def test_sections_present(self):
        text = render_trace_report(self._trace(), title="demo")
        assert text.startswith("# repro report — demo\n")
        for heading in (
            "## Stats",
            "## Events by kind",
            "## Coverage curve",
            "## Delivery latency distribution",
            "## Activated-edge churn",
        ):
            assert heading in text
        assert "| initiate |" in text
        assert text.endswith("\n")

    def test_trace_report_is_deterministic(self):
        assert render_trace_report(self._trace()) == render_trace_report(
            self._trace()
        )


class TestExperimentReport:
    def test_byte_deterministic_modulo_captured_at(self):
        _fresh_observability_state()
        first = experiment_report("E5", profile="quick")
        _fresh_observability_state()
        second = experiment_report("E5", profile="quick")
        assert _strip_timestamps(first) == _strip_timestamps(second)

    def test_sections_and_gate(self):
        _fresh_observability_state()
        text = experiment_report("E5", profile="quick")
        for heading in (
            "## Result",
            "## Manifest",
            "## Metrics",
            "## Span profile",
            "## Regression gate",
        ):
            assert heading in text
        assert "sim_runs_total" in text
        assert "Wall-clock columns omitted" in text
        assert "**Overall verdict: ok**" in text

    def test_no_gate_omits_regression_section(self):
        _fresh_observability_state()
        text = experiment_report("E5", profile="quick", gate=False)
        assert "## Regression gate" not in text

    def test_timings_opt_in(self):
        _fresh_observability_state()
        text = experiment_report("E5", profile="quick", include_timings=True)
        assert "total s" in text
        assert "Wall-clock columns omitted" not in text

    def test_render_handles_minimal_table(self):
        class FakeTable:
            experiment_id = "EX"
            title = "fake"
            columns = ("n", "rounds")
            rows = [{"n": 4, "rounds": 7}]
            expectation = ""
            conclusion = ""
            manifest = None
            metrics = None

        text = render_experiment_report(FakeTable())
        assert "# repro report — EX: fake" in text
        assert "| 4 | 7 |" in text
        assert "## Manifest" not in text
        assert "## Metrics" not in text


class TestRegressionSection:
    def test_rows_and_overall_verdict(self):
        report = compare_benchmarks(
            {"workloads": {"w": {"seconds": 4.0}}},
            {"workloads": {"w": {"seconds": 1.0}}},
            suite="demo",
        )
        lines = render_regression_section([report])
        text = "\n".join(lines)
        assert "| demo | w | REGRESSED | 4.00x |" in text
        assert "**Overall verdict: REGRESSED**" in text

    def test_empty_reports_hint(self):
        text = "\n".join(render_regression_section([]))
        assert "no benchmark reports found" in text


class TestCli:
    def test_version_flag(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out.strip() == f"repro {__version__}"

    def test_trace_stats(self, capsys):
        code = main(
            ["trace", "--topology", "clique", "--n", "6", "--stats"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "max round:" in out
        assert "deliver" in out
        assert "delivery latency (rounds):" in out

    def test_report_experiment_to_file(self, tmp_path, capsys):
        _fresh_observability_state()
        out_path = tmp_path / "report.md"
        code = main(
            ["report", "E5", "--profile", "quick", "--no-gate",
             "--output", str(out_path)]
        )
        assert code == 0
        text = out_path.read_text("utf-8")
        assert text.startswith("# repro report — E5")
        assert str(out_path) in capsys.readouterr().out

    def test_report_trace_file(self, tmp_path, capsys):
        trace_path = tmp_path / "run.jsonl"
        main(
            ["trace", "--topology", "clique", "--n", "6",
             "--jsonl", str(trace_path), "--limit", "0"]
        )
        capsys.readouterr()
        code = main(["report", "--trace", str(trace_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "## Events by kind" in out
        assert "## Coverage curve" in out

    def test_report_without_target_errors(self, capsys):
        code = main(["report"])
        assert code == 2
        assert "needs an experiment id" in capsys.readouterr().err

    def test_regress_cli_ok_and_json(self, tmp_path, capsys):
        json_path = tmp_path / "verdict.json"
        code = main(["regress", "--suite", "all", "--json", str(json_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "regression gate [engine]: OK" in out
        payload = json.loads(json_path.read_text("utf-8"))
        assert all(
            entry["schema"] == "repro-regression-gate/1" for entry in payload
        )

    def test_regress_cli_fails_on_injected_slowdown(self, tmp_path, capsys, monkeypatch):
        import repro.benchmarking as benchmarking

        slow = tmp_path / "BENCH_engine.json"
        base = tmp_path / "BENCH_engine_baseline.json"
        base.write_text(
            json.dumps({"workloads": {"w": {"seconds": 1.0}}}), "utf-8"
        )
        slow.write_text(
            json.dumps({"workloads": {"w": {"seconds": 2.0}}}), "utf-8"
        )
        monkeypatch.setitem(benchmarking.SUITE_FILES, "engine", (slow, base))
        code = main(["regress", "--suite", "engine"])
        assert code == 1
        assert "REGRESSED" in capsys.readouterr().out
