"""Tests for the command-line interface."""

import pytest

from repro.cli import main


def _bench_entry(seconds):
    """One workload of a ``bench/run.py`` results file."""
    return {
        "correct": True,
        "absent": [],
        "metrics": {"wall_s": {"value": seconds, "unit": "s"}},
    }


class TestListAndGame:
    def test_list_experiments(self, capsys):
        assert main(["list-experiments"]) == 0
        out = capsys.readouterr().out
        for eid in ("E1", "E8", "E17"):
            assert eid in out

    def test_game_singleton(self, capsys):
        assert main(["game", "--m", "8", "--strategy", "sweep", "--seeds", "3"]) == 0
        assert "Guessing" in capsys.readouterr().out

    def test_game_random_predicate(self, capsys):
        code = main(
            ["game", "--m", "8", "--predicate", "random", "--p", "0.4",
             "--strategy", "adaptive", "--seeds", "2"]
        )
        assert code == 0
        assert "p=0.4" in capsys.readouterr().out


class TestAnalyze:
    def test_analyze_clique(self, capsys):
        assert main(["analyze", "--topology", "clique", "--n", "8"]) == 0
        out = capsys.readouterr().out
        assert "weighted conductance" in out
        assert "ℓ* = 1" in out

    def test_analyze_with_latency_range(self, capsys):
        code = main(
            ["analyze", "--topology", "cycle", "--n", "8",
             "--latency-range", "2", "5", "--method", "exact"]
        )
        assert code == 0
        assert "weighted diameter" in capsys.readouterr().out

    def test_analyze_datacenter(self, capsys):
        code = main(
            ["analyze", "--topology", "datacenter", "--racks", "3",
             "--rack-size", "4", "--inter-latency", "7", "--method", "sweep"]
        )
        assert code == 0


class TestSimulate:
    def test_push_pull_with_curve(self, capsys):
        code = main(
            ["simulate", "--protocol", "push-pull", "--topology", "clique",
             "--n", "16", "--curve"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "push-pull[broadcast]" in out
        assert "informed:" in out

    def test_flooding_push_only(self, capsys):
        code = main(
            ["simulate", "--protocol", "flooding", "--topology", "star",
             "--n", "10", "--push-only"]
        )
        assert code == 0
        assert "flooding[push-only]" in capsys.readouterr().out

    def test_general_eid(self, capsys):
        code = main(
            ["simulate", "--protocol", "general-eid", "--topology", "grid",
             "--rows", "3", "--cols", "3"]
        )
        assert code == 0
        assert "general-eid" in capsys.readouterr().out

    def test_path_discovery(self, capsys):
        code = main(
            ["simulate", "--protocol", "path-discovery", "--topology", "path",
             "--n", "6"]
        )
        assert code == 0
        assert "path-discovery" in capsys.readouterr().out

    def test_unified(self, capsys):
        code = main(
            ["simulate", "--protocol", "unified", "--topology", "clique",
             "--n", "12"]
        )
        assert code == 0
        assert "winner" in capsys.readouterr().out

    def test_bimodal_latency_model(self, capsys):
        code = main(
            ["simulate", "--protocol", "push-pull", "--topology",
             "random-regular", "--n", "16", "--degree", "4",
             "--bimodal", "1", "20", "0.5"]
        )
        assert code == 0

    def test_unknown_topology_is_parse_error(self):
        with pytest.raises(SystemExit):
            main(["simulate", "--topology", "moebius"])

    def test_library_error_returns_code_2(self, capsys):
        # cycle needs n >= 3: GraphError surfaces as exit code 2.
        code = main(["analyze", "--topology", "cycle", "--n", "2"])
        assert code == 2
        assert "error" in capsys.readouterr().err


class TestGraphFiles:
    def test_save_and_load_json(self, tmp_path, capsys):
        path = tmp_path / "graph.json"
        assert main(
            ["analyze", "--topology", "clique", "--n", "6",
             "--save-graph", str(path)]
        ) == 0
        assert path.exists()
        capsys.readouterr()
        assert main(["analyze", "--load-graph", str(path)]) == 0
        out = capsys.readouterr().out
        assert "nodes                 : 6" in out

    def test_save_and_load_edge_list(self, tmp_path, capsys):
        path = tmp_path / "graph.edges"
        assert main(
            ["analyze", "--topology", "path", "--n", "4",
             "--save-graph", str(path)]
        ) == 0
        capsys.readouterr()
        assert main(
            ["simulate", "--protocol", "flooding", "--load-graph", str(path)]
        ) == 0
        assert "flooding" in capsys.readouterr().out

    def test_load_missing_file_errors(self, capsys):
        code = main(["analyze", "--load-graph", "/nonexistent/graph.json"])
        assert code == 2
        assert "error" in capsys.readouterr().err


class TestCheck:
    def test_check_passes_without_experiments(self, capsys):
        assert main(["check", "--experiments", "none"]) == 0
        out = capsys.readouterr().out
        assert "differential push-pull" in out
        assert "replay determinism" in out
        assert "check passed" in out

    def test_check_with_one_experiment(self, capsys):
        assert main(["check", "--experiments", "E6", "--profile", "quick"]) == 0
        assert "checked experiment E6 [quick]" in capsys.readouterr().out

    def test_run_experiment_checked_flag(self, capsys):
        assert main(["run-experiment", "E6", "--checked"]) == 0
        assert "E6" in capsys.readouterr().out


class _FakeDifferentialReport:
    """Stand-in for a DifferentialReport (duck-typed by _cmd_check)."""

    def __init__(self, equivalent, rounds=7, mismatches=()):
        self.equivalent = equivalent
        self.rounds = rounds
        self.mismatches = list(mismatches)


class _FakeReplayReport:
    rounds = 7
    events = ()


class _FakeEIDReport:
    rounds = 5


def _stub_check_internals(monkeypatch, *, diff_ok=True, replay_ok=True):
    """Make the expensive check oracles instant (and optionally failing)."""
    import repro.protocols.eid as eid
    import repro.testing as testing

    diff = _FakeDifferentialReport(
        diff_ok, mismatches=() if diff_ok else ["rumor sets diverge at round 3"]
    )
    monkeypatch.setattr(testing, "run_differential", lambda *a, **k: diff)
    # Same object from both engine factories => fast == slow always holds.
    shared_eid = _FakeEIDReport()
    monkeypatch.setattr(eid, "run_general_eid", lambda *a, **k: shared_eid)
    if replay_ok:
        monkeypatch.setattr(
            testing, "record_and_replay", lambda *a, **k: _FakeReplayReport()
        )
    else:
        from repro.errors import SimulationError

        def diverge(*a, **k):
            raise SimulationError("replay diverged at round 9")

        monkeypatch.setattr(testing, "record_and_replay", diverge)


class TestCheckFailureBranches:
    def test_differential_mismatch_fails_check(self, capsys, monkeypatch):
        _stub_check_internals(monkeypatch, diff_ok=False)
        assert main(["check", "--experiments", "none"]) == 1
        captured = capsys.readouterr()
        assert "FAIL differential push-pull" in captured.out
        assert "check FAILED" in captured.err
        assert "rumor sets diverge at round 3" in captured.err

    def test_replay_divergence_fails_check(self, capsys, monkeypatch):
        _stub_check_internals(monkeypatch, replay_ok=False)
        assert main(["check", "--experiments", "none"]) == 1
        captured = capsys.readouterr()
        assert "FAIL replay determinism" in captured.out
        assert "replay determinism: replay diverged at round 9" in captured.err

    def test_checked_experiment_failure_fails_check(self, capsys, monkeypatch):
        _stub_check_internals(monkeypatch)
        import repro.experiments as experiments
        from repro.errors import SimulationError

        def explode(*a, **k):
            raise SimulationError("invariant violated: crashed node spoke")

        monkeypatch.setattr(experiments, "run_experiment", explode)
        assert main(["check", "--experiments", "E6"]) == 1
        captured = capsys.readouterr()
        assert "FAIL checked experiment E6 [quick]" in captured.out
        assert "invariant violated: crashed node spoke" in captured.err

    def test_stubbed_check_still_passes_clean(self, capsys, monkeypatch):
        _stub_check_internals(monkeypatch)
        assert main(["check", "--experiments", "none"]) == 0
        assert "check passed" in capsys.readouterr().out


class TestTrace:
    def test_trace_push_pull_prints_events_and_counters(self, capsys):
        code = main(
            ["trace", "--topology", "clique", "--n", "6", "--seed", "3",
             "--limit", "5"]
        )
        assert code == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        # The first lines are canonical JSON events.
        import json as _json

        first = _json.loads(lines[0])
        assert first["kind"] in {"initiate", "deliver", "round"}
        assert "... (" in out  # truncation marker past --limit
        assert "events: " in out
        assert "rumors learned: 5" in out
        assert "push-pull[broadcast]" in out

    def test_trace_writes_jsonl_stream(self, capsys, tmp_path):
        path = tmp_path / "trace.jsonl"
        code = main(
            ["trace", "--topology", "cycle", "--n", "5", "--seed", "1",
             "--limit", "0", "--jsonl", str(path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert f"to {path}" in out
        written = path.read_text().splitlines()
        assert written  # full stream regardless of --limit
        import json as _json

        assert all(_json.loads(line)["round"] >= 0 for line in written)

    def test_trace_path_discovery(self, capsys):
        code = main(
            ["trace", "--protocol", "path-discovery", "--topology", "clique",
             "--n", "4", "--limit", "3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "path-discovery: complete at" in out
        assert "phases" in out


class TestProfile:
    def test_profile_prints_span_table_and_manifest(self, capsys):
        assert main(["profile", "E6"]) == 0
        out = capsys.readouterr().out
        assert "experiment.E6" in out
        assert "harness.trial" in out
        assert "mean ms" in out
        assert "manifest: " in out
        assert "repro_jobs=" in out


class TestVectorBackendCLI:
    """--backend plumbing: check legs, simulate runs, eligibility errors."""

    def test_check_vector_backend_stubbed_passes(self, capsys, monkeypatch):
        _stub_check_internals(monkeypatch)
        assert main(["check", "--backend", "vector", "--experiments", "none"]) == 0
        out = capsys.readouterr().out
        assert "(vector vs reference)" in out
        assert "(vector vs scalar)" in out
        assert "general-eid on ring-of-cliques (vector vs scalar)" in out
        assert "skip differential" not in out
        assert "check passed" in out

    def test_check_vector_backend_mismatch_fails(self, capsys, monkeypatch):
        _stub_check_internals(monkeypatch, diff_ok=False)
        assert main(["check", "--backend", "vector", "--experiments", "none"]) == 1
        captured = capsys.readouterr()
        assert "FAIL differential push-pull" in captured.out
        assert "(vector vs reference)" in captured.out
        assert "check FAILED" in captured.err

    def test_backend_flag_accepted_before_subcommand(self, capsys, monkeypatch):
        _stub_check_internals(monkeypatch)
        assert main(["--backend", "vector", "check", "--experiments", "none"]) == 0
        assert "(vector vs scalar)" in capsys.readouterr().out

    def test_scalar_check_has_no_vector_legs(self, capsys, monkeypatch):
        _stub_check_internals(monkeypatch)
        assert main(["check", "--experiments", "none"]) == 0
        out = capsys.readouterr().out
        assert "(scalar vs reference)" in out
        assert "vs scalar)" not in out
        assert "skip differential" not in out

    def test_simulate_vector_matches_scalar_output(self, capsys):
        args = ["simulate", "--protocol", "push-pull", "--topology", "clique",
                "--n", "16"]
        assert main(args) == 0
        scalar_out = capsys.readouterr().out
        assert main(args + ["--backend", "vector"]) == 0
        vector_out = capsys.readouterr().out
        assert "push-pull[broadcast]" in vector_out
        assert vector_out == scalar_out

    def test_simulate_vector_runs_composite_protocol(self, capsys):
        # Composite algorithms dispatch per phase on the vector backend
        # (PR 8); general-eid must run — and match the scalar output.
        args = ["simulate", "--protocol", "general-eid", "--topology",
                "grid", "--rows", "3", "--cols", "3"]
        assert main(args) == 0
        scalar_out = capsys.readouterr().out
        assert main(args + ["--backend", "vector"]) == 0
        assert capsys.readouterr().out == scalar_out

    def test_ineligibility_message_pins_genuinely_ineligible_only(self):
        # The "not vector-backend eligible" diagnostic now fires only for
        # protocols that truly cannot run vectorized (adaptive/ping-only),
        # never for composite algorithms, which dispatch per phase.
        from repro.protocols.discovery import LatencyDiscoveryProtocol
        from repro.protocols.dtg import LDTGProtocol
        from repro.protocols.push_pull import PushPullProtocol
        from repro.sim.vector import vector_refusal

        slug, reason = vector_refusal([LatencyDiscoveryProtocol(2)])
        assert slug == "no-vector-program"
        assert reason == (
            "protocol LatencyDiscoveryProtocol is not vector-backend eligible: it "
            "declares no vector_program() (only oblivious protocols can "
            "run on the vector backend; see docs/MODEL.md §8)"
        )
        import random

        assert vector_refusal([PushPullProtocol(random.Random(0))]) is None
        assert vector_refusal([LDTGProtocol(2)]) is None

    def test_unknown_backend_is_parse_error(self):
        with pytest.raises(SystemExit):
            main(["simulate", "--protocol", "push-pull", "--topology",
                  "clique", "--n", "8", "--backend", "quantum"])

    def test_regress_engine_vector_suite(self, tmp_path, capsys, monkeypatch):
        # The engine suite times both backends and the e2e suite gates
        # bench/run.py results files; engine_vector is not a suite.
        import json

        import repro.benchmarking as benchmarking

        for suite, entry in (
            ("engine", lambda s: {"seconds": s}),
            ("e2e", _bench_entry),
        ):
            report = tmp_path / f"BENCH_{suite}.json"
            base = tmp_path / f"BENCH_{suite}_baseline.json"
            base.write_text(json.dumps({"workloads": {"w": entry(1.0)}}), "utf-8")
            report.write_text(json.dumps({"workloads": {"w": entry(0.5)}}), "utf-8")
            monkeypatch.setitem(benchmarking.SUITE_FILES, suite, (report, base))
            assert main(["regress", "--suite", suite]) == 0
            assert f"regression gate [{suite}]: OK" in capsys.readouterr().out
        with pytest.raises(SystemExit):
            main(["regress", "--suite", "engine_vector"])

    def test_regress_engine_vector_fails_on_slowdown(
        self, tmp_path, capsys, monkeypatch
    ):
        import json

        import repro.benchmarking as benchmarking

        for suite, entry in (
            ("engine", lambda s: {"seconds": s}),
            ("e2e", _bench_entry),
        ):
            report = tmp_path / f"BENCH_{suite}.json"
            base = tmp_path / f"BENCH_{suite}_baseline.json"
            base.write_text(json.dumps({"workloads": {"w": entry(1.0)}}), "utf-8")
            report.write_text(json.dumps({"workloads": {"w": entry(3.0)}}), "utf-8")
            monkeypatch.setitem(benchmarking.SUITE_FILES, suite, (report, base))
            assert main(["regress", "--suite", suite]) == 1
            assert "REGRESSED" in capsys.readouterr().out
