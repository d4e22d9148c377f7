"""Integration tests for the experiment registry and harness."""

import pytest

from repro.errors import ExperimentError
from repro.experiments import all_experiments, get_experiment
from repro.experiments.harness import (
    ExperimentTable,
    map_trials,
    register,
    run_experiment,
    seeds_for,
    trial_jobs,
    validate_profile,
)


class TestHarness:
    def test_registry_covers_design_index(self):
        expected = {
            "E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9",
            "E10", "E11", "E12", "E13", "E14", "E15", "E16", "E17",
        }
        assert set(all_experiments()) == expected

    def test_get_experiment_unknown_id(self):
        with pytest.raises(ExperimentError):
            get_experiment("E99")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ExperimentError):
            register("E1")(lambda profile: None)

    def test_seeds_for_profiles(self):
        assert len(list(seeds_for("quick", quick=3))) == 3
        assert len(list(seeds_for("full", full=7))) == 7
        with pytest.raises(ExperimentError):
            seeds_for("enormous")

    def test_table_column_access(self):
        table = ExperimentTable(
            experiment_id="X",
            title="t",
            columns=["a", "b"],
            rows=[{"a": 1, "b": 2}, {"a": 3, "b": 4}],
        )
        assert table.column("a") == [1, 3]
        with pytest.raises(ExperimentError):
            table.column("missing")

    def test_table_column_rejects_incomplete_rows(self):
        table = ExperimentTable(
            experiment_id="X",
            title="t",
            columns=["a", "b"],
            rows=[{"a": 1, "b": 2}, {"a": 3}],  # second row is missing "b"
        )
        assert table.column("a") == [1, 3]
        with pytest.raises(ExperimentError, match="missing column 'b'"):
            table.column("b")

    def test_validate_profile(self):
        assert validate_profile("quick") == "quick"
        assert validate_profile("full") == "full"
        with pytest.raises(ExperimentError, match="unknown profile"):
            validate_profile("fulll")

    def test_run_experiment_rejects_unknown_profile_early(self):
        # Must fail on the profile before touching the experiment itself.
        with pytest.raises(ExperimentError, match="unknown profile"):
            run_experiment("E1", profile="enormous")
        with pytest.raises(ExperimentError, match="unknown experiment"):
            run_experiment("E99", profile="quick")

    def test_run_experiment_checked(self):
        table = run_experiment("E6", profile="quick", checked=True)
        assert table.experiment_id == "E6"
        assert table.rows

    def test_trial_jobs_parsing(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert trial_jobs() == 1
        monkeypatch.setenv("REPRO_JOBS", "")
        assert trial_jobs() == 1
        monkeypatch.setenv("REPRO_JOBS", "1")
        assert trial_jobs() == 1
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert trial_jobs() == 3
        monkeypatch.setenv("REPRO_JOBS", "auto")
        assert trial_jobs() >= 1
        monkeypatch.setenv("REPRO_JOBS", "0")
        assert trial_jobs() >= 1
        monkeypatch.setenv("REPRO_JOBS", "many")
        with pytest.raises(ExperimentError, match="REPRO_JOBS"):
            trial_jobs()
        monkeypatch.setenv("REPRO_JOBS", "-2")
        with pytest.raises(ExperimentError, match="REPRO_JOBS"):
            trial_jobs()

    def test_map_trials_serial_and_parallel_agree(self, monkeypatch):
        items = list(range(8))
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        serial = map_trials(abs, items)
        monkeypatch.setenv("REPRO_JOBS", "2")
        parallel = map_trials(abs, items)  # abs is picklable
        assert serial == parallel == items

    def test_map_trials_preserves_order(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "2")
        assert map_trials(str, [3, 1, 2]) == ["3", "1", "2"]

    @pytest.mark.parametrize("experiment_id", ["E1", "E5", "E12"])
    def test_parallel_rows_bit_identical_to_serial(self, experiment_id, monkeypatch):
        # Three newly parallelized experiments (a guessing-game seed
        # ladder, a gossip seed ladder, and a config fan-out) must produce
        # bit-identical tables under REPRO_JOBS=2.
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        serial = run_experiment(experiment_id, "quick")
        monkeypatch.setenv("REPRO_JOBS", "2")
        parallel = run_experiment(experiment_id, "quick")
        assert parallel.rows == serial.rows
        assert parallel.conclusion == serial.conclusion

    def test_table_renders(self):
        table = ExperimentTable(
            experiment_id="X",
            title="demo",
            columns=["v", "ok"],
            rows=[{"v": 1.23456, "ok": True}],
            expectation="something",
            conclusion="held",
        )
        text = table.to_text()
        assert "demo" in text
        assert "1.23" in text
        assert "yes" in text
        assert "expectation: something" in text
        assert "conclusion: held" in text


class TestTableMetricsIgnoreRunOrder:
    def test_e5_table_bytes_unchanged_by_an_earlier_e6(self):
        # E6 raises the process-global sim_state_bytes peak above E5's;
        # E5's table must still report the peak reached in its own run.
        from repro.experiments.sharding import table_to_json

        alone = table_to_json(run_experiment("E5", "quick"))
        run_experiment("E6", "quick")
        assert table_to_json(run_experiment("E5", "quick")) == alone


class TestFastExperimentsRun:
    """Smoke-run the cheap experiments end to end (quick profile)."""

    @pytest.mark.parametrize(
        "experiment_id", ["E1", "E2", "E12", "E13", "E16", "E17"]
    )
    def test_runs_and_fills_table(self, experiment_id):
        table = get_experiment(experiment_id)("quick")
        assert table.experiment_id == experiment_id
        assert table.rows
        assert table.columns
        for row in table.rows:
            for column in table.columns:
                assert column in row

    def test_e1_linear_shape(self):
        table = get_experiment("E1")("quick")
        adaptive = table.column("adaptive_rounds")
        assert adaptive[-1] > adaptive[0]

    def test_e12_structure_holds(self):
        table = get_experiment("E12")("quick")
        assert all(table.column("regular(3s-1)"))
        assert all(table.column("ell*_is_ell"))

    def test_e16_star_congestion_shape(self):
        table = get_experiment("E16")("quick")
        star_rows = {r["cap"]: r for r in table.rows if "star" in r["graph"]}
        assert star_rows[1]["rounds"] > star_rows["unbounded"]["rounds"]

    def test_e17_payload_shape(self):
        table = get_experiment("E17")("quick")
        assert all(v <= 2 for v in table.column("pushpull_max_payload"))
        assert all(v >= 8 for v in table.column("dtg_max_payload"))
