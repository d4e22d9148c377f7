"""Engine microbenchmarks: hot-path wall-clock, no pytest-benchmark needed.

Unlike the experiment benchmarks in this directory, this suite times the
raw simulation core via :mod:`repro.benchmarking` — the scalar and
vector backends running the *same* seeded push--pull workloads on the
*same* cached graph, rumor-state churn, done-node scheduling and the
composite phase chain — and writes ``benchmarks/results/BENCH_engine.json``.
When the committed baseline (``BENCH_engine_baseline.json``) is present,
the report embeds per-workload speedup factors — regressions show up as
factors below 1.0.

Runs standalone — ``pytest benchmarks/test_bench_engine_micro.py`` — so CI
can smoke it without the pytest-benchmark plugin.  Set
``REPRO_PROFILE=full`` for the n=10^4 scalar/vector comparison points,
the ℓ-DTG pair and the n=2.5·10^5 flooding run.
"""

from repro.benchmarking import (
    BENCH_PATH,
    engine_microbenchmarks,
    run_microbenchmarks,
    write_report,
)


def test_engine_microbenchmarks(capsys, profile):
    report = write_report(run_microbenchmarks(profile))
    with capsys.disabled():
        print()
        for name, entry in sorted(report["workloads"].items()):
            line = f"{name}: {entry['seconds']:.3f}s"
            speedup = report.get("speedup", {}).get(name)
            if speedup:
                line += f"  ({speedup:.1f}x vs committed baseline)"
            print(line)
        print(f"report written to {BENCH_PATH}")
    assert BENCH_PATH.exists()
    assert report["workloads"], "no workloads were timed"
    assert all(entry["seconds"] > 0 for entry in report["workloads"].values())


def test_quick_profile_has_shared_comparison_point(profile):
    # Whatever the profile, the suite must pit both backends against each
    # other on at least one identical (graph, seed, mode) workload —
    # that pairing is what makes the committed numbers a *comparison*.
    names = [w.name for w in engine_microbenchmarks(profile)]
    scalar_points = {
        n.replace("_scalar_", "_") for n in names if "_scalar_" in n
    }
    vector_points = {
        n.replace("_vector_", "_") for n in names if "_vector_" in n
    }
    assert scalar_points & vector_points, names
