"""Command-line interface: build networks, run protocols, run experiments.

Usage (after ``pip install -e .``)::

    python -m repro list-experiments
    python -m repro run-experiment E5 --profile quick
    python -m repro check --experiments E6 --profile quick
    python -m repro check --backend vector
    python -m repro simulate --protocol push-pull --topology clique --n 256 \\
        --backend vector
    python -m repro analyze --topology ring-of-cliques --cliques 6 \\
        --clique-size 8 --inter-latency 12
    python -m repro simulate --protocol push-pull --topology clique --n 32
    python -m repro trace --protocol push-pull --topology clique --n 8 --limit 20
    python -m repro trace --protocol push-pull --topology clique --n 8 --stats
    python -m repro profile E6 --profile quick
    python -m repro report E6 --profile quick --output report.md
    python -m repro regress --suite all
    python -m repro game --m 32 --predicate random --p 0.2 --strategy oblivious

Every command is a thin shim over the library API; the CLI exists so the
reproduction can be poked at without writing Python.
"""

from __future__ import annotations

import argparse
import pathlib
import random
import sys
from typing import Optional, Sequence

from repro.analysis.bounds import compute_bounds
from repro.errors import ReproError
from repro.graphs import generators
from repro.graphs.latency_graph import LatencyGraph
from repro.graphs.latency_models import bimodal_latency, constant_latency, uniform_latency

__all__ = ["main", "build_topology"]


def build_topology(args: argparse.Namespace) -> LatencyGraph:
    """Build (or load) the graph described by the shared topology arguments."""
    if getattr(args, "load_graph", None):
        from repro.graphs import io as graph_io

        path = args.load_graph
        if str(path).endswith(".json"):
            graph, _metadata = graph_io.load_json(path)
        else:
            graph = graph_io.load_edge_list(path)
        return graph
    rng = random.Random(args.seed)
    latency_model = None
    if args.latency_range is not None:
        low, high = args.latency_range
        latency_model = uniform_latency(low, high)
    elif args.latency is not None:
        latency_model = constant_latency(args.latency)
    elif args.bimodal is not None:
        fast, slow, p_fast = args.bimodal
        latency_model = bimodal_latency(int(fast), int(slow), float(p_fast))

    name = args.topology
    if name == "clique":
        return generators.clique(args.n, latency_model, rng)
    if name == "star":
        return generators.star(args.n, latency_model, rng)
    if name == "path":
        return generators.path(args.n, latency_model, rng)
    if name == "cycle":
        return generators.cycle(args.n, latency_model, rng)
    if name == "grid":
        return generators.grid(args.rows, args.cols, latency_model, rng)
    if name == "torus":
        return generators.torus(args.rows, args.cols, latency_model, rng)
    if name == "hypercube":
        return generators.hypercube(args.dimension, latency_model, rng)
    if name == "random-regular":
        return generators.random_regular(args.n, args.degree, latency_model, rng)
    if name == "erdos-renyi":
        return generators.erdos_renyi(args.n, args.p, latency_model, rng)
    if name == "watts-strogatz":
        return generators.watts_strogatz(
            args.n, args.degree, args.p, latency_model, rng
        )
    if name == "barabasi-albert":
        return generators.barabasi_albert(
            args.n, args.attachments, latency_model, rng
        )
    if name == "geometric":
        return generators.random_geometric(
            args.n, radius=args.radius, latency_scale=args.latency_scale, rng=rng
        )
    if name == "ring-of-cliques":
        return generators.ring_of_cliques(
            args.cliques,
            args.clique_size,
            inter_latency=args.inter_latency,
            links_per_pair=args.links_per_pair,
            rng=rng,
        )
    if name == "datacenter":
        return generators.two_tier_datacenter(
            args.racks, args.rack_size, inter_rack_latency=args.inter_latency
        )
    if name == "dumbbell":
        return generators.dumbbell(
            args.clique_size, bridge_length=args.bridge_length,
            bridge_latency=args.latency or 1,
        )
    raise ReproError(f"unknown topology {name!r}")


def _add_topology_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--topology",
        default="ring-of-cliques",
        choices=[
            "clique", "star", "path", "cycle", "grid", "torus", "hypercube",
            "random-regular", "erdos-renyi", "geometric", "watts-strogatz",
            "barabasi-albert", "ring-of-cliques", "datacenter", "dumbbell",
        ],
    )
    parser.add_argument("--n", type=int, default=32, help="node count")
    parser.add_argument("--attachments", type=int, default=2)
    parser.add_argument("--rows", type=int, default=5)
    parser.add_argument("--cols", type=int, default=5)
    parser.add_argument("--dimension", type=int, default=4)
    parser.add_argument("--degree", type=int, default=6)
    parser.add_argument("--p", type=float, default=0.1, help="edge probability")
    parser.add_argument("--radius", type=float, default=0.3)
    parser.add_argument("--latency-scale", type=float, default=10.0)
    parser.add_argument("--cliques", type=int, default=6)
    parser.add_argument("--clique-size", type=int, default=8)
    parser.add_argument("--inter-latency", type=int, default=10)
    parser.add_argument("--links-per-pair", type=int, default=1)
    parser.add_argument("--racks", type=int, default=6)
    parser.add_argument("--rack-size", type=int, default=6)
    parser.add_argument("--bridge-length", type=int, default=1)
    parser.add_argument("--latency", type=int, default=None, help="constant latency")
    parser.add_argument(
        "--latency-range", type=int, nargs=2, metavar=("LOW", "HIGH"), default=None
    )
    parser.add_argument(
        "--bimodal", type=float, nargs=3, metavar=("FAST", "SLOW", "P_FAST"),
        default=None,
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--load-graph", default=None, metavar="PATH",
        help="load the graph from a .json or edge-list file instead of generating",
    )
    parser.add_argument(
        "--save-graph", default=None, metavar="PATH",
        help="save the (generated or loaded) graph to a .json or edge-list file",
    )


def _maybe_save(graph: LatencyGraph, args: argparse.Namespace) -> None:
    if getattr(args, "save_graph", None):
        from repro.graphs import io as graph_io

        path = args.save_graph
        if str(path).endswith(".json"):
            graph_io.save_json(graph, path, metadata={"source": "repro-cli"})
        else:
            graph_io.save_edge_list(graph, path)
        print(f"saved graph to {path}")


def _cmd_list_experiments(_args: argparse.Namespace) -> int:
    from repro.experiments import all_experiments

    for experiment_id, fn in sorted(
        all_experiments().items(), key=lambda kv: (len(kv[0]), kv[0])
    ):
        doc = (fn.__doc__ or "").strip().splitlines()
        summary = doc[0] if doc else ""
        print(f"{experiment_id:>4}  {summary}")
    return 0


def _cmd_run_experiment(args: argparse.Namespace) -> int:
    from repro.experiments import all_experiments, run_experiment

    if args.experiment_id == "all":
        for experiment_id in sorted(
            all_experiments(), key=lambda eid: (len(eid), eid)
        ):
            print(run_experiment(experiment_id, args.profile, checked=args.checked))
            print()
        return 0
    table = run_experiment(args.experiment_id, args.profile, checked=args.checked)
    print(table)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.experiments import sharding

    if args.status:
        status = sharding.sweep_status(
            args.experiment_id,
            args.profile,
            checked=args.checked,
            backend=args.backend,
            store_root=args.store,
        )
        for key in sorted(status):
            print(f"{key}: {status[key]}")
        return 0
    shard = sharding.parse_shard(args.shard) if args.shard else None
    if shard and shard.count > 1 and args.export:
        raise ReproError(
            "--export needs the merged table; shard runs (k > 1) produce "
            "none — export from the coordinator run instead"
        )
    result = sharding.run_sweep(
        args.experiment_id,
        args.profile,
        checked=args.checked,
        backend=args.backend,
        store_root=args.store,
        shard=shard,
        resume=args.resume,
        fresh=args.fresh,
    )
    if result.table is not None and args.export:
        # Export before any printing: a closed stdout (broken pipe) must
        # not cost the caller the artifact they asked for.
        pathlib.Path(args.export).write_text(
            sharding.table_to_json(result.table), encoding="utf-8"
        )
    print(result.report.summary())
    if result.table is not None:
        print()
        print(result.table)
        if args.export:
            print(f"wrote canonical table bytes to {args.export}")
    return 0


def _check_differential(seed: int, backend: str = "scalar") -> list[str]:
    """Engine vs ReferenceEngine on representative graphs/protocols.

    With ``backend="vector"`` the candidate side is the array backend,
    which is additionally pitted against the scalar engine directly
    (three-way agreement); the phase-structured General EID leg then runs
    the whole composite with every phase routed by the ``vector`` backend
    (docs/MODEL.md §8) against a plain scalar run.
    """
    from repro.graphs import generators
    from repro.protocols.eid import run_general_eid
    from repro.protocols.flooding import FloodingProtocol
    from repro.protocols.push_pull import PushPullProtocol
    from repro.sim.engine import Engine
    from repro.sim.runner import broadcast_complete
    from repro.sim.state import VectorState
    from repro.testing import ReferenceEngine, ReferenceNetworkState, run_differential

    failures: list[str] = []
    rng = random.Random(seed)
    graphs = [
        ("ring-of-cliques", generators.ring_of_cliques(4, 5, inter_latency=7, rng=rng)),
        ("star", generators.star(12)),
        ("erdos-renyi", generators.erdos_renyi(16, 0.3, rng=random.Random(seed))),
    ]
    # The candidate engine is always compared against the reference oracle
    # over its set-backed state; on the vector backend it is also compared
    # against the scalar engine.
    legs = [(ReferenceEngine, ReferenceNetworkState, "reference")]
    if backend == "vector":
        legs.append((Engine, VectorState, "scalar"))
    for graph_name, graph in graphs:
        source = graph.nodes()[0]
        rumor = ("rumor", source)

        def seeded(state_cls, graph=graph, source=source, rumor=rumor):
            def make_state():
                state = state_cls(graph.nodes())
                state.add_rumor(source, rumor)
                return state

            return make_state

        protocols = [
            ("push-pull", lambda seed=seed: PushPullProtocol.cohort(seed)),
            ("flooding", FloodingProtocol.cohort),
        ]
        for protocol_name, make_factory in protocols:
            for reference_cls, reference_state_cls, leg_name in legs:
                report = run_differential(
                    graph,
                    make_factory=make_factory,
                    make_state=seeded(VectorState),
                    make_reference_state=seeded(reference_state_cls),
                    predicate=broadcast_complete(rumor),
                    reference_cls=reference_cls,
                    backend=backend,
                )
                label = (
                    f"differential {protocol_name} on {graph_name} "
                    f"({backend} vs {leg_name})"
                )
                if report.equivalent:
                    print(f"ok   {label} ({report.rounds} rounds)")
                else:
                    failures.append(f"{label}: {'; '.join(report.mismatches[:3])}")
                    print(f"FAIL {label}")
    # Composite protocol: the whole General EID pipeline across engines.
    graph = generators.ring_of_cliques(3, 4, inter_latency=5)
    if backend == "vector":
        # Phase-chained vector dispatch vs the plain scalar PhaseRunner.
        fast = run_general_eid(graph, seed=seed, backend="vector")
        slow = run_general_eid(graph, seed=seed, backend="scalar")
        label = "differential general-eid on ring-of-cliques (vector vs scalar)"
    else:
        fast = run_general_eid(graph, seed=seed)
        slow = run_general_eid(graph, seed=seed, engine_factory=ReferenceEngine)
        label = "differential general-eid on ring-of-cliques"
    if fast == slow:
        print(f"ok   {label} ({fast.rounds} rounds)")
    else:
        failures.append(f"{label}: engine={fast} reference={slow}")
        print(f"FAIL {label}")
    return failures


def _check_replay(seed: int) -> list[str]:
    """Record-and-replay determinism oracle on push--pull."""
    from repro.errors import SimulationError
    from repro.graphs import generators
    from repro.protocols.push_pull import PushPullProtocol
    from repro.sim.runner import broadcast_complete
    from repro.sim.state import VectorState
    from repro.testing import record_and_replay

    failures: list[str] = []
    graph = generators.ring_of_cliques(4, 5, inter_latency=7, rng=random.Random(seed))
    source = graph.nodes()[0]
    rumor = ("rumor", source)

    def make_state():
        state = VectorState(graph.nodes())
        state.add_rumor(source, rumor)
        return state

    def make_factory():
        return PushPullProtocol.cohort(seed)

    try:
        report = record_and_replay(
            graph,
            make_factory=make_factory,
            make_state=make_state,
            predicate=broadcast_complete(rumor),
        )
    except SimulationError as error:
        failures.append(f"replay determinism: {error}")
        print("FAIL replay determinism (push-pull)")
    else:
        print(
            f"ok   replay determinism (push-pull, {report.rounds} rounds, "
            f"{len(report.events)} events)"
        )
    return failures


def _cmd_check(args: argparse.Namespace) -> int:
    from repro.errors import SimulationError
    from repro.experiments import all_experiments, run_experiment

    backend = getattr(args, "backend", "scalar")
    failures: list[str] = []
    failures.extend(_check_differential(args.seed, backend=backend))
    failures.extend(_check_replay(args.seed))

    if args.experiments == "all":
        experiment_ids = sorted(all_experiments(), key=lambda eid: (len(eid), eid))
    elif args.experiments == "none":
        experiment_ids = []
    else:
        experiment_ids = [eid.strip() for eid in args.experiments.split(",") if eid.strip()]
    for experiment_id in experiment_ids:
        label = f"checked experiment {experiment_id} [{args.profile}]"
        try:
            run_experiment(experiment_id, args.profile, checked=True)
        except SimulationError as error:
            failures.append(f"{label}: {error}")
            print(f"FAIL {label}")
        else:
            print(f"ok   {label}")

    if failures:
        print(f"\ncheck FAILED ({len(failures)} failure(s)):", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("\ncheck passed: engines agree, runs are deterministic, invariants hold")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    graph = build_topology(args)
    _maybe_save(graph, args)
    bounds = compute_bounds(graph, conductance_method=args.method)
    wc = bounds.conductance
    print(f"nodes                 : {bounds.n}")
    print(f"edges                 : {graph.num_edges}")
    print(f"weighted diameter D   : {bounds.diameter}")
    print(f"max degree Δ          : {bounds.max_degree}")
    print(f"distinct latencies    : {graph.distinct_latencies()}")
    print(f"conductance method    : {wc.method}")
    print(f"profile φ_ℓ           : " + ", ".join(
        f"φ_{ell}={phi:.4f}" for ell, phi in sorted(wc.profile.items())
    ))
    print(f"weighted conductance  : φ* = {wc.phi_star:.4f} at ℓ* = {wc.critical_latency}")
    print(f"ℓ*/φ*                 : {wc.dissemination_bound:.1f}")
    print(f"lower-bound envelope  : min(D+Δ, ℓ*/φ*) = {bounds.lower_bound_envelope:.1f}")
    print(f"push--pull budget     : (ℓ*/φ*)·log n = {bounds.push_pull_bound:.1f}")
    print(f"known-latency budget  : {bounds.known_latency_bound:.1f}")
    print(f"unknown-latency budget: {bounds.unknown_latency_bound:.1f}")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.protocols import (
        run_flooding,
        run_general_eid,
        run_general_eid_unknown_latencies,
        run_path_discovery,
        run_push_pull,
        run_unified,
    )

    graph = build_topology(args)
    _maybe_save(graph, args)
    protocol = args.protocol
    if protocol == "push-pull":
        result = run_push_pull(
            graph, mode=args.mode, seed=args.seed, track_progress=args.curve
        )
        print(result)
        if args.curve and result.informed_history:
            from repro.analysis.curves import growth_phases, sparkline

            history = result.informed_history
            print("informed:", sparkline(history, graph.num_nodes))
            print("phases  :", growth_phases(history, graph.num_nodes))
    elif protocol == "flooding":
        print(run_flooding(graph, push_only=args.push_only))
    elif protocol == "general-eid":
        report = run_general_eid(graph, seed=args.seed)
        print(
            f"general-eid: complete at {report.first_complete_round}, "
            f"terminated at {report.rounds} "
            f"(k={report.final_estimate}, {report.exchanges} exchanges)"
        )
    elif protocol == "eid-unknown-latencies":
        report = run_general_eid_unknown_latencies(graph, seed=args.seed)
        print(
            f"eid-unknown-latencies: complete at {report.first_complete_round}, "
            f"terminated at {report.rounds} (k={report.final_estimate})"
        )
    elif protocol == "path-discovery":
        report = run_path_discovery(graph)
        print(
            f"path-discovery: complete at {report.first_complete_round}, "
            f"terminated at {report.rounds} (k={report.final_estimate})"
        )
    elif protocol == "unified":
        report = run_unified(graph, latencies_known=not args.unknown_latencies,
                             seed=args.seed)
        print(
            f"unified: {report.rounds} rounds, winner {report.winner} "
            f"(push-pull {report.push_pull_rounds}, spanner {report.spanner_rounds})"
        )
    else:
        raise ReproError(f"unknown protocol {protocol!r}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs import JsonlSink, MemorySink, MetricsSink, Recorder, event_to_json
    from repro.obs.metrics import MetricsRegistry
    from repro.protocols import run_general_eid, run_path_discovery, run_push_pull

    graph = build_topology(args)
    _maybe_save(graph, args)
    memory = MemorySink()
    metrics = MetricsSink(MetricsRegistry())
    sinks = [memory, metrics]
    jsonl_sink = None
    if args.jsonl:
        jsonl_sink = JsonlSink(args.jsonl)
        sinks.append(jsonl_sink)
    protocol = args.protocol
    with Recorder(*sinks) as recorder:
        if protocol == "push-pull":
            result = run_push_pull(
                graph, mode=args.mode, seed=args.seed,
                telemetry=True, recorder=recorder,
            )
            summary = str(result)
            telemetry = result.telemetry
            if telemetry is not None and telemetry.in_flight_curve:
                summary += f"; peak in-flight {telemetry.max_in_flight()}"
        elif protocol == "general-eid":
            report = run_general_eid(graph, seed=args.seed, recorder=recorder)
            summary = (
                f"general-eid: complete at {report.first_complete_round}, "
                f"terminated at {report.rounds} over {len(report.phases)} phases "
                f"(k={report.final_estimate})"
            )
        elif protocol == "path-discovery":
            report = run_path_discovery(graph, recorder=recorder)
            summary = (
                f"path-discovery: complete at {report.first_complete_round}, "
                f"terminated at {report.rounds} over {len(report.phases)} phases "
                f"(k={report.final_estimate})"
            )
        else:
            raise ReproError(f"unknown protocol {protocol!r} for trace")
    events = memory.events
    if args.stats:
        from repro.obs.traces import Trace

        stats = Trace.from_events(events).stats()
        width = max((len(kind) for kind in stats["by_kind"]), default=4)
        for kind, count in sorted(stats["by_kind"].items()):
            print(f"{kind.ljust(width)}  {count}")
        print(
            f"max round: {stats['max_round']}; phases: {stats['phases']}; "
            f"unique activated edges: {stats['unique_edges']}"
        )
        if "delivery_latency" in stats:
            latency = stats["delivery_latency"]
            print(
                f"delivery latency (rounds): min {latency['min']} / "
                f"mean {latency['mean']} / max {latency['max']}"
            )
    else:
        shown = events if args.limit is None else events[: args.limit]
        for event in shown:
            print(event_to_json(event))
        if args.limit is not None and len(events) > args.limit:
            print(f"... ({len(events) - args.limit} more events not shown)")
    kinds = " ".join(f"{kind}={n}" for kind, n in metrics.counts_by_kind().items())
    print(f"events: {recorder.events_recorded} ({kinds})")
    registry = metrics.registry
    rumors = registry.counter("engine_rumors_learned_total").value()
    lost = registry.counter("engine_lost_initiations_total").value()
    peak = registry.gauge("engine_in_flight_peak").value()
    print(f"rumors learned: {rumors}; lost initiations: {lost}; max in-flight: {peak}")
    print(summary)
    if jsonl_sink is not None:
        print(f"wrote {jsonl_sink.lines_written} events to {args.jsonl}")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.experiments import run_experiment
    from repro.obs import reset_spans, span_aggregates

    reset_spans()
    table = run_experiment(args.experiment_id, args.profile, checked=args.checked)
    print(table)
    aggregates = span_aggregates()
    print()
    if not aggregates:
        print("no profiling spans recorded")
        return 0
    name_width = max(len("span"), max(len(name) for name in aggregates))
    print(
        f"{'span'.ljust(name_width)}  {'count':>7}  {'total s':>9}  "
        f"{'mean ms':>9}  {'max ms':>9}"
    )
    for name, agg in sorted(
        aggregates.items(), key=lambda kv: kv[1]["seconds"], reverse=True
    ):
        print(
            f"{name.ljust(name_width)}  {agg['count']:>7}  "
            f"{agg['seconds']:>9.3f}  {agg['mean_seconds'] * 1e3:>9.3f}  "
            f"{agg['max_seconds'] * 1e3:>9.3f}"
        )
    layouts = (table.metrics or {}).get("sim_state_layout", {}).get("values", ())
    peaks = {
        (cell["labels"].get("layout"), cell["labels"].get("protocol")): cell["value"]
        for cell in (table.metrics or {})
        .get("sim_state_bytes", {})
        .get("values", ())
    }
    if layouts:
        print("\nstate layouts:")
        for cell in layouts:
            layout = cell["labels"].get("layout")
            protocol = cell["labels"].get("protocol")
            peak = peaks.get((layout, protocol))
            peak_text = f"  peak {peak:,} bytes" if peak is not None else ""
            print(f"  {protocol}: {layout}{peak_text}")
    phase_backends = (
        (table.metrics or {}).get("sim_phase_backend", {}).get("values", ())
    )
    if phase_backends:
        print("\nphase backends:")
        for cell in phase_backends:
            labels = cell["labels"]
            reason = labels.get("reason")
            reason_text = (
                "" if reason in (None, "eligible") else f"  [{reason}]"
            )
            print(
                f"  {labels.get('protocol')}: {labels.get('backend')} "
                f"×{int(cell['value'])}{reason_text}"
            )
    manifest = table.manifest or {}
    provenance = " ".join(
        f"{key}={manifest[key]}"
        for key in ("git_rev", "python", "repro_jobs", "captured_at")
        if manifest.get(key) is not None
    )
    if provenance:
        print(f"\nmanifest: {provenance}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    import pathlib

    from repro.errors import ObservabilityError
    from repro.obs.report import experiment_report, render_trace_report

    if args.trace is not None:
        from repro.obs.traces import Trace

        text = render_trace_report(Trace.load(args.trace), title=str(args.trace))
    elif args.experiment_id is not None:
        text = experiment_report(
            args.experiment_id,
            args.profile,
            checked=args.checked,
            include_timings=args.timings,
            gate=not args.no_gate,
        )
    else:
        raise ObservabilityError(
            "report needs an experiment id (e.g. E6) or --trace PATH"
        )
    if args.output:
        pathlib.Path(args.output).write_text(text, encoding="utf-8")
        print(f"wrote report to {args.output}")
    else:
        print(text, end="")
    return 0


def _cmd_regress(args: argparse.Namespace) -> int:
    import json
    import pathlib

    from repro.obs.regress import (
        DEFAULT_NOISE_FLOOR,
        DEFAULT_THRESHOLD,
        GATE_SUITES,
        gate_suites,
    )

    suites = GATE_SUITES if args.suite == "all" else (args.suite,)
    reports = gate_suites(
        suites,
        threshold=DEFAULT_THRESHOLD if args.threshold is None else args.threshold,
        noise_floor=(
            DEFAULT_NOISE_FLOOR if args.noise_floor is None else args.noise_floor
        ),
        skip_missing=args.skip_missing,
        strict=args.strict,
    )
    for report in reports:
        print(report.summary())
    if not reports:
        print("no benchmark reports found; nothing gated")
    if args.json:
        payload = [report.to_dict() for report in reports]
        pathlib.Path(args.json).write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        print(f"wrote machine-readable verdicts to {args.json}")
    return 1 if any(report.regressed for report in reports) else 0


def _cmd_game(args: argparse.Namespace) -> int:
    from repro.analysis.stats import summarize
    from repro.lowerbounds.game import GuessingGame
    from repro.lowerbounds.predicates import random_predicate, singleton_predicate
    from repro.lowerbounds.strategies import (
        fresh_pair_strategy,
        play_game,
        random_guessing_strategy,
        systematic_sweep_strategy,
    )

    predicate = (
        singleton_predicate()
        if args.predicate == "singleton"
        else random_predicate(args.p)
    )
    strategy = {
        "adaptive": fresh_pair_strategy,
        "oblivious": random_guessing_strategy,
        "sweep": systematic_sweep_strategy,
    }[args.strategy]
    rounds = []
    for seed in range(args.seeds):
        rng = random.Random(seed)
        game = GuessingGame(args.m, predicate(args.m, rng))
        rounds.append(play_game(game, strategy, rng))
    summary = summarize(rounds)
    print(
        f"Guessing(2·{args.m}, {args.predicate}"
        + (f", p={args.p}" if args.predicate == "random" else "")
        + f") with {args.strategy}: {summary}"
    )
    return 0


def _build_parser() -> argparse.ArgumentParser:
    from repro import __version__
    from repro.obs.regress import GATE_SUITES

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Gossiping with Latencies — reproduction toolkit",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    parser.add_argument(
        "--backend", default="scalar", choices=["scalar", "vector"],
        help="engine backend every protocol runner defaults to; 'vector' "
             "(numpy array rounds) only accepts oblivious protocols "
             "(default: scalar)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser(
        "list-experiments", help="list the experiment registry"
    ).set_defaults(handler=_cmd_list_experiments)

    run_exp = commands.add_parser(
        "run-experiment", help="run one experiment (or 'all')"
    )
    run_exp.add_argument("experiment_id")
    run_exp.add_argument("--profile", default="quick", choices=["quick", "full"])
    run_exp.add_argument(
        "--checked", action="store_true",
        help="attach the model-invariant checkers to every engine",
    )
    run_exp.set_defaults(handler=_cmd_run_experiment)

    sweep = commands.add_parser(
        "sweep",
        help="run an experiment as a checkpointed, shardable, resumable sweep",
    )
    sweep.add_argument("experiment_id")
    sweep.add_argument("--profile", default="quick", choices=["quick", "full"])
    sweep.add_argument(
        "--checked", action="store_true",
        help="attach the model-invariant checkers to every engine",
    )
    sweep.add_argument(
        "--shard", default=None, metavar="I/K",
        help="compute and persist only shard I of a K-way split (trial "
             "ordinal mod K); run once per shard, then merge with a plain "
             "`repro sweep` over the same --store",
    )
    sweep.add_argument(
        "--resume", action="store_true",
        help="require prior progress in the store, then complete the sweep "
             "(loads finished trials, computes the rest, stores the table)",
    )
    sweep.add_argument(
        "--fresh", action="store_true",
        help="drop any stored progress for this recipe first",
    )
    sweep.add_argument(
        "--store", default=None, metavar="DIR",
        help="sweep store root (default: $REPRO_SWEEP_STORE or .repro/sweeps)",
    )
    sweep.add_argument(
        "--export", default=None, metavar="PATH",
        help="write the merged table's canonical JSON bytes (manifest-free; "
             "the unit of bit-identity) to PATH",
    )
    sweep.add_argument(
        "--status", action="store_true",
        help="inspect stored progress for this recipe and exit (no compute)",
    )
    sweep.set_defaults(handler=_cmd_sweep)

    check = commands.add_parser(
        "check",
        help="validate the engine: differential tests, replay, checked runs",
    )
    check.add_argument(
        "--experiments", default="none", metavar="IDS",
        help="comma-separated experiment ids to re-run under invariant "
             "checking, or 'all' / 'none' (default: none)",
    )
    check.add_argument("--profile", default="quick", choices=["quick", "full"])
    check.add_argument("--seed", type=int, default=0)
    check.add_argument(
        "--backend", default=argparse.SUPPRESS, choices=["scalar", "vector"],
        help="engine backend under test (also accepted before the "
             "subcommand; default: scalar)",
    )
    check.set_defaults(handler=_cmd_check)

    analyze = commands.add_parser(
        "analyze", help="compute the paper's parameters for a topology"
    )
    _add_topology_arguments(analyze)
    analyze.add_argument("--method", default="auto", choices=["auto", "exact", "sweep"])
    analyze.set_defaults(handler=_cmd_analyze)

    simulate = commands.add_parser("simulate", help="run one protocol")
    _add_topology_arguments(simulate)
    simulate.add_argument(
        "--protocol",
        default="push-pull",
        choices=[
            "push-pull", "flooding", "general-eid",
            "eid-unknown-latencies", "path-discovery", "unified",
        ],
    )
    simulate.add_argument(
        "--mode", default="broadcast", choices=["broadcast", "all_to_all", "local"]
    )
    simulate.add_argument("--push-only", action="store_true")
    simulate.add_argument("--unknown-latencies", action="store_true")
    simulate.add_argument("--curve", action="store_true",
                          help="print the informed-node sparkline")
    simulate.add_argument(
        "--backend", default=argparse.SUPPRESS, choices=["scalar", "vector"],
        help="engine backend (also accepted before the subcommand; "
             "'vector' requires an oblivious protocol; default: scalar)",
    )
    simulate.set_defaults(handler=_cmd_simulate)

    trace = commands.add_parser(
        "trace", help="run one protocol with the event recorder attached"
    )
    _add_topology_arguments(trace)
    trace.add_argument(
        "--protocol",
        default="push-pull",
        choices=["push-pull", "general-eid", "path-discovery"],
    )
    trace.add_argument(
        "--mode", default="broadcast", choices=["broadcast", "all_to_all", "local"]
    )
    trace.add_argument(
        "--limit", type=int, default=40, metavar="N",
        help="print at most N events (default 40); use a large value for all",
    )
    trace.add_argument(
        "--jsonl", default=None, metavar="PATH",
        help="also write the full canonical JSONL stream to PATH",
    )
    trace.add_argument(
        "--stats", action="store_true",
        help="print per-kind event counts and trace analytics instead of "
             "the raw event stream",
    )
    trace.set_defaults(handler=_cmd_trace)

    profile_cmd = commands.add_parser(
        "profile", help="run one experiment and print its profiling spans"
    )
    profile_cmd.add_argument("experiment_id")
    profile_cmd.add_argument("--profile", default="quick", choices=["quick", "full"])
    profile_cmd.add_argument(
        "--checked", action="store_true",
        help="attach the model-invariant checkers to every engine",
    )
    profile_cmd.set_defaults(handler=_cmd_profile)

    report = commands.add_parser(
        "report",
        help="run one experiment (or load a trace) and render a markdown report",
    )
    report.add_argument(
        "experiment_id", nargs="?", default=None,
        help="experiment index id (e.g. E6); omit when using --trace",
    )
    report.add_argument("--profile", default="quick", choices=["quick", "full"])
    report.add_argument(
        "--checked", action="store_true",
        help="attach the model-invariant checkers to every engine",
    )
    report.add_argument(
        "--timings", action="store_true",
        help="include wall-clock span columns (non-deterministic)",
    )
    report.add_argument(
        "--no-gate", action="store_true",
        help="skip the regression-gate section",
    )
    report.add_argument(
        "--trace", default=None, metavar="PATH",
        help="render a trace-analytics report for a JSONL event stream "
             "instead of running an experiment",
    )
    report.add_argument(
        "--output", default=None, metavar="PATH",
        help="write the markdown to PATH instead of stdout",
    )
    report.set_defaults(handler=_cmd_report)

    regress = commands.add_parser(
        "regress",
        help="gate BENCH_*.json benchmark reports against committed baselines",
    )
    regress.add_argument(
        "--suite", default="all",
        choices=["all", *GATE_SUITES],
    )
    regress.add_argument(
        "--threshold", type=float, default=None,
        help="relative budget (default 1.25 = 25%% over baseline)",
    )
    regress.add_argument(
        "--noise-floor", type=float, default=None, metavar="SECONDS",
        help="absolute slack in seconds below which differences never flag",
    )
    regress.add_argument(
        "--skip-missing", action="store_true",
        help="skip suites whose BENCH report has not been generated",
    )
    regress.add_argument(
        "--strict", action="store_true",
        help="fail baseline workloads absent from the current report "
             "(full-suite runs only; quick CI reports are profile subsets)",
    )
    regress.add_argument(
        "--json", default=None, metavar="PATH",
        help="also write the machine-readable verdicts to PATH",
    )
    regress.set_defaults(handler=_cmd_regress)

    game = commands.add_parser("game", help="play the guessing game")
    game.add_argument("--m", type=int, default=32)
    game.add_argument("--predicate", default="singleton", choices=["singleton", "random"])
    game.add_argument("--p", type=float, default=0.2)
    game.add_argument(
        "--strategy", default="adaptive", choices=["adaptive", "oblivious", "sweep"]
    )
    game.add_argument("--seeds", type=int, default=10)
    game.set_defaults(handler=_cmd_game)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        from repro.sim.vector import engine_backend

        # The selected backend becomes the ambient default for every
        # engine the command constructs (scalar unless --backend vector).
        with engine_backend(getattr(args, "backend", "scalar")):
            return args.handler(args)
    except (ReproError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
