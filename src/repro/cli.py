"""Command-line interface for the CBMA reproduction.

Usage (after ``pip install -e .``)::

    python -m repro run --tags 5 --rounds 100
    python -m repro run --tags 5 --power-control
    python -m repro experiment fig8a --rounds 40
    python -m repro field --resolution 41
    python -m repro profile --tags 10 --rounds 20
    python -m repro profile --tags 4 --rounds 5 --json
    python -m repro bench --quick --output BENCH_0009.json
    python -m repro bench --tier macro --quick
    python -m repro macro run --tags 100000 --slots 200
    python -m repro macro calibrate --tiny --output /tmp/tiny_surface.json
    python -m repro macro validate
    python -m repro soak --windows 500 --campaigns 3 --artifact shrunk.json
    python -m repro gateway soak --streams 50 --rounds 12 --migrate-round 5
    python -m repro trace record out.json --tags 3 --rounds 50
    python -m repro trace replay out.json --seed 9

``experiment`` accepts any paper artefact id: table1, table2, fig8a,
fig8b, fig8c, fig9a, fig9b, fig9c, fig10, fig11, fig12, userdetect,
headline.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.analysis.ascii_plots import heatmap, line_plot
from repro.analysis.tables import format_percent, render_series, render_table
from repro.bench import TIERS
from repro.channel.geometry import Deployment
from repro.codes import make_codes
from repro.mac.power_control import PowerController
from repro.sim.experiments import (
    fig5_signal_field,
    fig8a_distance,
    fig8b_power,
    fig8c_preamble,
    fig9a_bitrate,
    fig9b_pn_codes,
    fig9c_power_control,
    fig10_deployment_cdfs,
    fig11_asynchrony,
    fig12_working_conditions,
    table1_system_comparison,
    table2_power_difference,
    user_detection_accuracy,
)
from repro.sim.network import CbmaConfig, CbmaNetwork
from repro.sim.trace import ChannelTrace, record_trace, replay_trace

__all__ = ["main"]

_EXPERIMENTS = {
    "table1": lambda rounds: table1_system_comparison(rounds=rounds),
    "table2": lambda rounds: table2_power_difference(rounds=rounds),
    "fig8a": lambda rounds: fig8a_distance(
        distances_m=tuple(d / 2 for d in range(1, 9)), rounds=rounds
    ),
    "fig8b": lambda rounds: fig8b_power(rounds=rounds),
    "fig8c": lambda rounds: fig8c_preamble(rounds=rounds),
    "fig9a": lambda rounds: fig9a_bitrate(rounds=rounds),
    "fig9b": lambda rounds: fig9b_pn_codes(rounds=rounds, n_groups=3),
    "fig9c": lambda rounds: fig9c_power_control(rounds=rounds, n_groups=5),
    "fig10": lambda rounds: fig10_deployment_cdfs(rounds=rounds, n_groups=8),
    "fig11": lambda rounds: fig11_asynchrony(rounds=rounds),
    "fig12": lambda rounds: fig12_working_conditions(rounds=rounds),
    "userdetect": lambda rounds: user_detection_accuracy(n_trials=rounds),
}


def _positive_int(text: str) -> int:
    """argparse ``type=`` for counts: a usage error (exit 2) below 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CBMA (ICDCS 2019) reproduction -- simulate, measure, replay.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a quick multi-tag simulation")
    run.add_argument("--tags", type=_positive_int, default=5)
    run.add_argument("--rounds", type=_positive_int, default=100)
    run.add_argument("--distance", type=float, default=1.0, help="tag-to-RX metres")
    run.add_argument("--seed", type=int, default=7)
    run.add_argument("--code-family", default="2nc", help="2nc | gold | kasami | walsh")
    run.add_argument("--code-length", type=int, default=64)
    run.add_argument("--power-control", action="store_true", help="run Algorithm 1 first")

    exp = sub.add_parser("experiment", help="regenerate one paper table/figure")
    exp.add_argument("artefact", choices=sorted([*_EXPERIMENTS, "headline"]))
    exp.add_argument("--rounds", type=_positive_int, default=60)

    field = sub.add_parser("field", help="print the Fig. 5 signal-strength field")
    field.add_argument("--resolution", type=_positive_int, default=41)

    prof = sub.add_parser(
        "profile", help="trace a simulation and print the stage-level profile"
    )
    prof.add_argument("--tags", type=_positive_int, default=4)
    prof.add_argument("--rounds", type=_positive_int, default=20)
    prof.add_argument("--distance", type=float, default=1.0, help="tag-to-RX metres")
    prof.add_argument("--seed", type=int, default=7)
    prof.add_argument(
        "--receiver",
        choices=["sic", "standard"],
        default="sic",
        help="receiver pipeline to profile (sic exercises every stage)",
    )
    prof.add_argument(
        "--json",
        action="store_true",
        help="emit the raw JSONL event log (spans, counters, gauges, profile) to stdout",
    )
    prof.add_argument("--trace", metavar="PATH", help="also write the JSONL event log to PATH")

    faults = sub.add_parser(
        "faults", help="inject deployment faults and show the attributed error budget"
    )
    faults.add_argument("--tags", type=_positive_int, default=4)
    faults.add_argument("--rounds", type=_positive_int, default=30)
    faults.add_argument("--seed", type=int, default=7)
    faults.add_argument("--distance", type=float, default=1.0, help="tag-to-RX metres")
    faults.add_argument("--dropout", type=float, default=0.2, help="per-round tag dropout probability")
    faults.add_argument("--brownout", type=float, default=0.0, help="per-round tag brownout probability")
    faults.add_argument("--ack-loss", type=float, default=0.0, help="per-round downlink ACK loss probability")
    faults.add_argument("--stuck", type=int, default=0, help="number of tags with a stuck impedance switch")
    faults.add_argument(
        "--burst",
        type=float,
        default=-60.0,
        metavar="DBM",
        help="burst-jammer power over the middle third of the run (nan disables)",
    )
    faults.add_argument("--clip", type=float, default=0.0, metavar="AMPL", help="ADC full-scale clip level (0 disables)")
    faults.add_argument(
        "--curve",
        action="store_true",
        help="sweep dropout probability and plot delivery vs fault rate instead",
    )

    soak = sub.add_parser(
        "soak", help="chaos-soak a supervised streaming session under random faults"
    )
    soak.add_argument("--windows", type=int, default=500, help="stream length in hop windows")
    soak.add_argument("--tags", type=int, default=2)
    soak.add_argument("--seed", type=int, default=7)
    soak.add_argument("--campaigns", type=int, default=3, help="randomized fault campaigns to run")
    soak.add_argument(
        "--artifact",
        metavar="PATH",
        help="where to write the shrunken reproducing fault plan on violation",
    )
    soak.add_argument(
        "--no-shrink",
        action="store_true",
        help="report violations without shrinking the fault plan",
    )

    adapt = sub.add_parser("adapt", help="auto-select the spreading factor for a channel")
    adapt.add_argument("--tags", type=_positive_int, default=3)
    adapt.add_argument("--distance", type=float, default=2.0)
    adapt.add_argument("--epochs", type=_positive_int, default=10)
    adapt.add_argument("--seed", type=int, default=7)

    system = sub.add_parser("system", help="run the full deployment life cycle")
    system.add_argument("--population", type=int, default=12)
    system.add_argument("--group", type=_positive_int, default=4)
    system.add_argument("--epochs", type=int, default=12)
    system.add_argument("--rounds", type=_positive_int, default=12)
    system.add_argument("--seed", type=int, default=17)
    system.add_argument("--mobility", action="store_true", help="tags drift between epochs")

    rep_p = sub.add_parser("report", help="run all experiments, write a markdown report")
    rep_p.add_argument("--output", default="report.md")
    rep_p.add_argument("--scale", type=float, default=0.25, help="round-count multiplier")

    bench = sub.add_parser(
        "bench", help="micro-benchmark the correlation hot path, write BENCH_*.json"
    )
    bench.add_argument("--quick", action="store_true", help="CI smoke scale (small windows, few reps)")
    bench.add_argument("--seed", type=int, default=7)
    bench.add_argument(
        "--tier",
        choices=TIERS,
        default="all",
        help="workload tier to run (default: all)",
    )
    bench.add_argument("--output", default="BENCH_0009.json", metavar="PATH", help="trajectory file to write")
    bench.add_argument(
        "--baseline",
        metavar="PATH",
        help="committed BENCH_*.json to compare against; exits 1 on regression",
    )
    bench.add_argument(
        "--max-regression",
        type=float,
        default=2.0,
        metavar="FACTOR",
        help="fail when an op's p50 exceeds FACTOR x the baseline (default 2.0)",
    )
    bench.add_argument("--json", action="store_true", help="print the report JSON to stdout")

    macro = sub.add_parser(
        "macro", help="fleet-scale simulation on the PHY-calibrated link model"
    )
    macro_sub = macro.add_subparsers(dest="macro_command", required=True)

    def _surface_args(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--surface",
            default="benchmarks/FER_SURFACE_0001.json",
            metavar="PATH",
            help="FER surface artifact (calibrated+cached if provenance is stale)",
        )
        p.add_argument(
            "--tiny",
            action="store_true",
            help="calibrate a seconds-scale smoke surface in memory instead",
        )

    mcal = macro_sub.add_parser(
        "calibrate", help="sweep the sample-domain PHY into a cached FER surface"
    )
    mcal.add_argument(
        "--output",
        default="benchmarks/FER_SURFACE_0001.json",
        metavar="PATH",
        help="artifact to load-or-calibrate",
    )
    mcal.add_argument("--tiny", action="store_true", help="seconds-scale smoke grid")

    mrun = macro_sub.add_parser("run", help="run one macro fleet and print its stats")
    _surface_args(mrun)
    mrun.add_argument("--tags", type=_positive_int, default=10000)
    mrun.add_argument("--slots", type=_positive_int, default=200)
    mrun.add_argument(
        "--rate",
        type=float,
        default=0.05,
        help="offered arrivals per tag per slot (0 = saturated)",
    )
    mrun.add_argument("--distance", type=float, default=1.0, help="tag-to-RX metres")
    mrun.add_argument(
        "--backoff", choices=["beb", "fibonacci", "eied", "adaptive"], default="beb"
    )
    mrun.add_argument("--unslotted", action="store_true", help="ALOHA-style access")
    mrun.add_argument("--ack-loss", type=float, default=0.0)
    mrun.add_argument("--seed", type=int, default=7)

    mload = macro_sub.add_parser(
        "load", help="offered-load sweep (delivery/goodput/latency vs rate)"
    )
    _surface_args(mload)
    mload.add_argument("--tags", type=_positive_int, default=1000)
    mload.add_argument("--slots", type=_positive_int, default=300)
    mload.add_argument(
        "--backoff", choices=["beb", "fibonacci", "eied", "adaptive"], default="beb"
    )
    mload.add_argument("--seed", type=int, default=17)

    mfire = macro_sub.add_parser(
        "fire-ring", help="expanding-event-front spatial stress scenario"
    )
    _surface_args(mfire)
    mfire.add_argument("--tags", type=_positive_int, default=10000)
    mfire.add_argument(
        "--backoff", choices=["beb", "fibonacci", "eied", "adaptive"], default="beb"
    )
    mfire.add_argument("--seed", type=int, default=23)

    mval = macro_sub.add_parser(
        "validate",
        help="cross-validate macro vs the sample-domain tier; exit 1 outside tolerance",
    )
    _surface_args(mval)
    mval.add_argument("--seed", type=int, default=123)

    gateway = sub.add_parser(
        "gateway", help="async ingestion gateway over the decode farm"
    )
    gateway_sub = gateway.add_subparsers(dest="gateway_command", required=True)
    gsoak = gateway_sub.add_parser(
        "soak",
        help="chaos-soak the gateway under spikes/brownouts; exit 1 on violation",
    )
    gsoak.add_argument("--streams", type=int, default=50)
    gsoak.add_argument("--rounds", type=int, default=12)
    gsoak.add_argument("--seed", type=int, default=7)
    gsoak.add_argument("--workers", type=int, default=2)
    gsoak.add_argument(
        "--backend",
        choices=["inline", "process"],
        default="inline",
        help="farm backend (inline = deterministic CI-cheap oracle)",
    )
    gsoak.add_argument(
        "--migrate-round",
        type=int,
        default=None,
        metavar="R",
        help="drain worker 0 live after round R (checkpoint/migrate/resume)",
    )
    gsoak.add_argument(
        "--plan",
        metavar="PATH",
        help="fault plan JSON of TrafficSpike/CapacityBrownout faults, or a soak "
        "--artifact file to replay its plan (default: one spike overlapping one brownout)",
    )
    gsoak.add_argument(
        "--random-plan",
        action="store_true",
        help="use a randomized seed-determined spike/brownout schedule instead",
    )
    gsoak.add_argument(
        "--artifact",
        metavar="PATH",
        help="where to write the shrunken reproducing fault plan on violation",
    )
    gsoak.add_argument(
        "--no-shrink",
        action="store_true",
        help="report violations without shrinking the fault plan",
    )

    lint = sub.add_parser(
        "lint",
        help="run the domain-aware static analysis (rule catalog: --list-rules)",
        description="domain-aware static analysis (rule catalog: --list-rules)",
    )
    from repro.lint.cli import add_lint_arguments

    add_lint_arguments(lint)

    trace = sub.add_parser("trace", help="record or replay a channel trace")
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    rec = trace_sub.add_parser("record", help="record a trace to JSON")
    rec.add_argument("path")
    rec.add_argument("--tags", type=_positive_int, default=3)
    rec.add_argument("--rounds", type=_positive_int, default=50)
    rec.add_argument("--seed", type=int, default=7)
    rep = trace_sub.add_parser("replay", help="replay a JSON trace")
    rep.add_argument("path")
    rep.add_argument("--seed", type=int, default=7)
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    config = CbmaConfig(
        n_tags=args.tags,
        seed=args.seed,
        code_family=args.code_family,
        code_length=args.code_length,
    )
    network = CbmaNetwork(config, Deployment.linear(args.tags, tag_to_rx=args.distance))
    if args.power_control:
        result = network.run_power_control(PowerController())
        print(f"power control: {result.epochs} epochs, converged={result.converged}")
    metrics = network.run_rounds(args.rounds)
    print(
        render_table(
            ["metric", "value"],
            [
                ["tags", args.tags],
                ["rounds", args.rounds],
                ["FER", format_percent(metrics.fer)],
                ["PRR", format_percent(metrics.prr)],
                ["detection rate", format_percent(metrics.detection_rate)],
                ["goodput", f"{metrics.goodput_bps / 1e3:.1f} kbps"],
            ],
            title=f"CBMA simulation ({args.code_family}-{args.code_length} codes, {args.distance} m)",
        )
    )
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    if args.artefact == "headline":
        from repro.sim.experiments import headline_throughput

        m = headline_throughput(rounds=args.rounds).metrics
        print(
            render_table(
                ["scheme", "aggregate goodput"],
                [
                    ["CBMA, 10 concurrent tags", f"{m['cbma_bps'] / 1e3:.1f} kbps"],
                    ["single-tag TDMA (genie)", f"{m['single_tag_bps'] / 1e3:.1f} kbps"],
                    ["single-tag FSA", f"{m['fsa_bps'] / 1e3:.1f} kbps"],
                    ["FDMA (4 channels)", f"{m['fdma_bps'] / 1e3:.1f} kbps"],
                ],
                title=f"Headline: {m['aggregate_raw_bps'] / 1e6:.0f} Mbps on-air, FER {m['cbma_fer']:.3f}",
            )
        )
        print(
            f"speedup vs genie TDMA {m['speedup_vs_single']:.1f}x, "
            f"vs FSA {m['speedup_vs_fsa']:.1f}x"
        )
        return 0
    result = _EXPERIMENTS[args.artefact](args.rounds)
    numeric_x = all(isinstance(x, (int, float)) for x in result.x)
    print(render_series(result.x_label, result.x, result.series, title=result.experiment_id))
    if numeric_x and len(result.x) > 1:
        print()
        print(line_plot(result.x, result.series))
    if result.notes:
        print(f"\nnotes: {result.notes}")
    return 0


def _cmd_field(args: argparse.Namespace) -> int:
    field = fig5_signal_field(resolution=args.resolution).artifacts["field_dbm"]
    print("Fig. 5 theoretical signal strength (dBm); ES at (-0.5,0), RX at (+0.5,0)")
    print(heatmap(field))
    print(f"range: {field.min():.1f} .. {field.max():.1f} dBm")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    import time

    from repro.obs import Tracer, jsonl_lines, render_dashboard, write_jsonl

    tracer = Tracer()
    config = CbmaConfig(n_tags=args.tags, seed=args.seed)
    network = CbmaNetwork(
        config,
        Deployment.linear(args.tags, tag_to_rx=args.distance),
        tracer=tracer,
        receiver_kwargs={"max_passes": 3} if args.receiver == "sic" else None,
    )
    t0 = time.perf_counter()
    metrics = network.run_rounds(args.rounds)
    profile = tracer.profile(wall_time_s=time.perf_counter() - t0)

    if args.trace:
        write_jsonl(args.trace, tracer, profile=profile)
    if args.json:
        for line in jsonl_lines(tracer, profile=profile):
            print(line)
        return 0
    print(profile.format_table())
    print()
    print(render_dashboard(profile))
    print(
        f"\n{args.tags} tags x {args.rounds} rounds ({args.receiver} receiver): "
        f"FER {format_percent(metrics.fer)}, goodput {metrics.goodput_bps / 1e3:.1f} kbps"
    )
    if args.trace:
        print(f"event log written to {args.trace}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    if args.trace_command == "record":
        config = CbmaConfig(n_tags=args.tags, seed=args.seed)
        network = CbmaNetwork(config, Deployment.linear(args.tags, tag_to_rx=1.0))
        trace, metrics = record_trace(network, args.rounds, description="CLI recording")
        trace.save(args.path)
        print(f"recorded {len(trace)} rounds to {args.path} (FER {format_percent(metrics.fer)})")
        return 0
    trace = ChannelTrace.load(args.path)
    config = CbmaConfig(n_tags=trace.n_tags, seed=args.seed)
    network = CbmaNetwork(config, Deployment.linear(trace.n_tags, tag_to_rx=1.0))
    metrics = replay_trace(network, trace)
    print(
        f"replayed {len(trace)} rounds: FER {format_percent(metrics.fer)}, "
        f"mean power difference {format_percent(trace.mean_power_difference())}"
    )
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.bench import BenchReport, compare_to_baseline, run_bench

    report = run_bench(quick=args.quick, seed=args.seed, tier=args.tier)
    if args.json:
        print(report.to_json())
    else:
        rows = [
            [
                op.op,
                str(op.reps),
                f"{op.p50_s * 1e3:.3f}",
                f"{op.p95_s * 1e3:.3f}",
            ]
            for op in report.ops
        ]
        mode = "quick" if report.quick else "full"
        print(
            render_table(
                ["op", "reps", "p50 (ms)", "p95 (ms)"],
                rows,
                title=f"repro bench ({mode}, seed {report.seed})",
            )
        )
        for name, value in sorted(report.derived.items()):
            print(f"  {name:<36} {value:6.2f}x")
    path = report.save(args.output)
    print(f"benchmark trajectory written to {path}")
    if args.baseline:
        baseline = BenchReport.load(args.baseline)
        regressions = compare_to_baseline(report, baseline, args.max_regression)
        if regressions:
            print(f"PERF REGRESSION vs {args.baseline} (>{args.max_regression:.1f}x):")
            for regression in regressions:
                print(f"  {regression}")
            return 1
        print(f"no regression vs {args.baseline} (gate: {args.max_regression:.1f}x p50)")
    return 0


def _macro_surface(args: argparse.Namespace):
    """Resolve the surface a ``repro macro`` subcommand runs against:
    a throwaway tiny calibration (``--tiny``), the artifact at
    ``--surface`` taken as-is, or -- when the artifact is missing -- a
    fresh default-spec sweep cached there.  Provenance enforcement
    belongs to ``repro macro calibrate``; the run subcommands trust
    whatever surface they are pointed at."""
    from pathlib import Path

    from repro.macro import CalibrationSpec, FerSurface, calibrate, load_or_calibrate

    if args.tiny:
        print("calibrating tiny in-memory surface (smoke grid) ...")
        return calibrate(CalibrationSpec.tiny())
    if Path(args.surface).exists():
        return FerSurface.load(args.surface)
    return load_or_calibrate(args.surface, CalibrationSpec())


def _cmd_macro(args: argparse.Namespace) -> int:
    from repro.macro import (
        CalibrationSpec,
        MacroConfig,
        MacroSimulator,
        cross_validate,
        fire_ring,
        load_or_calibrate,
        offered_load_sweep,
    )

    if args.macro_command == "calibrate":
        spec = CalibrationSpec.tiny() if args.tiny else CalibrationSpec()
        surface = load_or_calibrate(args.output, spec)
        print(
            f"surface: {surface.fer.shape[0]} tag counts x "
            f"{surface.fer.shape[1]} SNR points "
            f"({surface.snr_db_axis[0]:.1f}..{surface.snr_db_axis[-1]:.1f} dB)"
        )
        wall = surface.provenance.get("sweep_wall_s")
        print(
            f"artifact: {args.output}"
            + (f" (swept in {wall:.1f} s)" if wall is not None else " (cache hit)")
        )
        return 0

    try:
        surface = _macro_surface(args)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: unusable FER surface {args.surface}: {exc}", file=sys.stderr)
        return 2

    if args.macro_command == "run":
        from repro.sim.traffic import PoissonArrivals

        slot_s = float(surface.provenance.get("frame_duration_s", 1e-2))
        traffic = (
            PoissonArrivals(rate_hz=args.rate / slot_s) if args.rate > 0 else None
        )
        config = MacroConfig(
            n_tags=args.tags,
            traffic=traffic,
            slotted=not args.unslotted,
            distance_m=args.distance,
            backoff=args.backoff,
            ack_loss_prob=args.ack_loss,
            seed=args.seed,
        )
        stats = MacroSimulator(config, surface).run(args.slots)
        mode = "unslotted" if args.unslotted else "slotted"
        load = "saturated" if traffic is None else f"{args.rate}/tag/slot"
        print(
            render_table(
                ["metric", "value"],
                [
                    ["offered / delivered", f"{stats.offered} / {stats.delivered}"],
                    ["delivery ratio", format_percent(stats.delivery_ratio)],
                    ["dropped", str(stats.dropped)],
                    ["link FER", format_percent(stats.link_fer)],
                    ["p95 latency", f"{stats.p95_latency_s * 1e3:.1f} ms"],
                    ["peak backlog", str(stats.peak_backlog)],
                    ["goodput", f"{stats.goodput_bps(8 * config.payload_bytes) / 1e3:.1f} kbps"],
                    ["engine rate", f"{stats.events_per_sec / 1e6:.2f} M events/s"],
                ],
                title=f"macro: {args.tags} tags x {args.slots} slots ({mode}, {load}, {args.backoff})",
            )
        )
        return 0

    if args.macro_command == "load":
        result = offered_load_sweep(
            surface,
            n_tags=args.tags,
            n_slots=args.slots,
            backoff=args.backoff,
            seed=args.seed,
        )
        print(render_series(result.x_label, result.x, result.series, title=result.experiment_id))
        print()
        print(line_plot(result.x, {"delivery_ratio": result.series["delivery_ratio"]}))
        return 0

    if args.macro_command == "fire-ring":
        result = fire_ring(
            surface, n_tags=args.tags, backoff=args.backoff, seed=args.seed
        )
        print(line_plot(result.x, {"backlog": result.series["backlog"]}))
        print(
            render_table(
                ["metric", "value"],
                [[k, f"{v:.4g}"] for k, v in sorted(result.metrics.items())],
                title=f"fire ring: {args.tags} tags ({args.backoff})",
            )
        )
        return 0

    if args.macro_command == "validate":
        result = cross_validate(surface, seed=args.seed)
        m = result.metrics
        print(
            render_table(
                ["check", "error", "tolerance"],
                [
                    ["saturated FER (max abs)", f"{m['max_abs_fer_err']:.4f}", f"{result.params['fer_tolerance']:.2f}"],
                    ["ARQ delivery ratio (abs)", f"{m['delivery_err']:.4f}", f"{result.params['delivery_tolerance']:.2f}"],
                    ["ARQ goodput (relative)", f"{m['goodput_rel_err']:.4f}", f"{result.params['goodput_rel_tolerance']:.2f}"],
                ],
                title="macro <-> sample-domain cross-validation",
            )
        )
        if m["within_tolerance"] >= 1.0:
            print("macro tier agrees with the sample domain (within tolerance)")
            return 0
        print("TOLERANCE BREACH: the surface no longer represents the PHY")
        return 1
    raise AssertionError(f"unhandled macro command {args.macro_command!r}")  # pragma: no cover


def _cmd_adapt(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.mac.link_adaptation import SpreadingFactorController

    def measure(length: int, rounds: int) -> float:
        cfg = CbmaConfig(n_tags=args.tags, seed=args.seed, code_length=int(length))
        net = CbmaNetwork(cfg, Deployment.linear(args.tags, tag_to_rx=args.distance))
        return net.run_rounds(rounds).fer

    controller = SpreadingFactorController(lengths=(16, 32, 64, 128))
    result = controller.run(
        measure, n_epochs=args.epochs, rng=np.random.default_rng(args.seed)
    )
    print(
        render_table(
            ["epoch", "code length", "FER", "goodput score"],
            [[e, l, f"{f:.3f}", f"{g:.5f}"] for e, l, f, g in result.history],
            title=f"Spreading-factor adaptation ({args.tags} tags at {args.distance} m)",
        )
    )
    print(f"chosen code length: {result.chosen_length} chips/bit")
    return 0


def _cmd_faults(args: argparse.Namespace) -> int:
    import math

    from repro.faults import (
        AckLoss,
        AdcSaturation,
        BurstInterferer,
        FaultPlan,
        StuckImpedance,
        TagBrownout,
        TagDropout,
    )
    from repro.sim.experiments import resilience_curve, run_faulted_network

    if args.curve:
        result = resilience_curve(
            n_tags=args.tags,
            rounds=args.rounds,
            seed=args.seed,
            distance_m=args.distance,
            burst_power_dbm=None if math.isnan(args.burst) else args.burst,
        )
        print(result.notes)
        print(line_plot(result.x, result.series))
        print(
            render_series(
                result.x_label,
                result.x,
                result.series,
                title="Resilience: delivery vs fault rate",
            )
        )
        return 0

    models = []
    if args.dropout > 0:
        models.append(TagDropout(probability=args.dropout))
    if args.brownout > 0:
        models.append(TagBrownout(probability=args.brownout))
    if args.ack_loss > 0:
        models.append(AckLoss(probability=args.ack_loss))
    if args.stuck > 0:
        models.append(StuckImpedance(tags=tuple(range(min(args.stuck, args.tags)))))
    if not math.isnan(args.burst):
        models.append(
            BurstInterferer(
                start_round=args.rounds // 3,
                end_round=max(2 * args.rounds // 3, args.rounds // 3 + 1),
                power_dbm=args.burst,
            )
        )
    if args.clip > 0:
        models.append(AdcSaturation(full_scale=args.clip))
    plan = FaultPlan(models, seed=args.seed) if models else None

    metrics, profile, fault_log = run_faulted_network(
        plan, n_tags=args.tags, rounds=args.rounds, seed=args.seed, distance_m=args.distance
    )
    if plan is not None:
        print(f"fault plan: {plan.describe()}")
    else:
        print("fault plan: (healthy baseline -- no faults requested)")
    print(
        f"{args.tags} tags x {args.rounds} rounds: FER {format_percent(metrics.fer)}, "
        f"delivery {format_percent(1.0 - metrics.fer)}"
    )
    if fault_log:
        print(
            render_table(
                ["fault", "injections"],
                [[reason, str(count)] for reason, count in sorted(fault_log.items())],
                title="Injected faults",
            )
        )
    if profile.error_budget:
        print("error budget (fraction of sent frames):")
        for stage, frac in sorted(profile.error_budget.items()):
            print(f"  {stage:<24} {frac:7.3f}")
    return 0


def _soak_config(build):
    """``build()`` a soak config, or report it as unusable input
    (``None``; the caller exits 2, not 1 as for a violation)."""
    try:
        return build()
    except ValueError as exc:
        print(f"error: bad soak config: {exc}", file=sys.stderr)
        return None


def _write_soak_artifact(path: str, cfg, violations, plan, **extra) -> None:
    """The one chaos-soak artifact both soak commands write: the whole
    soak config, the violations and the reproducing plan, which
    ``repro gateway soak --plan`` replays."""
    import dataclasses
    import json

    payload = {
        "config": dataclasses.asdict(cfg),
        **extra,
        "violations": [{"name": v.name, "detail": v.detail} for v in violations],
        "plan": plan.to_dict(),
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)


def _cmd_soak(args: argparse.Namespace) -> int:
    from repro.sim.experiments import SoakConfig, run_campaign

    cfg = _soak_config(
        lambda: SoakConfig(n_windows=args.windows, n_tags=args.tags, seed=args.seed)
    )
    if cfg is None:
        return 2
    outcomes = run_campaign(cfg, n_campaigns=args.campaigns, shrink=not args.no_shrink)
    failed = [o for o in outcomes if o.result.violations]
    rows = []
    for o in outcomes:
        r = o.result
        rows.append(
            [
                str(o.campaign),
                str(len(o.plan.faults)),
                f"{r.delivered}/{r.offered}",
                r.final_state,
                str(r.stats["resyncs"]),
                str(r.stats["windows_shed"]),
                str(len(r.violations)),
            ]
        )
    print(
        render_table(
            ["campaign", "faults", "delivered", "final state", "resyncs", "shed", "violations"],
            rows,
            title=f"repro soak: {args.windows} windows x {args.tags} tags, seed {args.seed}",
        )
    )
    if not failed:
        print(f"all {len(outcomes)} campaigns passed every invariant")
        return 0
    for o in failed:
        print(f"\ncampaign {o.campaign} VIOLATED invariants:")
        for v in o.result.violations:
            print(f"  [{v.name}] {v.detail}")
        if o.shrunken is not None:
            print("minimal reproducing fault plan:")
            print(o.shrunken.describe())
    if args.artifact:
        first = failed[0]
        _write_soak_artifact(
            args.artifact,
            cfg,
            first.result.violations,
            first.shrunken if first.shrunken is not None else first.plan,
            campaign=first.campaign,
        )
        print(f"reproducing plan of campaign {first.campaign} written to {args.artifact}")
    return 1


def _cmd_gateway(args: argparse.Namespace) -> int:
    import json

    from repro.faults import CapacityBrownout, FaultPlan, TrafficSpike
    from repro.gateway.soak import (
        GatewaySoakConfig,
        check_load_plan,
        random_gateway_fault_plan,
        run_gateway_soak,
    )
    from repro.sim.experiments import shrink_fault_plan

    if args.plan is not None:
        try:
            with open(args.plan) as fh:
                data = json.load(fh)
            # A soak artifact nests the reproducing plan under "plan".
            if isinstance(data, dict) and "plan" in data:
                data = data["plan"]
            plan = FaultPlan.from_dict(data)
            check_load_plan(plan)
        except (OSError, ValueError, TypeError, KeyError) as exc:
            print(f"error: unusable fault plan {args.plan}: {exc}", file=sys.stderr)
            return 2
    elif args.random_plan:
        plan = random_gateway_fault_plan(args.seed, args.rounds)
    else:
        third = max(1, args.rounds // 3)
        plan = FaultPlan(
            [
                TrafficSpike(factor=3.0, start_round=third, end_round=2 * third + 1),
                CapacityBrownout(
                    factor=0.2, start_round=third + 1, end_round=2 * third + 2
                ),
            ],
            seed=args.seed,
        )

    cfg = _soak_config(
        lambda: GatewaySoakConfig(
            n_streams=args.streams,
            n_rounds=args.rounds,
            seed=args.seed,
            n_workers=args.workers,
            backend=args.backend,
            migrate_round=args.migrate_round,
        )
    )
    if cfg is None:
        return 2
    result = run_gateway_soak(cfg, plan)

    ladder_path = [result.round_states[0]] if result.round_states else []
    for state in result.round_states[1:]:
        if state != ladder_path[-1]:
            ladder_path.append(state)
    print(
        render_table(
            ["metric", "value"],
            [
                ["streams x rounds", f"{args.streams} x {args.rounds}"],
                ["fault plan", f"{len(plan.faults)} faults, seed {plan.seed}"],
                ["offered", str(sum(result.offered.values()))],
                ["admitted / rejected", f"{result.admitted} / {result.rejected}"],
                ["shed", str(result.shed)],
                ["frames delivered", str(result.delivered_frames)],
                ["ladder path", " > ".join(ladder_path)],
                ["peak intake depth", str(result.peak_queue_depth)],
                ["sessions drained", str(len(result.moved_sessions))],
                ["migrations (drain + rebalance)", str(result.migrations)],
            ],
            title=f"repro gateway soak (backend {args.backend}, seed {args.seed})",
        )
    )
    if result.ok:
        print("all gateway invariants held")
        return 0
    print("\ngateway soak VIOLATED invariants:")
    for v in result.violations:
        print(f"  [{v.name}] {v.detail}")
    shrunken = plan
    if not args.no_shrink and not plan.empty:
        shrunken = shrink_fault_plan(
            plan,
            lambda p: bool(run_gateway_soak(cfg, p).violations),
            horizon=args.rounds,
        )
        print("minimal reproducing fault plan:")
        print(shrunken.describe())
    if args.artifact:
        _write_soak_artifact(args.artifact, cfg, result.violations, shrunken)
        print(f"reproducing plan written to {args.artifact}")
    return 1


def _cmd_system(args: argparse.Namespace) -> int:
    from repro.channel.geometry import Room
    from repro.channel.mobility import RandomWalk
    from repro.system import CbmaSystem

    deployment = Deployment.random(
        args.population, rng=args.seed, room=Room(width=1.8, depth=1.4), min_spacing=0.12
    )
    system = CbmaSystem(
        CbmaConfig(n_tags=args.group, seed=args.seed),
        deployment,
        mobility=RandomWalk(step_sigma_m=0.02) if args.mobility else None,
    )
    for report_ in system.run(args.epochs, rounds_per_epoch=args.rounds):
        pc = " +PC" if report_.power_control_ran else ""
        print(
            f"epoch {report_.epoch:3d}: group {report_.group}  "
            f"FER {report_.fer:.3f}{pc}"
        )
    print(
        render_table(
            ["metric", "value"],
            [
                ["population / group", f"{system.population} / {args.group}"],
                ["network FER", format_percent(system.metrics.fer)],
                ["fairness (Jain)", f"{system.fairness():.3f}"],
                ["starved tags", str(system.service_log.starved() or "none")],
                ["goodput", f"{system.metrics.goodput_bps / 1e3:.1f} kbps"],
            ],
            title="Deployment summary",
        )
    )
    return 0


def _check_flag_combinations(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    """Refuse, as a usage error (exit 2), flags whose valid range
    depends on another flag."""
    if args.command == "run":
        try:
            make_codes(args.code_family, args.tags, args.code_length)
        except ValueError as exc:
            parser.error(
                f"run: --code-family {args.code_family} --code-length {args.code_length} "
                f"--tags {args.tags}: {exc}"
            )
    elif args.command == "system" and args.population < args.group:
        parser.error(f"system: --population {args.population} is below --group {args.group}")


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    _check_flag_combinations(parser, args)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "experiment":
        return _cmd_experiment(args)
    if args.command == "field":
        return _cmd_field(args)
    if args.command == "profile":
        return _cmd_profile(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "report":
        from repro.analysis.report import generate_report

        generate_report(args.output, scale=args.scale)
        print(f"report written to {args.output}")
        return 0
    if args.command == "faults":
        return _cmd_faults(args)
    if args.command == "bench":
        return _cmd_bench(args)
    if args.command == "macro":
        return _cmd_macro(args)
    if args.command == "lint":
        from repro.lint.cli import run_lint

        return run_lint(args)
    if args.command == "soak":
        return _cmd_soak(args)
    if args.command == "gateway":
        return _cmd_gateway(args)
    if args.command == "adapt":
        return _cmd_adapt(args)
    if args.command == "system":
        return _cmd_system(args)
    raise AssertionError(f"unhandled command {args.command!r}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
