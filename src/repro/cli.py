"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``list`` -- the available pages, co-runner kernels, and governors.
* ``run`` -- load one page under a governor and print the measurement.
* ``sweep`` -- fixed-frequency sweep of one workload (oracle analysis).
* ``fleet-bench`` -- benchmark the fleet router (micro-batching +
  session-aware skip cache) against the single-process batched
  service and the scalar loop (latency percentiles, throughput,
  speedups, fopt equivalence); ``--no-skip-cache`` times the batched
  service alone.
* ``sim-bench`` -- benchmark the regime-stepped simulator fast path
  against the per-step reference loop (per-case timings, campaign
  aggregate, result equivalence).
* ``swap-bench`` -- benchmark the online learning loop end to end:
  harvest telemetry, retrain, shadow-score the candidate, then
  hot-swap it mid-stream (closed-loop equivalence, shadow overhead,
  swap stall).
* ``retrain`` -- refit the models from harvested telemetry and publish
  the candidate to the model registry.
* ``models`` -- list the registry's published versions and lineage.
* ``figures`` -- regenerate paper figures (all or a selection), with
  optional CSV export.
* ``train`` -- run the measurement campaign, train, and save the model
  bundle to JSON.
* ``classify`` -- the measured Table III.
* ``lint`` -- static determinism & calibration analysis (rules
  R001..R006 of :mod:`repro.analysis`); non-zero exit on any finding
  not suppressed inline or grandfathered in ``lint-baseline.json``.

Each ``*-bench`` command builds its record once, prints a summary of
it, and with ``--output`` writes it through
:func:`repro.experiments.reporting.write_bench_record`.  ``fleet-bench``
and ``swap-bench`` drive their routers through one replay loop,
:func:`repro.serve.loadgen.replay`.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence


def _setup_runtime(args: argparse.Namespace) -> None:
    """Wire the execution runtime to the CLI.

    Installs a stderr progress printer and, when ``--workers`` was
    given, makes it the process-wide default worker count so every
    nested ``evaluate_suite``/``frequency_sweep``/``run_campaign``
    call fans out without plumbing the flag through each layer.
    ``--workers 0`` (or an unset ``REPRO_WORKERS``) keeps everything
    serial in-process.
    """
    from repro.runtime import configure

    def emit(line: str) -> None:
        print(line, file=sys.stderr, flush=True)

    configure(workers=getattr(args, "workers", None), progress=emit)


def _add_workers_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for independent runs "
        "(0 = serial; default: $REPRO_WORKERS or serial)",
    )


def _add_bench_flags(
    parser: argparse.ArgumentParser,
    output_example: str,
    repeats_default: int = 1,
) -> None:
    """The option group every ``*-bench`` command shares.

    All bench records carry the same JSON envelope (git sha,
    calibration identity, host CPU count), so the flags that shape it
    are defined once.
    """
    parser.add_argument(
        "--output", default=None, metavar="JSON",
        help=f"write the bench record (e.g. {output_example})",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="CI-sized models and workload (seconds, not minutes)",
    )
    parser.add_argument(
        "--repeats", type=int, default=repeats_default,
        help="timed repetitions, best-of (default: %(default)s)",
    )


def _add_replay_flags(
    parser: argparse.ArgumentParser, requests_default: int
) -> None:
    """The replay flags ``fleet-bench`` and ``swap-bench`` share.

    :func:`_loadgen_config` turns them into the replay parameters, and
    ``--trace-combos`` sets the workloads :func:`_bench_workload`
    harvests.
    """
    parser.add_argument("--devices", type=int, default=32)
    parser.add_argument("--requests", type=int, default=requests_default)
    parser.add_argument(
        "--batch-size", type=int, default=64, help="flush-on-size"
    )
    parser.add_argument(
        "--max-wait-ms", type=float, default=5.0, help="flush-on-wait"
    )
    parser.add_argument(
        "--qps", type=float, default=5000.0, help="virtual arrival rate"
    )
    parser.add_argument(
        "--qos-margin", type=float, default=0.0, help="deadline safety margin"
    )
    parser.add_argument(
        "--revisit-period", type=int, default=16,
        help="requests per device between counter refreshes "
        "(drives the skip-cache hit rate; 0 disables revisits)",
    )
    parser.add_argument(
        "--trace-combos", type=int, default=None,
        help="suite workloads to harvest counter traces from "
        "(default: 3 with --smoke, else 6)",
    )


def _loadgen_config(args: argparse.Namespace):
    """The :class:`~repro.serve.loadgen.LoadgenConfig` of the replay flags."""
    from repro.serve.loadgen import LoadgenConfig

    return LoadgenConfig(
        devices=args.devices,
        requests=args.requests,
        target_qps=args.qps,
        max_batch_size=args.batch_size,
        max_wait_s=args.max_wait_ms / 1e3,
        qos_margin=args.qos_margin,
        revisit_period=args.revisit_period,
    )


def _smoke_training_config():
    """The CI-sized training campaign the bench smoke modes share."""
    from repro.models.training import TrainingConfig

    return TrainingConfig(
        pages=("amazon", "espn"),
        freqs_hz=(729.6e6, 1190.4e6, 1728.0e6, 2265.6e6),
        dt_s=0.004,
        seed=7,
    )


def _bench_workload(args: argparse.Namespace):
    """``(predictor, harness_config, combos)`` for the serving benches.

    ``--smoke`` swaps in the two-page training campaign, a coarse
    engine step, and three harvested combos unless ``--trace-combos``
    says otherwise -- every layer exercised in seconds.
    """
    from repro.api import default_predictor
    from repro.experiments.harness import HarnessConfig
    from repro.experiments.suite import all_combos

    count = args.trace_combos
    if count is None:
        count = 3 if args.smoke else 6
    combos = all_combos()[:count]
    if args.smoke:
        predictor = default_predictor(_smoke_training_config())
        return predictor, HarnessConfig(dt_s=0.004), combos
    return default_predictor(), HarnessConfig(), combos


def _cmd_list(args: argparse.Namespace) -> int:
    from repro.browser.pages import alexa_pages
    from repro.experiments.harness import GOVERNOR_NAMES
    from repro.workloads.kernels import all_kernels

    print("pages:")
    for page in alexa_pages():
        print(f"  {page.name:<12} {page.features.dom_nodes:>5} DOM nodes")
    print("co-runner kernels:")
    for kernel in all_kernels():
        print(
            f"  {kernel.name:<18} {kernel.expected_intensity.value:<7}"
            f" (nominal MPKI {kernel.solo_mpki:.1f})"
        )
    print("governors:")
    for name in GOVERNOR_NAMES:
        print(f"  {name}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.api import quick_run

    result = quick_run(
        args.page,
        kernel=args.kernel,
        governor=args.governor,
        deadline_s=args.deadline,
    )
    if result.load_time_s is None:
        print("timeout: the page never finished loading")
        return 1
    met = "met" if result.load_time_s <= args.deadline else "MISSED"
    print(f"governor    : {result.governor_name}")
    print(f"load time   : {result.load_time_s:.3f} s ({met} {args.deadline:.1f} s deadline)")
    print(f"avg power   : {result.avg_power_w:.2f} W")
    print(f"energy      : {result.energy_j:.2f} J")
    print(f"PPW         : {result.ppw:.4f}")
    print(f"switches    : {result.switch_count}")
    residency = result.trace.frequency_residency()
    if residency:
        parts = ", ".join(
            f"{freq / 1e9:.2f}GHz:{share:.0%}"
            for freq, share in sorted(residency.items())
        )
        print(f"residency   : {parts}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.core.ppw import find_fd, find_fe, select_fopt
    from repro.experiments.harness import HarnessConfig, frequency_sweep

    _setup_runtime(args)
    config = HarnessConfig(deadline_s=args.deadline)
    sweep = frequency_sweep(args.page, args.kernel, config)
    print(f"{'freq':>7} {'load':>8} {'power':>7} {'PPW':>8}")
    for point in sweep:
        print(
            f"{point.freq_hz / 1e9:>6.2f}G {point.load_time_s:>7.2f}s "
            f"{point.power_w:>6.2f}W {point.ppw:>8.4f}"
        )
    fd = find_fd(sweep, args.deadline)
    fe = find_fe(sweep)
    fopt = select_fopt(sweep, args.deadline)
    print(f"fD={fd.freq_hz / 1e9 if fd else None} fE={fe.freq_hz / 1e9:.2f} "
          f"fopt={fopt.freq_hz / 1e9:.2f} (deadline {args.deadline:.1f}s)")
    return 0


_FIGURE_KEYS = (
    "fig01", "fig02", "fig03", "fig05", "fig06", "fig07", "fig08",
    "fig09", "fig10", "fig11", "tab03", "headline", "overhead",
    "intervals", "ablation-interference", "ablation-piecewise",
    "ext-governors", "ext-margin", "ext-battery", "ext-noise",
    "ext-double",
)


def _cmd_figures(args: argparse.Namespace) -> int:
    from repro.api import default_predictor, default_trained_models
    from repro.experiments import figures
    from repro.experiments.harness import HarnessConfig
    from repro.experiments.reporting import banner

    _setup_runtime(args)
    config = HarnessConfig()
    predictor = default_predictor()
    models = default_trained_models()

    def _battery(predictor, config):
        from repro.experiments.battery import battery_life
        from repro.experiments.harness import evaluate_suite

        return battery_life(
            evaluate_suite(predictor, config=config),
            governors=("interactive", "performance", "EE", "DORA"),
            config=config,
        )

    builders = {
        "fig01": lambda: figures.fig01_interference_range(config=config),
        "fig02": lambda: figures.fig02_load_time_and_energy(config=config),
        "fig03": lambda: figures.fig03_fopt_cases(config=config),
        "fig05": lambda: figures.fig05_model_accuracy(models),
        "fig06": lambda: figures.fig06_fopt_sensitivity(config=config),
        "fig07": lambda: figures.fig07_overall(predictor, config),
        "fig08": lambda: figures.fig08_per_workload(predictor, config),
        "fig09": lambda: figures.fig09_complexity_interference(
            predictor=predictor, config=config
        ),
        "fig10": lambda: figures.fig10_leakage(predictor, config),
        "fig11": lambda: figures.fig11_deadline_sweep(
            predictor=predictor, config=config
        ),
        "tab03": lambda: figures.tab03_classification(config),
        "headline": lambda: figures.headline(predictor, config),
        "overhead": lambda: figures.overhead(predictor, config),
        "intervals": lambda: figures.decision_interval_study(predictor, config),
        "ablation-interference": lambda: figures.interference_ablation(
            predictor, config
        ),
        "ablation-piecewise": lambda: figures.piecewise_ablation(models),
        "ext-governors": lambda: figures.extended_governor_comparison(
            predictor, config
        ),
        "ext-margin": lambda: figures.qos_margin_study(predictor, config),
        "ext-battery": lambda: _battery(predictor, config),
        "ext-noise": lambda: figures.noise_robustness_study(config),
        "ext-double": lambda: figures.double_interference_study(
            predictor, config
        ),
    }
    selected = args.only or list(builders)
    results = {}
    for key in selected:
        if key not in builders:
            print(f"unknown figure {key!r}; choices: {', '.join(builders)}",
                  file=sys.stderr)
            return 2
        print(banner(key))
        results[key] = builders[key]()
        print(results[key].render())
        print()
    if args.export:
        from repro.experiments import export

        exporters = {
            "fig01": export.export_fig01,
            "fig07": export.export_fig07,
            "fig08": export.export_fig08,
            "fig11": export.export_fig11,
        }
        for key, result in results.items():
            exporter = exporters.get(key)
            if exporter is not None:
                path = exporter(result, args.export)
                print(f"exported {path}")
            if key == "fig07":
                print(f"exported {export.export_fig07_cdf(result, args.export)}")
    return 0


def _write_record(args: argparse.Namespace, record: dict) -> None:
    """Write a bench command's record where ``--output`` asks."""
    from repro.experiments.reporting import write_bench_record

    if args.output:
        write_bench_record(args.output, record)
        print(f"wrote {args.output}")


def _cmd_fleet_bench(args: argparse.Namespace) -> int:
    from repro.serve.loadgen import run_fleet_bench

    predictor, harness, combos = _bench_workload(args)
    result = run_fleet_bench(
        predictor,
        _loadgen_config(args),
        harness_config=harness,
        combos=combos,
        skip_cache=not args.no_skip_cache,
        skip_tolerance=args.skip_tolerance,
        repeats=args.repeats,
        trace_source="twin" if args.twin else "harvest",
    )
    record = result.to_record(repeats=args.repeats)
    latency = record["latency"]
    mismatches = (
        record["fopt_mismatches_vs_single"] + record["fopt_mismatches_vs_scalar"]
    )
    print(f"trace source: {record['trace_source']}")
    print(f"requests    : {record['requests']} over {record['devices']} devices")
    print(
        f"skip cache  : {record['skips']} hits "
        f"({record['skip_rate']:.1%}), revisit period "
        f"{record['revisit_period']}"
    )
    print(
        f"batching    : {record['batches']} passes, "
        f"mean {record['mean_batch_size']}, largest {record['largest_batch']}, "
        f"{record['rejected']} rejected"
    )
    print(
        f"latency     : p50 {latency['p50_ms']:.3f} ms, "
        f"p95 {latency['p95_ms']:.3f} ms, p99 {latency['p99_ms']:.3f} ms"
    )
    print(
        f"throughput  : {record['throughput_rps']:.0f} decisions/s "
        f"(single {record['single_throughput_rps']:.0f}/s "
        f"{record['speedup_vs_single']:.1f}x, "
        f"scalar {record['scalar_rps']:.0f}/s "
        f"{record['speedup_vs_scalar']:.1f}x)"
    )
    print(
        f"equivalence : {record['fopt_mismatches_vs_single']} fopt mismatches "
        f"vs single, {record['fopt_mismatches_vs_scalar']} vs scalar"
    )
    _write_record(args, record)
    return 0 if mismatches == 0 else 1


def _cmd_sim_bench(args: argparse.Namespace) -> int:
    from repro.sim.bench import run_engine_bench, smoke_slice

    cases = smoke_slice() if args.smoke else None
    record = run_engine_bench(cases=cases, repeats=args.repeats)
    print(f"{'case':<34} {'steps':>6} {'ref':>9} {'fast':>9} {'speedup':>8}")
    for row in record["cases"]:
        print(
            f"{row['label']:<34} {row['steps']:>6} "
            f"{row['ref_ms']:>7.2f}ms {row['fast_ms']:>7.2f}ms "
            f"{row['speedup']:>7.2f}x"
        )
    campaign = record["campaign"]
    overall = record["overall"]
    print(
        f"campaign    : {campaign['speedup']:.2f}x over {campaign['cases']} "
        f"cases ({campaign['ref_ms']:.1f}ms -> {campaign['fast_ms']:.1f}ms)"
    )
    print(
        f"overall     : {overall['speedup']:.2f}x over {overall['cases']} "
        f"cases ({overall['ref_ms']:.1f}ms -> {overall['fast_ms']:.1f}ms)"
    )
    _write_record(args, record)
    return 0


def _cmd_swap_bench(args: argparse.Namespace) -> int:
    from repro.learn.bench import run_swap_bench

    _setup_runtime(args)
    predictor, harness, combos = _bench_workload(args)
    result = run_swap_bench(
        predictor,
        _loadgen_config(args),
        harness_config=harness,
        combos=combos,
        work_dir=args.work_dir,
        repeats=args.repeats,
        promote_threshold=args.promote_threshold,
    )
    record = result.to_record(repeats=args.repeats)
    retrain = record["retrain"]
    swap = record["swap"]
    print(
        f"harvest     : {record['telemetry_records']} telemetry records "
        f"over {record['devices']} devices"
    )
    print(
        f"retrain     : v{retrain['version']} from "
        f"{retrain['vectors_unique']} vectors "
        f"({retrain['observations']} observations, "
        f"{retrain['vectors_dropped']} dropped)"
    )
    print(
        f"shadow      : {record['shadow_mismatches']} mismatches over "
        f"{record['shadow_scored']} scored, "
        f"overhead {record['shadow_overhead']:.1%}, "
        f"promoted={record['promoted']}"
    )
    print(
        f"hot-swap    : {swap['responses']} responses, "
        f"{swap['dropped_tickets']} dropped, "
        f"{swap['fopt_mismatches_vs_baseline']} fopt mismatches, "
        f"swap call {swap['swap_call_ms']:.2f} ms"
    )
    _write_record(args, record)
    failed = (
        record["shadow_mismatches"] != 0
        or swap["dropped_tickets"] != 0
        or swap["fopt_mismatches_vs_baseline"] != 0
    )
    return 1 if failed else 0


def _cmd_retrain(args: argparse.Namespace) -> int:
    from repro.api import (
        default_model_registry,
        default_predictor,
        default_telemetry_store,
    )
    from repro.learn.retrain import RetrainConfig, retrain_from_telemetry

    _setup_runtime(args)
    store = default_telemetry_store(args.telemetry)
    registry = default_model_registry(args.registry)
    if store.record_count() == 0:
        print(
            f"no telemetry under {store.partition} -- run a fleet with "
            "telemetry attached (e.g. swap-bench) first",
            file=sys.stderr,
        )
        return 2
    # The generating model: the registry's active version when one is
    # pinned, else the bundle the fleet serves by default.
    parent = registry.active_version()
    if parent is not None:
        predictor = registry.load(parent)
    elif args.smoke:
        predictor = default_predictor(_smoke_training_config())
    else:
        predictor = default_predictor()
    result = retrain_from_telemetry(
        store,
        predictor,
        registry=registry,
        config=RetrainConfig(ridge_cross=args.ridge_cross),
        parent_version=parent,
    )
    record = result.to_record()
    print(
        f"telemetry   : {record['records_seen']} records, "
        f"{record['vectors_unique']} unique vectors "
        f"({record['vectors_dropped']} dropped)"
    )
    print(f"fit         : {record['observations']} labeled observations")
    lineage = f" (parent v{parent})" if parent is not None else ""
    print(f"published   : v{record['version']}{lineage} -> {registry.partition}")
    if args.activate:
        registry.activate(result.version)
        print(f"activated   : v{result.version}")
    return 0


def _cmd_models(args: argparse.Namespace) -> int:
    from repro.api import default_model_registry

    registry = default_model_registry(args.registry)
    versions = registry.versions()
    if not versions:
        print(f"no published models under {registry.partition}")
        return 0
    active = registry.active_version()
    print(f"registry    : {registry.partition}")
    for version in versions:
        meta = registry.meta(version)
        parent = meta.get("parent_version")
        lineage = f"parent v{parent}" if parent is not None else "root"
        marker = " *active*" if version == active else ""
        print(
            f"  v{version:04d}  {meta.get('source', '?'):<8} {lineage:<12} "
            f"{meta.get('observations', '?')} obs, "
            f"tag {meta.get('calibration', {}).get('tag', '?')}{marker}"
        )
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    from repro.api import default_trained_models
    from repro.models.serialization import save_predictor
    from repro.models.training import overall_accuracy

    _setup_runtime(args)
    models = default_trained_models()
    time_acc, power_acc = overall_accuracy(models)
    print(f"{len(models.observations)} observations; "
          f"accuracy: load time {time_acc:.1%}, power {power_acc:.1%}")
    if args.output:
        save_predictor(models.predictor, args.output)
        print(f"saved model bundle to {args.output}")
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    from repro.experiments.figures import tab03_classification
    from repro.experiments.harness import HarnessConfig

    print(tab03_classification(HarnessConfig()).render())
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from repro.analysis import (
        Baseline,
        build_call_graph,
        default_baseline_path,
        report_to_sarif,
        rules_for_ids,
        run_lint,
    )

    package_root = Path(args.root) if args.root else None
    exclude = tuple(args.exclude or ())

    if args.graph:
        graph = build_call_graph(package_root=package_root, exclude=exclude)
        print(json.dumps(graph.to_record(), indent=2))
        return 0

    if args.no_baseline:
        baseline = Baseline()
        baseline_path = None
    else:
        baseline_path = (
            Path(args.baseline) if args.baseline else default_baseline_path()
        )
        baseline = Baseline.load(baseline_path)
    rules = None
    if args.rules:
        # Accept both `--rules R001 R002` and `--rules R001,R002`.
        requested = [
            rule_id.strip()
            for chunk in args.rules
            for rule_id in chunk.split(",")
            if rule_id.strip()
        ]
        try:
            rules = rules_for_ids(requested)
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 2

    report = run_lint(
        package_root=package_root,
        rules=rules,
        baseline=baseline,
        exclude=exclude,
    )

    if args.write_baseline:
        if baseline_path is None:
            print("--write-baseline conflicts with --no-baseline", file=sys.stderr)
            return 2
        Baseline.from_findings(report.all_violations).save(baseline_path)
        print(f"wrote {len(report.all_violations)} entries to {baseline_path}")
        return 0

    if args.format == "json":
        rendered = json.dumps(report.to_record(), indent=2)
    elif args.format == "sarif":
        rendered = json.dumps(report_to_sarif(report), indent=2)
    else:
        rendered = report.render()
    print(rendered)
    if args.output:
        Path(args.output).write_text(
            json.dumps(report.to_record(), indent=2) + "\n"
        )
        print(f"wrote {args.output}", file=sys.stderr)
    if args.sarif:
        Path(args.sarif).write_text(
            json.dumps(report_to_sarif(report), indent=2) + "\n"
        )
        print(f"wrote {args.sarif}", file=sys.stderr)
    # Stale baseline entries fail the gate too: the baseline must stay
    # minimal, or fixed violations could silently regress.
    return 0 if report.ok and not report.stale_baseline else 1


def _cmd_characterize(args: argparse.Namespace) -> int:
    from repro.experiments.calibration import characterize

    report = characterize()
    print(report.render())
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DORA (ISPASS 2018) reproduction toolkit",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("list", help="pages, kernels, governors").set_defaults(
        func=_cmd_list
    )

    run_parser = commands.add_parser("run", help="load one page")
    run_parser.add_argument("page")
    run_parser.add_argument("--kernel", default=None)
    run_parser.add_argument("--governor", default="DORA")
    run_parser.add_argument("--deadline", type=float, default=3.0)
    run_parser.set_defaults(func=_cmd_run)

    sweep_parser = commands.add_parser("sweep", help="fixed-frequency sweep")
    sweep_parser.add_argument("page")
    sweep_parser.add_argument("--kernel", default=None)
    sweep_parser.add_argument("--deadline", type=float, default=3.0)
    _add_workers_flag(sweep_parser)
    sweep_parser.set_defaults(func=_cmd_sweep)

    figures_parser = commands.add_parser("figures", help="reproduce figures")
    figures_parser.add_argument(
        "--only", nargs="+", choices=_FIGURE_KEYS, default=None
    )
    figures_parser.add_argument(
        "--export", default=None, metavar="DIR", help="also write CSVs"
    )
    _add_workers_flag(figures_parser)
    figures_parser.set_defaults(func=_cmd_figures)

    fleet_parser = commands.add_parser(
        "fleet-bench",
        help="benchmark the fleet router with its skip cache",
    )
    _add_replay_flags(fleet_parser, requests_default=4096)
    fleet_parser.add_argument(
        "--no-skip-cache", action="store_true",
        help="disable the session-aware skip cache",
    )
    fleet_parser.add_argument(
        "--skip-tolerance", type=float, default=0.0,
        help="absolute per-feature drift a skip hit may absorb",
    )
    fleet_parser.add_argument(
        "--twin", action="store_true",
        help="time each request's arrival by its device's decision "
        "epoch in the fleet simulation instead of a uniform drip",
    )
    _add_bench_flags(fleet_parser, "BENCH_fleet.json")
    fleet_parser.set_defaults(func=_cmd_fleet_bench)

    sim_parser = commands.add_parser(
        "sim-bench", help="benchmark the regime-stepped engine fast path"
    )
    _add_bench_flags(sim_parser, "BENCH_engine.json", repeats_default=5)
    sim_parser.set_defaults(func=_cmd_sim_bench)

    swap_parser = commands.add_parser(
        "swap-bench",
        help="benchmark the online learning loop (harvest -> retrain -> "
        "shadow -> hot-swap)",
    )
    _add_replay_flags(swap_parser, requests_default=2048)
    swap_parser.add_argument(
        "--work-dir", default=None, metavar="DIR",
        help="telemetry store + registry root (default: the repro cache)",
    )
    swap_parser.add_argument(
        "--promote-threshold", type=float, default=0.0,
        help="max shadow mismatch rate the promote decision allows",
    )
    _add_bench_flags(swap_parser, "BENCH_swap.json")
    _add_workers_flag(swap_parser)
    swap_parser.set_defaults(func=_cmd_swap_bench)

    retrain_parser = commands.add_parser(
        "retrain", help="refit models from telemetry, publish to the registry"
    )
    retrain_parser.add_argument(
        "--telemetry", default=None, metavar="DIR",
        help="telemetry store root (default: <cache>/telemetry)",
    )
    retrain_parser.add_argument(
        "--registry", default=None, metavar="DIR",
        help="model registry root (default: <cache>/registry)",
    )
    retrain_parser.add_argument(
        "--ridge-cross", type=float, default=0.0,
        help="cross-term ridge penalty (0 = exact self-replay recovery)",
    )
    retrain_parser.add_argument(
        "--activate", action="store_true",
        help="pin the published version as the registry's active model",
    )
    retrain_parser.add_argument(
        "--smoke", action="store_true",
        help="CI-sized generating model when the registry is empty",
    )
    _add_workers_flag(retrain_parser)
    retrain_parser.set_defaults(func=_cmd_retrain)

    models_parser = commands.add_parser(
        "models", help="list the registry's published model versions"
    )
    models_parser.add_argument(
        "--registry", default=None, metavar="DIR",
        help="model registry root (default: <cache>/registry)",
    )
    models_parser.set_defaults(func=_cmd_models)

    train_parser = commands.add_parser("train", help="train + save models")
    train_parser.add_argument("--output", default=None, metavar="JSON")
    _add_workers_flag(train_parser)
    train_parser.set_defaults(func=_cmd_train)

    commands.add_parser("classify", help="measured Table III").set_defaults(
        func=_cmd_classify
    )

    lint_parser = commands.add_parser(
        "lint", help="static determinism & calibration analysis"
    )
    lint_parser.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
        help="report format on stdout",
    )
    lint_parser.add_argument(
        "--output", default=None, metavar="JSON",
        help="also write the JSON report to this path (CI artifact)",
    )
    lint_parser.add_argument(
        "--sarif", default=None, metavar="SARIF",
        help="also write a SARIF 2.1.0 report to this path (GitHub "
        "code scanning)",
    )
    lint_parser.add_argument(
        "--rules", nargs="+", default=None, metavar="R00x",
        help="restrict to a subset of rule ids (space- or "
        "comma-separated; unknown ids are an error)",
    )
    lint_parser.add_argument(
        "--root", default=None, metavar="DIR",
        help="alternate package root to scan (default: the installed "
        "repro package)",
    )
    lint_parser.add_argument(
        "--exclude", action="append", default=None, metavar="PREFIX",
        help="root-relative path prefix to skip (repeatable; e.g. "
        "fixture corpora that violate rules on purpose)",
    )
    lint_parser.add_argument(
        "--graph", action="store_true",
        help="dump the project call graph as JSON and exit (debug aid "
        "for the taint pass)",
    )
    lint_parser.add_argument(
        "--baseline", default=None, metavar="JSON",
        help="baseline file (default: lint-baseline.json at the repo root)",
    )
    lint_parser.add_argument(
        "--no-baseline", action="store_true",
        help="ignore the baseline (report every violation)",
    )
    lint_parser.add_argument(
        "--write-baseline", action="store_true",
        help="regenerate the baseline from current findings and exit",
    )
    lint_parser.set_defaults(func=_cmd_lint)
    commands.add_parser(
        "characterize", help="check every calibration property"
    ).set_defaults(func=_cmd_characterize)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Output piped into a pager/head that closed early.
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
