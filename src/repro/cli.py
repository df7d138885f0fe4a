"""Command-line interface: ``repro-helper-cluster`` / ``python -m repro``.

Subcommands
-----------
``run``        Simulate one benchmark under one policy and print the metrics.
``ladder``     Run the cumulative policy ladder over a set of benchmarks.
``sweep``      Run a benchmarks x policies sweep (``--suite table2`` runs the
               412-app workload suite and regenerates the Figure 14 tables).
``explore``    Design-space exploration: sweep a topology grid (narrow width
               x clock ratio x helper count, plus ``--mixed`` asymmetric
               helper mixes such as ``8@2+16@1``) and print a sensitivity
               table with per-cluster energy and ED²-vs-baseline columns.
``energy``     Reproduce the paper's energy-delay² comparison (the +5.1%
               ED² claim for IR) through the parallel engine: per-benchmark
               energy / delay ratios against the monolithic baseline plus
               the per-cluster energy split.

``--policy`` / ``--policies`` choices come from the policy registry
(:data:`repro.core.steering.policy_registry`), so registered policies —
including the width-aware ``ir_wa`` / ``n888_wa`` variants — are runnable
from every subcommand without touching this module.
``analyze``    Run the Figure 1 / 11 / 13 trace characterisation analyses.
``table1``     Print the baseline machine parameters (Table 1).
``workloads``  List the Table 2 workload suite categories.

``ladder``, ``sweep``, ``explore`` and ``energy`` accept the parallel-engine
flags: ``--jobs N`` fans the jobs over N worker processes (0 = one per CPU),
``--cache-dir DIR`` enables the content-addressed on-disk result cache, and
``--no-cache`` bypasses cache reads while still refreshing stored entries.
Results are bit-identical across serial, parallel and cached runs, and every
result carries its per-cluster energy figures (sourced from the cache on
re-runs).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from repro.analysis.carry import analyze_carry
from repro.analysis.distance import producer_consumer_distance
from repro.analysis.narrowness import analyze_narrowness
from repro.core.config import TABLE_1_PARAMETERS, helper_cluster_config
from repro.core.steering import policy_registry
from repro.sim.baseline import baseline_pair
from repro.sim.experiment import (
    ExperimentRunner,
    build_topology_grid,
    mixed_topology_point,
)
from repro.sim.reporting import (
    cache_stats_line,
    format_energy_table,
    format_ladder_summary,
    format_policy_table,
    format_table,
    format_topology_table,
    format_workload_summary,
    sweep_to_csv,
    to_csv,
    topology_sweep_to_csv,
)
from repro.trace.profiles import SPEC_INT_NAMES, get_profile
from repro.trace.synthetic import generate_trace
from repro.trace.workloads import WORKLOAD_CATEGORIES


def _add_engine_flags(parser: argparse.ArgumentParser) -> None:
    """Parallel-engine knobs shared by the sweep-shaped subcommands."""
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes (1 = serial, 0 = one per CPU; "
                             "requests past the CPU count are clamped)")
    parser.add_argument("--cache-dir", default=None,
                        help="directory for the on-disk result cache (also "
                             "enables checkpoint/resume: an interrupted "
                             "campaign picks up from its completed results)")
    parser.add_argument("--no-cache", action="store_true",
                        help="bypass cache reads (entries are still refreshed)")
    parser.add_argument("--attempts", type=int, default=None, metavar="N",
                        help="supervised attempts per job before it is "
                             "quarantined (default 3)")
    parser.add_argument("--job-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="per-job wall-clock deadline base (scaled by "
                             "trace length; an expired job is retried)")
    parser.add_argument("--faults", default=None, metavar="SPEC",
                        help="deterministic fault-injection plan for chaos "
                             "testing (repro.faultkit spec, e.g. "
                             "'seed=7,crash=0.2,hang=0.1'; mirrors "
                             "REPRO_FAULTS)")


def _runner_kwargs(args: argparse.Namespace) -> dict:
    """ExperimentRunner kwargs shared by the sweep-shaped subcommands."""
    kwargs = dict(trace_uops=args.uops, seed=args.seed, jobs=args.jobs,
                  cache_dir=args.cache_dir, use_cache=not args.no_cache)
    if getattr(args, "faults", None):
        from repro.faultkit import FaultPlan

        kwargs["faults"] = FaultPlan.parse(args.faults)
    overrides = {}
    if getattr(args, "attempts", None) is not None:
        overrides["max_attempts"] = args.attempts
    if getattr(args, "job_timeout", None) is not None:
        overrides["timeout_base"] = args.job_timeout
    if overrides:
        from dataclasses import replace

        from repro.sim.supervise import SupervisorPolicy

        kwargs["supervisor"] = replace(SupervisorPolicy(), **overrides)
    return kwargs


def _print_engine_footer(runner) -> None:
    """Sweep-table footer: cache stats or worker clamp, and — when anything
    supervision-worthy happened — the supervision line (retries, timeouts,
    quarantined jobs, resume)."""
    if runner.cache is not None:
        print(cache_stats_line(runner.cache, runner.engine.trace_store,
                               engine=runner.engine))
    elif runner.engine.jobs_clamped_from:
        print(f"jobs={runner.engine.jobs} (clamped from "
              f"{runner.engine.jobs_clamped_from}: the host has "
              f"{runner.engine.jobs} usable CPU(s))")
    supervision = runner.report.summary_line()
    if supervision:
        print(supervision)
    if runner.report.quarantined:
        print(f"quarantined jobs written to {runner.engine.quarantine_path}",
              file=sys.stderr)


def _engine_exit(runner) -> int:
    """Exit code of a supervised campaign: 3 when any job was quarantined
    (results above are the surviving cells), 0 otherwise."""
    return 3 if runner.report.quarantined else 0


def _parse_mixed_shapes(text: str) -> List[tuple]:
    """Parse an asymmetric helper mix spec like ``8@2+16@1``.

    Each ``+``-separated part is one helper as ``width@ratio`` (``@ratio``
    optional, defaulting to 1).
    """
    shapes: List[tuple] = []
    for part in text.split("+"):
        width_text, _, ratio_text = part.strip().partition("@")
        try:
            shapes.append((int(width_text), int(ratio_text) if ratio_text else 1))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"bad helper mix {text!r}: each part must be width@ratio, "
                f"e.g. 8@2+16@1")
    return shapes


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-helper-cluster",
        description="Helper-cluster (data-width aware steering) reproduction")
    sub = parser.add_subparsers(dest="command", required=True)

    # --policy choices come from the policy registry, so registering a
    # PolicySpec makes it runnable from every subcommand without touching
    # this module.
    all_policies = policy_registry.names()
    helper_policies = policy_registry.helper_names()

    run = sub.add_parser("run", help="simulate one benchmark under one policy")
    run.add_argument("--benchmark", default="gcc", choices=SPEC_INT_NAMES)
    run.add_argument("--policy", default="ir", choices=all_policies)
    run.add_argument("--uops", type=int, default=20_000)
    run.add_argument("--seed", type=int, default=2006)
    run.add_argument("--profile", default=None, choices=["cprofile"],
                     help="profile the pair of runs: 'cprofile' dumps the "
                          "top functions by cumulative time")

    ladder = sub.add_parser("ladder", help="run the cumulative policy ladder")
    ladder.add_argument("--benchmarks", nargs="*", default=None, choices=SPEC_INT_NAMES)
    ladder.add_argument("--uops", type=int, default=15_000)
    ladder.add_argument("--seed", type=int, default=2006)
    ladder.add_argument("--policies", nargs="*", default=None,
                        choices=helper_policies)
    _add_engine_flags(ladder)

    sweep = sub.add_parser("sweep", help="run a benchmarks x policies sweep")
    sweep.add_argument("--suite", default="spec", choices=["spec", "table2"],
                       help="spec: SPEC Int 2000; table2: the 412-app "
                            "workload suite of §3.8 / Figure 14")
    sweep.add_argument("--benchmarks", nargs="*", default=None, choices=SPEC_INT_NAMES)
    sweep.add_argument("--policies", nargs="*", default=None,
                       choices=helper_policies)
    sweep.add_argument("--categories", nargs="*", default=None,
                       choices=list(WORKLOAD_CATEGORIES),
                       help="table2 only: restrict to these categories")
    sweep.add_argument("--apps-per-category", type=int, default=None,
                       metavar="N",
                       help="table2 only: cap apps per category "
                            "(default: the full Table 2 counts)")
    sweep.add_argument("--uops", type=int, default=15_000)
    sweep.add_argument("--seed", type=int, default=2006)
    sweep.add_argument("--csv", default=None, metavar="PATH",
                       help="also write the per-benchmark rows as CSV")
    _add_engine_flags(sweep)

    explore = sub.add_parser(
        "explore", help="design-space exploration over a topology grid")
    explore.add_argument("--widths", nargs="*", type=int, default=[4, 8, 16],
                         help="narrow datapath widths in bits")
    explore.add_argument("--ratios", nargs="*", type=int, default=[1, 2],
                         help="helper clock ratios")
    explore.add_argument("--helpers", nargs="*", type=int, default=[1, 2],
                         help="helper cluster counts")
    explore.add_argument("--mixed", action="append", default=None,
                         type=_parse_mixed_shapes, metavar="W@R+W@R",
                         help="add an asymmetric helper-mix point, e.g. "
                              "8@2+16@1 (repeatable)")
    explore.add_argument("--data-width", type=int, default=None, metavar="BITS",
                         help="override the benchmarks' narrow-data band "
                              "width (e.g. 16 for halfword-heavy workloads)")
    explore.add_argument("--benchmarks", nargs="*", default=None,
                         choices=SPEC_INT_NAMES)
    explore.add_argument("--policy", default="ir",
                         choices=helper_policies)
    explore.add_argument("--uops", type=int, default=15_000)
    explore.add_argument("--seed", type=int, default=2006)
    explore.add_argument("--csv", default=None, metavar="PATH",
                         help="also write the per-point rows as CSV")
    _add_engine_flags(explore)

    energy = sub.add_parser(
        "energy", help="energy-delay² comparison vs the monolithic baseline")
    energy.add_argument("--benchmarks", nargs="*", default=None,
                        choices=SPEC_INT_NAMES)
    energy.add_argument("--policy", default="ir", choices=helper_policies,
                        help="helper configuration to compare (the paper's "
                             "+5.1%% ED2 claim is for ir)")
    energy.add_argument("--uops", type=int, default=15_000)
    energy.add_argument("--seed", type=int, default=2006)
    energy.add_argument("--csv", default=None, metavar="PATH",
                        help="also write the per-benchmark rows as CSV")
    _add_engine_flags(energy)

    analyze = sub.add_parser("analyze", help="run the trace characterisation analyses")
    analyze.add_argument("--benchmark", default="gcc", choices=SPEC_INT_NAMES)
    analyze.add_argument("--uops", type=int, default=20_000)
    analyze.add_argument("--seed", type=int, default=2006)

    fuzz = sub.add_parser(
        "fuzz", help="differential fuzzing: event wheel vs reference loop")
    fuzz.add_argument("--cases", type=int, default=50,
                      help="number of cases to generate and co-simulate")
    fuzz.add_argument("--seed", type=int, default=0,
                      help="campaign seed (case i uses a pure function of "
                           "seed and i, so any case replays from the log)")
    fuzz.add_argument("--shrink", dest="shrink", action="store_true",
                      default=True, help="shrink failures to minimal "
                      "reproducers (default)")
    fuzz.add_argument("--no-shrink", dest="shrink", action="store_false",
                      help="report failures as generated, without shrinking")
    fuzz.add_argument("--out", default="fuzz-failures", metavar="DIR",
                      help="directory for failure artifacts: repro scripts "
                           "plus original and shrunk case JSON")
    fuzz.add_argument("--corpus", default=None, metavar="DIR",
                      help="also write shrunk failures as corpus entries "
                           "here (e.g. tests/fuzz_corpus)")
    fuzz.add_argument("--time-budget", type=float, default=None,
                      metavar="SECONDS",
                      help="stop starting new cases after this many seconds")
    fuzz.add_argument("--max-failures", type=int, default=5,
                      help="stop after this many failing cases")
    fuzz.add_argument("--skip-store-checks", action="store_true",
                      help="skip the ResultCache/TraceStore round-trip "
                           "checks (faster campaigns)")
    fuzz.add_argument("--engine-faults", type=int, default=0, metavar="N",
                      help="instead of differential cases, run N seeded "
                           "chaos scenarios through the supervised engine "
                           "(repro.fuzz.enginefaults): surviving results "
                           "must match a fault-free serial run; divergences "
                           "land in the corpus as engine-fault entries")

    replay = sub.add_parser(
        "fuzz-replay", help="replay a fuzz corpus directory (tier-1 gate)")
    replay.add_argument("--corpus", default="tests/fuzz_corpus", metavar="DIR",
                        help="corpus directory of *.json case entries")

    lint = sub.add_parser(
        "lint", help="run the repo-contract static analysis (repro.lintkit)")
    lint.add_argument("--format", choices=["text", "json"], default="text",
                      help="report format (json is the CI artifact form)")
    lint.add_argument("--output", default=None, metavar="PATH",
                      help="also write the report to this file")
    lint.add_argument("--rules", default=None, metavar="CODES",
                      help="comma-separated rule codes to run "
                           "(e.g. REP001,REP004); default: all")
    lint.add_argument("--root", default=None, metavar="DIR",
                      help="project root to lint (default: this checkout)")
    lint.add_argument("--update-fingerprints", action="store_true",
                      help="bless the current semantic-module fingerprints "
                           "for REP005 (only after golden pins + fuzz "
                           "corpus prove bit-identity, or with a "
                           "SIMULATOR_VERSION bump)")
    lint.add_argument("--show-suppressed", action="store_true",
                      help="include suppressed findings in text output")

    sub.add_parser("table1", help="print the Table 1 baseline parameters")
    sub.add_parser("workloads", help="list the Table 2 workload categories")
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    profile = get_profile(args.benchmark)
    trace = generate_trace(profile, args.uops, seed=args.seed)
    profiler = None
    if args.profile == "cprofile":
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
        base, helper, gain = baseline_pair(trace, args.policy,
                                           helper_config=helper_cluster_config())
        profiler.disable()
    else:
        base, helper, gain = baseline_pair(trace, args.policy,
                                           helper_config=helper_cluster_config())
    rows = [
        ["baseline IPC", base.ipc],
        ["helper IPC", helper.ipc],
        ["speedup (%)", gain * 100.0],
        ["helper-cluster instructions (%)", helper.helper_fraction * 100.0],
        ["copy instructions (%)", helper.copy_fraction * 100.0],
        ["width prediction accuracy (%)", helper.prediction.accuracy * 100.0],
        ["fatal misprediction rate (%)", helper.prediction.fatal_rate * 100.0],
        ["recoveries", helper.recoveries],
        ["wide-to-narrow imbalance (%)", helper.wide_to_narrow_imbalance * 100.0],
    ]
    print(format_table(["metric", "value"], rows,
                       title=f"{args.benchmark} / {args.policy} ({args.uops} uops)",
                       float_format="{:.2f}"))
    if profiler is not None:
        import io
        import pstats

        stream = io.StringIO()
        stats = pstats.Stats(profiler, stream=stream)
        stats.strip_dirs().sort_stats("cumulative").print_stats(25)
        print()
        print(stream.getvalue().rstrip())
    return 0


def _run_engine_sweep(args: argparse.Namespace, policies: List[str]):
    """Run the sweep through an ExperimentRunner, returning (sweep, runner)."""
    runner = ExperimentRunner(**_runner_kwargs(args))
    names = args.benchmarks or list(SPEC_INT_NAMES)
    profiles = [get_profile(name) for name in names]
    return runner.run_suite(profiles, policies), runner


def _cmd_ladder(args: argparse.Namespace) -> int:
    policies = args.policies or policy_registry.ladder_names(include_baseline=False)
    sweep, runner = _run_engine_sweep(args, policies)
    print(format_ladder_summary(sweep, title="Cumulative steering-policy ladder"))
    print()
    for policy in policies:
        print(format_policy_table(sweep, policy))
        print()
    _print_engine_footer(runner)
    return _engine_exit(runner)


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.suite == "table2":
        if args.benchmarks:
            print("--benchmarks selects SPEC benchmarks; with --suite table2 "
                  "use --categories / --apps-per-category", file=sys.stderr)
            return 2
        return _cmd_sweep_table2(args)
    if args.categories or args.apps_per_category is not None:
        print("--categories / --apps-per-category require --suite table2",
              file=sys.stderr)
        return 2
    policies = args.policies or policy_registry.ladder_names(include_baseline=False)
    sweep, runner = _run_engine_sweep(args, policies)
    print(format_ladder_summary(sweep, title="Sweep summary"))
    csv_text = sweep_to_csv(sweep)
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as handle:
            handle.write(csv_text + "\n")
        print(f"\nwrote {args.csv}")
    print()
    _print_engine_footer(runner)
    return _engine_exit(runner)


def _cmd_sweep_table2(args: argparse.Namespace) -> int:
    """§3.8 / Figure 14: the workload suite through the parallel engine."""
    policies = args.policies or ["ir_nodest"]
    if len(policies) != 1:
        print("--suite table2 takes exactly one policy", file=sys.stderr)
        return 2
    runner = ExperimentRunner(**_runner_kwargs(args))
    sweep = runner.run_workload_suite(
        policy=policies[0], categories=args.categories,
        apps_per_category=args.apps_per_category)
    descriptions = {key: category.description
                    for key, category in WORKLOAD_CATEGORIES.items()}
    print(format_workload_summary(sweep, descriptions=descriptions))
    if args.csv:
        from repro.sim.reporting import to_csv
        rows = [[app.name, app.category, sweep.speedup(app.name),
                 sweep.by_app[app.name].ipc]
                for app in sweep.apps]
        with open(args.csv, "w", encoding="utf-8") as handle:
            handle.write(to_csv(["app", "category", "speedup", "ipc"], rows) + "\n")
        print(f"\nwrote {args.csv}")
    print()
    _print_engine_footer(runner)
    return _engine_exit(runner)


def _cmd_explore(args: argparse.Namespace) -> int:
    runner = ExperimentRunner(**_runner_kwargs(args))
    points = build_topology_grid(args.widths, args.ratios, args.helpers)
    for shapes in args.mixed or []:
        points.append(mixed_topology_point(shapes))
    names = args.benchmarks or list(SPEC_INT_NAMES)
    profiles = [get_profile(name) for name in names]
    if args.data_width is not None:
        profiles = [profile.scaled(data_width=args.data_width)
                    for profile in profiles]
    sweep = runner.run_topology_grid(points, profiles, policy=args.policy)
    print(format_topology_table(sweep))
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as handle:
            handle.write(topology_sweep_to_csv(sweep) + "\n")
        print(f"\nwrote {args.csv}")
    print()
    _print_engine_footer(runner)
    return _engine_exit(runner)


def _cmd_energy(args: argparse.Namespace) -> int:
    """Reproduce the paper's ED² comparison through the parallel engine."""
    sweep, runner = _run_engine_sweep(args, [args.policy])
    print(format_energy_table(sweep, args.policy))
    gain = sweep.mean_ed2_improvement(args.policy) * 100.0
    print(f"\nmean ED2 improvement over baseline: {gain:+.2f}% "
          f"(the paper reports +5.1% for its IR design point)")
    if args.csv:
        rows = [[b, sweep.results[b].by_policy[args.policy].energy,
                 sweep.results[b].baseline.energy,
                 sweep.results[b].ed2_improvement(args.policy)]
                for b in sweep.benchmarks
                if b in sweep.results
                and args.policy in sweep.results[b].by_policy]
        with open(args.csv, "w", encoding="utf-8") as handle:
            handle.write(to_csv(["benchmark", "energy", "baseline_energy",
                                 "ed2_gain"], rows) + "\n")
        print(f"\nwrote {args.csv}")
    print()
    _print_engine_footer(runner)
    return _engine_exit(runner)


def _cmd_analyze(args: argparse.Namespace) -> int:
    profile = get_profile(args.benchmark)
    trace = generate_trace(profile, args.uops, seed=args.seed)
    narrowness = analyze_narrowness(trace)
    carry = analyze_carry(trace)
    distance = producer_consumer_distance(trace)
    rows = [
        ["narrow-width dependent operands (%) [Fig 1]",
         narrowness.narrow_dependence_fraction * 100.0],
        ["ALU: one narrow operand (%) [§1]", narrowness.one_narrow_fraction * 100.0],
        ["ALU: two narrow, narrow result (%) [§1]",
         narrowness.two_narrow_narrow_fraction * 100.0],
        ["carry not propagated, arith (%) [Fig 11]", carry.arith_fraction * 100.0],
        ["carry not propagated, load (%) [Fig 11]", carry.load_fraction * 100.0],
        ["mean producer-consumer distance (uops) [Fig 13]", distance.mean_distance],
    ]
    print(format_table(["metric", "value"], rows,
                       title=f"Trace characterisation: {args.benchmark}",
                       float_format="{:.2f}"))
    return 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    """Differential fuzzing campaign (see DESIGN.md § Differential fuzzing)."""
    from repro.fuzz import run_campaign

    if args.engine_faults:
        from repro.fuzz import run_engine_fault_campaign

        campaign = run_engine_fault_campaign(
            args.engine_faults, seed=args.seed, corpus_dir=args.corpus,
            time_budget=args.time_budget, max_failures=args.max_failures,
            log=print)
        print(f"\n{campaign.cases_run} chaos cases in "
              f"{campaign.elapsed:.1f}s ({campaign.stop_reason}); "
              f"{len(campaign.reports)} failure(s)")
        if campaign.artifacts:
            print("divergence corpus entries:")
            for path in campaign.artifacts:
                print(f"  {path}")
        return 0 if campaign.ok else 1

    campaign = run_campaign(
        args.cases, seed=args.seed, shrink=args.shrink, out_dir=args.out,
        corpus_dir=args.corpus, time_budget=args.time_budget,
        max_failures=args.max_failures,
        check_stores=not args.skip_store_checks, log=print)
    print(f"\n{campaign.cases_run} cases in {campaign.elapsed:.1f}s "
          f"({campaign.stop_reason}); {len(campaign.reports)} failure(s)")
    if campaign.artifacts:
        print("failure artifacts:")
        for path in campaign.artifacts:
            print(f"  {path}")
    return 0 if campaign.ok else 1


def _cmd_fuzz_replay(args: argparse.Namespace) -> int:
    """Replay every committed corpus entry; any failure is a regression."""
    from repro.fuzz import (load_corpus_dir, load_engine_corpus_dir,
                            run_case, run_engine_fault_case)

    entries = load_corpus_dir(args.corpus)
    engine_entries = load_engine_corpus_dir(args.corpus)
    if not entries and not engine_entries:
        print(f"no corpus entries under {args.corpus}", file=sys.stderr)
        return 2
    failed = 0
    for name, case in entries:
        report = run_case(case)
        status = "ok  " if report.ok else "FAIL"
        print(f"{status} {name}: {case.label()} ({report.elapsed:.2f}s)")
        for failure in report.failures:
            failed += 1
            print(f"     {failure}")
    for name, engine_case in engine_entries:
        report = run_engine_fault_case(engine_case)
        status = "ok  " if report.ok else "FAIL"
        print(f"{status} {name}: {engine_case.label()} "
              f"({report.elapsed:.2f}s)")
        for failure in report.failures:
            failed += 1
            print(f"     {failure}")
    print(f"\n{len(entries) + len(engine_entries)} corpus entries, "
          f"{failed if failed else 'no'} failure(s)")
    return 1 if failed else 0


def _cmd_lint(args: argparse.Namespace) -> int:
    """Static analysis over the repo contracts (DESIGN.md § Static
    guarantees); exit 0 iff no unsuppressed findings."""
    from repro.lintkit import (build_rules, default_config, render_json,
                               render_text, update_fingerprints)
    from repro.lintkit.engine import LintRunner

    config = default_config(args.root)
    if args.update_fingerprints:
        path = update_fingerprints(config)
        print(f"blessed semantic-module fingerprints -> {path}")
    codes = args.rules.split(",") if args.rules else None
    try:
        rules = build_rules(codes)
    except ValueError as exc:
        print(f"lint: {exc}", file=sys.stderr)
        return 2
    report = LintRunner(config, rules).run()
    if args.format == "json":
        text = render_json(report)
    else:
        text = render_text(report, show_suppressed=args.show_suppressed)
    print(text)
    if args.output:
        # The artifact is always the JSON form: it is the machine contract
        # the CI job publishes regardless of what was printed.
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(render_json(report) + "\n")
    return 0 if report.ok else 1


def _cmd_table1(_: argparse.Namespace) -> int:
    rows = [[name, value] for name, value in TABLE_1_PARAMETERS.items()]
    print(format_table(["parameter", "value"], rows,
                       title="Table 1 - monolithic baseline parameters"))
    return 0


def _cmd_workloads(_: argparse.Namespace) -> int:
    rows = [[c.key, c.description, c.num_traces] for c in WORKLOAD_CATEGORIES.values()]
    print(format_table(["category", "description", "#traces"], rows,
                       title="Table 2 - workload categories"))
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "ladder": _cmd_ladder,
    "sweep": _cmd_sweep,
    "explore": _cmd_explore,
    "energy": _cmd_energy,
    "analyze": _cmd_analyze,
    "fuzz": _cmd_fuzz,
    "fuzz-replay": _cmd_fuzz_replay,
    "lint": _cmd_lint,
    "table1": _cmd_table1,
    "workloads": _cmd_workloads,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
