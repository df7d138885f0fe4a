"""Benchmark of the helper-cluster simulator: one command, three workloads.

Run from the root of a checkout (the package is imported from ``src/``;
nothing is built or installed)::

    python3 perfbench/run.py --workload ladder_cold --seed 2006 --seconds 30 --trace 0
    python3 perfbench/run.py                 # every workload in one process
    python3 perfbench/run.py --workload explore_parallel --repeat 10
    python3 perfbench/run.py --workload ladder_cold --repeat 10 --second-seed 7

``--trace 0`` measures the end-to-end metrics: the workload runs the whole
rounds (see ``perfbench/workloads.py``) that take about ``--seconds`` on a
2-vCPU host (at least one round; the count depends on ``--seconds`` only),
with only the set-up entry points wrapped.  The first round uses ``--seed``
itself.

``--trace 1`` runs an untraced round, a round with every layer wrapped
(``perfbench/spans.py``) and an untraced round again, all on ``--seed``;
checks that the traced round computed the first round's results; counts
the Python calls of one fixed job under cProfile; and reports the
per-layer metrics.

``--repeat N`` runs the workload N times in fresh processes, at seeds
``seed .. seed+N-1``, and prints each metric's median, quartiles and
IQR / median; ``--second-seed M`` alternates a second set at seeds
``M .. M+N-1`` with it and compares the two sets' medians.

Every run checks the program's outputs (``check_jobs`` and the resume and
traced-vs-untraced comparisons); each failed check is printed and counts
its job as failed.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
Scratch files live in ``.perfbench_work/`` under the checkout and are
removed before exit.
"""

from __future__ import annotations

import argparse
import gc
import json
import multiprocessing
import os
import shutil
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DEFAULT_SEED = 2006
#: Order of the workloads when one process runs them all.  The process
#: keeps the heap a workload freed, and its peak resident set can only be
#: restarted from the current size, so each workload follows those that
#: leave less behind than its own peak; explore_parallel goes first
#: because its pool workers are forked copies of the process.
ALL_WORKLOADS = ("explore_parallel", "ladder_cold", "suite_cached")


def one_round(name: str, seed: int, tracer, round_dir: Path):
    """Run one round of workload ``name`` and time it; set-up comes from
    the spans the round recorded."""
    from perfbench.workloads import WORKLOADS

    gc.collect()
    round_dir.mkdir(parents=True)
    mark = len(tracer.spans)
    start = perf_counter()
    result = WORKLOADS[name].run_round(seed, round_dir, tracer.trace_lengths)
    result.wall = perf_counter() - start
    result.setup = tracer.setup_seconds(mark)
    shutil.rmtree(round_dir, ignore_errors=True)
    return result


def measure(name: str, seed: int, seconds: float, workdir: Path):
    """Untraced run: the rounds that fill about ``seconds``.  Returns
    (metrics, rounds)."""
    from perfbench.metrics import end_to_end, load_claims, paper_gap
    from perfbench.spans import Tracer, peak_rss_kib, reset_peak_rss
    from perfbench.workloads import WORKLOADS, round_seed

    reset_peak_rss()
    tracer = Tracer()
    tracer.install_setup()
    try:
        rounds = [one_round(name, round_seed(seed, i), tracer,
                            workdir / f"round{i}")
                  for i in range(WORKLOADS[name].rounds_for(seconds))]
    finally:
        tracer.restore()
    for i, r in enumerate(rounds, 1):
        print(f"  round {i}: wall {r.wall:.2f} s, set-up {r.setup:.3f} s, "
              f"{r.attempted} jobs, {r.uops} uops retired")
    metrics = end_to_end(rounds, max(peak_rss_kib(), tracer.worker_peak_kib))
    gap, rows = paper_gap([r.results for r in rounds], load_claims(name))
    metrics["paper_gap_pp"] = gap
    print("  paper claims (percent, mean over every benchmark of every round):")
    for claim, measured, row_gap in rows:
        print(f"    {claim['figure']:<9}{claim['claim']:<30}"
              f"{claim['policy']:<18}paper {claim['paper']:5.1f}  "
              f"measured {measured:6.2f}  gap {row_gap:6.2f}  "
              f"{claim['source']}")
    return metrics, rounds


def profile_calls_per_uop(workload: str, seed: int) -> float:
    """cProfile call count of the workload's fixed job, per retired uop."""
    import cProfile
    import pstats

    from perfbench.metrics import ratio
    from perfbench.workloads import profiled_job
    from repro.core.steering import make_policy
    from repro.sim.simulator import simulate

    trace, config, policy_name = profiled_job(workload, seed)
    policy = make_policy(policy_name)
    gc.collect()
    gc.disable()  # no collector-driven finalizer calls inside the count
    profiler = cProfile.Profile()
    try:
        profiler.enable()
        result = simulate(trace, config=config, policy=policy)
        profiler.disable()
    finally:
        gc.enable()
    return ratio(pstats.Stats(profiler).total_calls, result.committed_uops)


def measure_traced(name: str, seed: int, workdir: Path):
    """Traced run: an untraced round, a round with every layer wrapped,
    and an untraced round again.  Returns (metrics, rounds).

    The first round gives the results the traced round must equal.  The
    traced round's wall is compared with the mean of the two untraced
    rounds around it, which cancels host speed that drifts steadily over
    the run.
    """
    from perfbench.metrics import per_layer
    from perfbench.spans import Tracer
    from perfbench.workloads import compare_results

    spool = workdir / "spool"
    spool.mkdir(parents=True)
    tracer = Tracer(spool)
    tracer.install_setup()
    try:
        reference = one_round(name, seed, tracer, workdir / "reference")
        tracer.install_layers()
        mark = len(tracer.spans)
        traced = one_round(name, seed, tracer, workdir / "traced")
    finally:
        tracer.restore()
    tracer.collect_workers()
    spans = tracer.spans[mark:]
    untraced = one_round(name, seed, tracer, workdir / "untraced")
    print(f"  untraced rounds {reference.wall:.2f} s and {untraced.wall:.2f} s, "
          f"traced round {traced.wall:.2f} s, {len(spans)} spans")
    traced.fail(compare_results(reference.results, traced.results,
                                " (traced)"))
    metrics = per_layer(spans, os.getpid(), traced,
                        (reference.wall + untraced.wall) / 2,
                        profile_calls_per_uop(name, seed))
    return metrics, [reference, traced, untraced]


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 workdir: Path):
    """Run one workload; print its metrics.  Returns (metrics, attempted,
    failures)."""
    from perfbench.metrics import declared_metrics

    print(f"{name}: seed {seed}, {'traced' if trace else f'{seconds:g} s'}")
    if trace:
        metrics, rounds = measure_traced(name, seed, workdir)
        declared = declared_metrics("per_layer")
    else:
        metrics, rounds = measure(name, seed, seconds, workdir)
        declared = declared_metrics("end_to_end")
    if set(metrics) != set(declared):
        raise KeyError("reported metrics differ from BENCHMARK.json: "
                       f"{sorted(set(metrics) ^ set(declared))}")
    units = {metric: declared[metric]["unit"] for metric in metrics}
    failures = [f"{job}: {reason}" for r in rounds
                for job, reason in r.failures.items()]
    for metric, value in metrics.items():
        print(f"  {metric:<36}{value:>18.6g} {units[metric]}")
    for line in failures:
        print(f"  check failed: {line}")
    attempted = sum(r.attempted for r in rounds)
    return {m: {"value": v, "unit": units[m]} for m, v in metrics.items()}, \
        attempted, failures


def run_fresh(args, seed: int) -> dict:
    """One run of ``args.workload`` at ``seed`` in a fresh process: its
    result line."""
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(proc.returncode)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def repeat(args) -> int:
    """Run one workload ``args.repeat`` times in fresh processes and print
    each metric's spread across the runs.

    With ``--second-seed`` a second set of as many runs, at seeds
    ``second_seed ..``, alternates with the first (first, second, first,
    ...), so a change of host speed during the sweep lands on both sets,
    and the second set's medians are compared with the first's.
    """
    from perfbench.metrics import declared_metrics, spread

    firsts = [args.seed] + ([args.second_seed]
                            if args.second_seed is not None else [])
    values = [defaultdict(list) for _ in firsts]
    units = {}
    for i in range(args.repeat):
        for k, first in enumerate(firsts):
            start = perf_counter()
            result = run_fresh(args, first + i)
            print(f"set {k + 1} run {i + 1} seed {first + i} "
                  f"({perf_counter() - start:.0f} s): "
                  f"correct={result['correct']} "
                  + " ".join(f"{m}={v['value']:.6g}"
                             for m, v in result["metrics"].items()),
                  flush=True)
            for metric, value in result["metrics"].items():
                values[k][metric].append(value["value"])
                units[metric] = value["unit"]
    summaries = []
    for k, first in enumerate(firsts):
        summary = {}
        print(f"{args.workload} set {k + 1}: {args.repeat} runs, seeds "
              f"{first}..{first + args.repeat - 1}")
        print(f"  {'metric':<36}{'median':>14}{'q1':>14}{'q3':>14}"
              f"{'iqr/median':>12}")
        for metric, series in values[k].items():
            stats = spread(series)
            summary[metric] = dict(stats, unit=units[metric])
            print(f"  {metric:<36}{stats['median']:>14.6g}"
                  f"{stats['q1']:>14.6g}{stats['q3']:>14.6g}"
                  f"{stats['iqr_over_median']:>12.4f}")
        summaries.append({"seeds": [first, first + args.repeat - 1],
                          "metrics": summary})
    if len(summaries) == 2 and not args.trace:
        # Either set could have been run first, so a shift in either
        # direction is held to the bound.
        declared = declared_metrics("end_to_end")
        print(f"  {'set 2 vs set 1':<36}{'change':>14}{'bound':>14}")
        for metric, first in summaries[0]["metrics"].items():
            base = first["median"]
            change = (summaries[1]["metrics"][metric]["median"] - base) / base
            bound = declared[metric]["bound"]
            print(f"  {metric:<36}{change:>+14.4f}{bound:>14g}"
                  f"{'  beyond bound' if abs(change) > bound else ''}")
    print(json.dumps({"workload": args.workload, "sets": summaries}))
    return 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=("all",) + ALL_WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="feeds the SPEC trace seed and the Table-2 "
                             "base seed (default %(default)s)")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measuring time of an untraced run")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="run the workload N times in fresh processes "
                             "and print the spread of each metric")
    parser.add_argument("--second-seed", type=int, default=None,
                        help="with --repeat, alternate a second set of runs "
                             "at seeds from this one and compare medians")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}; run from a full "
              f"checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    if args.repeat:
        if args.workload == "all":
            print("perfbench: --repeat needs one --workload", file=sys.stderr)
            return 2
        return repeat(args)

    names = ALL_WORKLOADS if args.workload == "all" else [args.workload]
    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True)
    tempfile.tempdir = str(workdir)
    metrics, attempted, failures = {}, 0, []
    try:
        for name in names:
            got, tried, failed = run_workload(name, args.seed, args.seconds,
                                              bool(args.trace), workdir / name)
            prefix = "" if len(names) == 1 else f"{name}."
            metrics.update({prefix + m: v for m, v in got.items()})
            attempted += tried
            failures += failed
    finally:
        for child in multiprocessing.active_children():
            child.kill()
            child.join()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run is still using it
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
