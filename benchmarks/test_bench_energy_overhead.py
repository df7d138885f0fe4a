"""Hot-path cost of per-cluster energy accounting.

Per-cluster activity counting lives in the simulator's dispatch path, so its
cost must be tracked: this benchmark times a 12-point ``explore`` grid (the
default width x ratio x helper-count design space) with energy accounting
enabled versus disabled and emits ``benchmarks/results/BENCH_energy.json``
with both wall times.  The contract is that energy-for-every-sweep-point
stays under 10% overhead; the counting itself is shared with the timing
metrics, so the enabled arm only adds the per-cluster power-model
evaluation at finalise time.
"""

from __future__ import annotations

import json
import time

from repro.power.wattch import PowerConfig
from repro.sim.experiment import ExperimentRunner, build_topology_grid
from repro.trace.profiles import get_profile

from _bench_utils import BENCH_SEED, RESULTS_DIR

#: Deliberately small traces: the benchmark measures relative overhead, and
#: the grid multiplies the work by 13 runs (12 points + shared baseline).
#: Raised from 1200 alongside the other PR 5 length raises — the faster
#: event-wheel core shrank the per-run denominator, so the fixed
#: finalise-time power evaluation needs a realistic run length to amortise
#: against, exactly as it does in real sweeps.
GRID_UOPS = 2500
OVERHEAD_BUDGET = 0.10


def _run_grid(enabled: bool, points, profiles) -> float:
    """Wall time of one full (uncached, serial) grid sweep."""
    runner = ExperimentRunner(
        trace_uops=GRID_UOPS, seed=BENCH_SEED, jobs=1,
        power=PowerConfig(enabled=enabled))
    start = time.perf_counter()
    sweep = runner.run_topology_grid(points, profiles, policy="ir")
    elapsed = time.perf_counter() - start
    # Sanity: the enabled arm produced energy, the disabled arm did not.
    sample = sweep.result(points[0].name, profiles[0].name)
    assert sample.has_energy is enabled
    return elapsed


def test_bench_energy_overhead():
    points = build_topology_grid()  # the default 12-point design space
    assert len(points) == 12
    profiles = [get_profile("gcc")]

    # Warm the per-process trace memo so neither arm pays generation cost.
    runner = ExperimentRunner(trace_uops=GRID_UOPS, seed=BENCH_SEED)
    runner.trace_for(profiles[0])

    # Interleave five rounds per arm, alternating which arm goes first,
    # and compare the two arms' minima (each arm's floor): the arms are
    # ~2 s each, so a single scheduler blip on a shared worker is
    # comparable to the 10% budget, and the min-of-interleaved estimator
    # discards it.  Five rounds (not three) because the true overhead is
    # only a few percent — the power evaluation runs once per run, at
    # finalise — while per-run noise on a small box is ~10%, so
    # with too few rounds the mins don't both reach their floor and the
    # measured sign itself can invert.  Readings within a couple of
    # percent of zero (either sign) mean "below this box's noise floor";
    # the contract being enforced is the 10% budget, not the point value.
    enabled_times, disabled_times = [], []
    for round_index in range(5):
        order = (True, False) if round_index % 2 == 0 else (False, True)
        for enabled in order:
            elapsed = _run_grid(enabled, points, profiles)
            (enabled_times if enabled else disabled_times).append(elapsed)
    enabled_s = min(enabled_times)
    disabled_s = min(disabled_times)
    overhead = enabled_s / disabled_s - 1.0 if disabled_s else 0.0

    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    payload = {
        "grid_points": len(points),
        "benchmarks": [p.name for p in profiles],
        "trace_uops": GRID_UOPS,
        "energy_enabled_seconds": round(enabled_s, 4),
        "energy_disabled_seconds": round(disabled_s, 4),
        "overhead_fraction": round(overhead, 4),
        "budget_fraction": OVERHEAD_BUDGET,
    }
    (RESULTS_DIR / "BENCH_energy.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")

    assert overhead < OVERHEAD_BUDGET, (
        f"per-cluster energy accounting costs {overhead:.1%} on the explore "
        f"grid (budget {OVERHEAD_BUDGET:.0%}); see BENCH_energy.json")
