"""Monolithic-baseline helpers.

The paper reports every performance number *relative to* a monolithic
processor that has the same resources as the frontend plus the wide backend
of the clustered machine (§3.1).  These helpers run that baseline and pair it
with a helper-cluster run over the same trace so speedups can be computed
consistently everywhere (examples, experiments, benchmarks).
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.core.config import MachineConfig, baseline_config
from repro.core.steering import BaselineSteering, SteeringPolicy, make_policy
from repro.sim.metrics import SimulationResult, speedup
from repro.sim.simulator import simulate
from repro.trace.trace import Trace


def simulate_baseline(trace: Trace) -> SimulationResult:
    """Run the trace on the monolithic baseline (helper cluster disabled)."""
    return simulate(trace, config=baseline_config(), policy=BaselineSteering())


def baseline_pair(trace: Trace, policy: SteeringPolicy | str,
                  helper_config: Optional[MachineConfig] = None,
                  baseline: Optional[SimulationResult] = None,
                  ) -> Tuple[SimulationResult, SimulationResult, float]:
    """Run (baseline, helper-cluster) over one trace and return the speedup.

    Parameters
    ----------
    trace:
        The trace to execute.
    policy:
        A steering policy instance or a name from the policy ladder.
    helper_config:
        Machine configuration for the helper-cluster run; defaults to the
        paper's 8-bit / 2x configuration.
    baseline:
        A previously computed baseline result for this trace, to avoid
        re-simulating it when sweeping many policies.

    Returns
    -------
    (baseline_result, helper_result, speedup_fraction)
    """
    if isinstance(policy, str):
        policy = make_policy(policy)
    from repro.core.config import helper_cluster_config

    helper_config = helper_config or helper_cluster_config()
    if baseline is None:
        baseline = simulate_baseline(trace)
    helper_result = simulate(trace, config=helper_config, policy=policy)
    return baseline, helper_result, speedup(baseline, helper_result)
