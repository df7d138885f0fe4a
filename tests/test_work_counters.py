"""Exact CPU-work gate: the work counters of two fixed simulations.

perfbench (``perfbench/run.py``) measures time, which is noisy; this test
pins the work the simulator does, which is not.  It profiles the two fixed
jobs perfbench profiles for its ``ladder_cold`` and ``explore_parallel``
workloads (gcc, 4000 uops, seed 2006):

* the paper machine under ``ir``;
* the asymmetric 8-bit@2x + 16-bit@1x mix under ``ir_wa``.

For each it asserts four exact counts:

* ``committed_uops`` and ``fast_cycles`` of the result;
* event-wheel iterations, counted as ``HelperClusterSimulator._next_event``
  calls;
* calls into named functions defined under ``src/repro``: the sum of the
  profiler's call counts over code objects whose file is in the package
  and whose name does not start with ``<``.  Builtins are left out because
  their counts depend on the interpreter, and ``<listcomp>``,
  ``<genexpr>`` and ``<lambda>`` because Python 3.12 inlines comprehensions
  (PEP 709).

A change that moves a count updates ``EXPECTED`` and gives its reason in
CHANGES.md, the way REP005 fingerprints are re-blessed.
"""

from __future__ import annotations

import cProfile
import gc
import os
from pathlib import Path

import pytest

import repro
from repro.core.config import helper_cluster_config
from repro.core.steering import make_policy
from repro.sim.experiment import mixed_topology_point
from repro.sim.simulator import simulate
from repro.trace.profiles import get_profile
from repro.trace.synthetic import generate_trace

#: job -> (committed_uops, fast_cycles, event-wheel iterations, repo calls)
EXPECTED = {
    "paper_ir": (4754, 9411, 3768, 266_432),
    "mix_ir_wa": (4754, 9540, 3848, 306_952),
}

_PACKAGE_DIR = os.path.realpath(Path(repro.__file__).parent) + os.sep


def _config(job: str):
    if job == "paper_ir":
        return helper_cluster_config(), "ir"
    return mixed_topology_point([(8, 2), (16, 1)]).config, "ir_wa"


def _measure(job: str):
    # The config is built outside the profiled window: building it inside
    # would count its constructors too.
    config, policy_name = _config(job)
    policy = make_policy(policy_name)
    trace = generate_trace(get_profile("gcc"), 4000, seed=2006)
    gc.collect()
    gc.disable()  # no collector-driven finalizer calls inside the count
    profiler = cProfile.Profile()
    try:
        profiler.enable()
        result = simulate(trace, config=config, policy=policy)
        profiler.disable()
    finally:
        gc.enable()
    repo_calls = wheel_iterations = 0
    for entry in profiler.getstats():
        code = entry.code
        if (isinstance(code, str)  # a builtin
                or code.co_name.startswith("<")
                or not os.path.realpath(code.co_filename).startswith(
                    _PACKAGE_DIR)):
            continue
        repo_calls += entry.callcount
        if code.co_name == "_next_event":
            wheel_iterations += entry.callcount
    return (result.committed_uops, result.fast_cycles, wheel_iterations,
            repo_calls)


@pytest.mark.parametrize("job", sorted(EXPECTED))
def test_work_counters_are_exact(job, monkeypatch):
    monkeypatch.delenv("REPRO_REFERENCE_LOOP", raising=False)
    measured = _measure(job)
    assert measured == EXPECTED[job], (
        f"{job}: measured (committed_uops, fast_cycles, event-wheel "
        f"iterations, repo calls) = {measured}, expected {EXPECTED[job]}; "
        f"update EXPECTED and give the reason in CHANGES.md")
