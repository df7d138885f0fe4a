"""Table 1: the monolithic baseline processor parameters.

Checks that the machine configuration the simulator instantiates matches the
paper's Table 1 point-for-point, and regenerates the table.
"""

from repro.core.config import TABLE_1_PARAMETERS, baseline_config, helper_cluster_config
from repro.sim.baseline import simulate_baseline
from repro.sim.reporting import format_table
from repro.trace.profiles import get_profile
from repro.trace.synthetic import generate_trace

from _bench_utils import BENCH_SEED, write_result


def test_table1_baseline_config(benchmark):
    config = baseline_config()
    helper = helper_cluster_config()

    # Time a short representative baseline simulation so the harness reports
    # the cost of the Table 1 machine itself.
    trace = generate_trace(get_profile("gcc"), 2000, seed=BENCH_SEED)
    result = benchmark.pedantic(lambda: simulate_baseline(trace), rounds=1, iterations=1)

    rows = [[name, value] for name, value in TABLE_1_PARAMETERS.items()]
    rows.append(["Measured baseline IPC (gcc, 2K uops)", f"{result.ipc:.2f}"])
    text = format_table(["parameter", "value"], rows,
                        title="Table 1 - monolithic baseline parameters")
    write_result("table1_baseline_config", text)

    # Table 1 values, point for point.
    assert config.trace_cache.capacity_uops == 32 * 1024
    assert config.trace_cache.associativity == 4
    assert config.memory.dl0.size_bytes == 32 * 1024
    assert config.memory.dl0.associativity == 8
    assert config.memory.dl0.hit_latency == 3
    assert config.memory.dl0.ports == 2
    assert config.memory.ul1.size_bytes == 4 * 1024 * 1024
    assert config.memory.ul1.associativity == 16
    assert config.memory.ul1.hit_latency == 13
    assert config.memory.main_memory_latency == 450
    # The integer and FP schedulers of Table 1 are the host cluster's
    # FP-capable one.
    host = config.topology.host
    assert host.queue_size == 32
    assert host.issue_width == 3
    assert host.has_fp
    assert config.commit_width == 6
    assert config.topology.num_helpers == 0

    # The helper-cluster machine adds only the §2 parameters on top.
    assert helper.topology.host == host
    assert helper.topology.num_helpers == 1
    assert helper.topology.helpers[0].datapath_width == 8
    assert helper.topology.helpers[0].clock_ratio == 2
    assert helper.predictor.table_entries == 256
    assert result.committed_uops == len(trace)
