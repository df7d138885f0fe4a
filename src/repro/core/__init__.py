"""Core library: the paper's contribution.

This subpackage implements the helper-cluster mechanisms proposed by the
paper on top of the pipeline/memory substrates:

* :mod:`repro.core.config` — machine configuration (Table 1 baseline plus the
  helper-cluster parameters of §2).
* :mod:`repro.core.predictors` — the PC-indexed width predictor with its
  2-bit confidence estimator (§3.2), the carry-width predictor extension
  (§3.5) and the copy-prefetch predictor (§3.6).
* :mod:`repro.core.cluster` — the wide and narrow backend models.
* :mod:`repro.core.copy_engine` — inter-cluster copy generation and
  prefetching (the Canal/Parcerisa/González copy-instruction scheme).
* :mod:`repro.core.splitting` — wide-instruction splitting for imbalance
  reduction (§3.7).
* :mod:`repro.core.imbalance` — the NREADY workload-imbalance metric.
* :mod:`repro.core.steering` — the data-width aware steering policies
  (8-8-8, BR, LR, CR, CP, IR and the IR no-destination fine tuning), the
  serializable :class:`~repro.core.steering.PolicySpec` records and the
  policy registry that :func:`~repro.core.steering.make_policy` builds from.
* :mod:`repro.core.selection` — cluster selectors resolving steering intent
  (concrete targets or declarative width/FP requirements) to a
  topology cluster.
"""

from repro.core.config import (
    MachineConfig,
    PredictorConfig,
    baseline_config,
    helper_cluster_config,
    helper_topology,
    mixed_helper_topology,
    monolithic_topology,
    topology_config,
)
from repro.core.selection import (
    ClusterRequirement,
    ClusterSelector,
    LeastLoadedSelector,
    WidthAwareSelector,
    make_selector,
)
from repro.core.predictors import (
    WidthPredictor,
    WidthPrediction,
    ConfidenceCounter,
    CarryPredictor,
    CopyPrefetchPredictor,
    PredictorStats,
)
from repro.core.cluster import Backend
from repro.core.imbalance import ImbalanceMonitor, ImbalanceSample
from repro.core.copy_engine import CopyEngine, CopyRequest, CopyStats
from repro.core.splitting import InstructionSplitter, SplitPlan, SplitChunk
from repro.core.steering import (
    SteeringPolicy,
    SteerDecision,
    SteeringContext,
    BaselineSteering,
    DataWidthSteering,
    Scheme,
    POLICY_LADDER,
    PolicyRegistry,
    PolicySpec,
    make_policy,
    policy_registry,
    policy_spec,
)

__all__ = [
    "MachineConfig",
    "PredictorConfig",
    "baseline_config",
    "helper_cluster_config",
    "helper_topology",
    "mixed_helper_topology",
    "monolithic_topology",
    "topology_config",
    "ClusterRequirement",
    "ClusterSelector",
    "LeastLoadedSelector",
    "WidthAwareSelector",
    "make_selector",
    "WidthPredictor",
    "WidthPrediction",
    "ConfidenceCounter",
    "CarryPredictor",
    "CopyPrefetchPredictor",
    "PredictorStats",
    "Backend",
    "ImbalanceMonitor",
    "ImbalanceSample",
    "CopyEngine",
    "CopyRequest",
    "CopyStats",
    "InstructionSplitter",
    "SplitPlan",
    "SplitChunk",
    "SteeringPolicy",
    "SteerDecision",
    "SteeringContext",
    "BaselineSteering",
    "DataWidthSteering",
    "Scheme",
    "POLICY_LADDER",
    "PolicyRegistry",
    "PolicySpec",
    "make_policy",
    "policy_registry",
    "policy_spec",
]
