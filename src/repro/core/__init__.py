"""The paper's contribution: adaptive configuration selection.

Offline (run once per machine): characterize training kernels, derive
Pareto frontiers, cluster kernels by frontier-order similarity, fit
per-cluster regressions, and train a classification tree on
sample-configuration data.  Online (run per new kernel): two sample
iterations, tree classification, whole-space power/performance
prediction, predicted Pareto frontier, and scheduling under a power cap.

See Figure 1 of the paper for the data flow; module-level docstrings
cite the relevant paper sections.
"""

from repro.core.characterization import (
    KernelCharacterization,
    characterize_kernels,
)
from repro.core.classifier import (
    SAMPLE_FEATURE_NAMES,
    ClusterClassifier,
    sample_features,
)
from repro.core.configspace import ConfigTable
from repro.core.clustering import (
    DEFAULT_N_CLUSTERS,
    ClusteringResult,
    cluster_kernels,
    resolve_warm_medoids,
)
from repro.core.dissimilarity import (
    DissimilarityCache,
    dissimilarity_matrix,
    frontier_dissimilarity,
)
from repro.core.features import (
    CPU_FEATURE_NAMES,
    GPU_FEATURE_NAMES,
    design_row,
)
from repro.core.frontier import CapSweepTable, FrontierPoint, ParetoFrontier
from repro.core.io import load_model, model_from_json, model_to_json, save_model
from repro.core.model import AdaptiveModel, train_model
from repro.core.predictor import KernelPrediction, OnlinePredictor
from repro.core.regression import (
    ClusterModels,
    DeviceModels,
    RegressionGramPool,
    fit_cluster_models,
)
from repro.core.scheduler import (
    NoFeasibleConfigError,
    Scheduler,
    SchedulerDecision,
    SchedulingGoal,
)

__all__ = [
    "AdaptiveModel",
    "CPU_FEATURE_NAMES",
    "CapSweepTable",
    "ClusterClassifier",
    "ClusterModels",
    "ClusteringResult",
    "ConfigTable",
    "DEFAULT_N_CLUSTERS",
    "DeviceModels",
    "DissimilarityCache",
    "FrontierPoint",
    "GPU_FEATURE_NAMES",
    "KernelCharacterization",
    "KernelPrediction",
    "NoFeasibleConfigError",
    "OnlinePredictor",
    "ParetoFrontier",
    "RegressionGramPool",
    "SAMPLE_FEATURE_NAMES",
    "Scheduler",
    "SchedulerDecision",
    "SchedulingGoal",
    "characterize_kernels",
    "cluster_kernels",
    "design_row",
    "dissimilarity_matrix",
    "fit_cluster_models",
    "frontier_dissimilarity",
    "load_model",
    "model_from_json",
    "model_to_json",
    "resolve_warm_medoids",
    "sample_features",
    "save_model",
    "train_model",
]
