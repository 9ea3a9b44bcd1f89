"""The adaptive configuration-selection model (offline training).

This is the paper's primary contribution assembled end to end
(Figure 1's offline box):

1. characterize every training kernel on all configurations
   (:mod:`repro.core.characterization`);
2. derive per-kernel Pareto frontiers (:mod:`repro.core.frontier`);
3. build the frontier-order dissimilarity matrix and relationally
   cluster the kernels (:mod:`repro.core.dissimilarity`,
   :mod:`repro.core.clustering`);
4. fit per-cluster performance-ratio and power regressions
   (:mod:`repro.core.regression`);
5. train the classification tree that assigns unseen kernels to
   clusters from their sample-configuration runs
   (:mod:`repro.core.classifier`).

The resulting :class:`AdaptiveModel` performs the online stage
(Figure 1's online box) in :meth:`AdaptiveModel.predict_kernel`: given
only the two sample measurements of a new kernel, it returns predicted
power and performance for *every* machine configuration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.core.characterization import (
    KernelCharacterization,
    characterize_kernels,
)
from repro.core.classifier import ClusterClassifier
from repro.core.configspace import ConfigTable
from repro.core.clustering import (
    DEFAULT_N_CLUSTERS,
    ClusteringResult,
    cluster_kernels,
)
from repro.core.predictor import KernelPrediction
from repro.core.regression import (
    ClusterModels,
    RegressionGramPool,
    Transform,
    fit_cluster_models,
)
from repro.hardware.apu import Measurement
from repro.hardware.backend import BlockConfigSpace
from repro.profiling.library import ProfilingLibrary
from repro.telemetry import get_logger, log_event, trace_span

import logging

import numpy as np

__all__ = ["AdaptiveModel", "train_model"]

_log = get_logger(__name__)


@dataclass(frozen=True)
class AdaptiveModel:
    """A trained offline model ready for online prediction.

    Attributes
    ----------
    clustering:
        The offline clustering of the training kernels.
    cluster_models:
        Fitted regression models per cluster id.
    classifier:
        The sample-run classification tree.
    config_space:
        The machine configuration space predictions cover.
    """

    clustering: ClusteringResult
    cluster_models: Mapping[int, ClusterModels]
    classifier: ClusterClassifier
    config_space: BlockConfigSpace

    def __post_init__(self) -> None:
        # Attach the process-wide configuration table: the design
        # matrices over the configuration space exist before the first
        # kernel arrives, so the online stage is two matrix-vector
        # products (paper Section IV-C's overhead argument) — and every
        # model over the same space shares one table.
        object.__setattr__(self, "_table", ConfigTable.for_space(self.config_space))

    @property
    def default_cluster(self) -> int:
        """The conservative fallback cluster used when classification
        inputs are corrupt (graceful degradation, docs/ROBUSTNESS.md):
        the lowest cluster id, a deterministic choice independent of
        the unusable sample readings."""
        return min(self.cluster_models)

    @staticmethod
    def train(
        characterizations: Sequence[KernelCharacterization],
        *,
        n_clusters: int = DEFAULT_N_CLUSTERS,
        composition_weight: float | None = None,
        transform: Transform = "none",
        power_anchor: bool = True,
        ridge: float = 0.0,
        tree_max_depth: int = 4,
        tree_min_samples_leaf: int = 2,
        config_space: BlockConfigSpace | None = None,
        dissimilarity: np.ndarray | None = None,
        initial_medoid_uids: Sequence[str] | None = None,
        gram_pool: RegressionGramPool | None = None,
    ) -> "AdaptiveModel":
        """Run the full offline pipeline on training characterizations.

        Parameters mirror the paper's knobs: ``n_clusters`` (paper: 5),
        the optional future-work variance-stabilizing ``transform``, the
        power-anchor extension, and the tree's capacity.  ``dissimilarity`` optionally supplies
        a precomputed frontier-dissimilarity matrix in
        ``characterizations`` order (e.g. sliced from a
        :class:`~repro.core.dissimilarity.DissimilarityCache`),
        skipping both the per-kernel frontier derivation and the
        pairwise frontier comparisons.  ``config_space`` defaults to the
        space of the machine the characterizations were measured on.

        The training-engine accelerators (``docs/TRAINING_ENGINE.md``)
        are opt-in and result-preserving: ``initial_medoid_uids``
        warm-starts PAM from a reference clustering (ignored when the
        seeds are invalid), and ``gram_pool`` fits the per-cluster
        regressions from cached sufficient statistics instead of rebuilt
        design matrices.
        """
        if not characterizations:
            raise ValueError("cannot train on zero kernels")
        uids = [c.kernel_uid for c in characterizations]
        if len(set(uids)) != len(uids):
            raise ValueError("duplicate kernel uids in training set")

        if dissimilarity is None:
            with trace_span("offline/frontier"):
                frontiers_or_uids: "Sequence[str] | dict" = {
                    c.kernel_uid: c.frontier() for c in characterizations
                }
        else:
            # A precomputed matrix makes the frontier values dead
            # weight — clustering only needs the uid order.
            frontiers_or_uids = uids
        with trace_span("offline/cluster"):
            clustering = cluster_kernels(
                frontiers_or_uids,
                n_clusters=n_clusters,
                composition_weight=composition_weight,
                dissimilarity=dissimilarity,
                initial_medoid_uids=initial_medoid_uids,
            )
        log_event(
            _log,
            logging.DEBUG,
            "cluster-assignments",
            n_kernels=len(characterizations),
            sizes=clustering.sizes(),
            silhouette=round(clustering.silhouette, 4),
            labels=dict(sorted(clustering.labels.items())),
        )

        by_cluster: dict[int, list[KernelCharacterization]] = {}
        for c in characterizations:
            by_cluster.setdefault(clustering.labels[c.kernel_uid], []).append(c)
        with trace_span("offline/regression"):
            cluster_models = {
                cluster: fit_cluster_models(
                    members,
                    transform=transform,
                    power_anchor=power_anchor,
                    ridge=ridge,
                    gram_pool=gram_pool,
                )
                for cluster, members in sorted(by_cluster.items())
            }

        with trace_span("offline/cart"):
            classifier = ClusterClassifier(
                max_depth=tree_max_depth, min_samples_leaf=tree_min_samples_leaf
            ).fit(
                characterizations,
                [clustering.labels[c.kernel_uid] for c in characterizations],
            )
        return AdaptiveModel(
            clustering=clustering,
            cluster_models=cluster_models,
            classifier=classifier,
            config_space=(
                config_space
                if config_space is not None
                else next(iter(characterizations[0].measurements))
                .descriptor.config_space()
            ),
        )

    # -- online stage ------------------------------------------------------------

    def predict_kernel(
        self,
        cpu_sample: Measurement,
        gpu_sample: Measurement,
        *,
        kernel_uid: str = "unknown",
        with_uncertainty: bool = False,
        cluster: int | None = None,
    ) -> KernelPrediction:
        """Predict power and performance for every configuration of an
        unseen kernel, from its two sample measurements only.

        With ``with_uncertainty=True`` the prediction also carries
        per-configuration prediction standard deviations (paper
        Section VI), enabling risk-averse scheduling.

        ``cluster`` overrides the classification tree (degraded-mode
        callers pass :attr:`default_cluster` when the sample counters
        are corrupt); ``None`` classifies normally.
        """
        if cluster is None:
            with trace_span("online/classify"):
                cluster = self.classifier.predict(cpu_sample, gpu_sample)
        elif cluster not in self.cluster_models:
            raise ValueError(f"unknown cluster override {cluster!r}")
        models = self.cluster_models[cluster]
        table = self._table
        power = table.assemble(
            models.cpu.predict_power_from_matrix(
                table.X_power_cpu, cpu_sample.total_power_w
            ),
            models.gpu.predict_power_from_matrix(
                table.X_power_gpu, gpu_sample.total_power_w
            ),
        )
        performance = table.assemble(
            models.cpu.predict_performance_from_matrix(
                table.X_perf_cpu, cpu_sample.performance
            ),
            models.gpu.predict_performance_from_matrix(
                table.X_perf_gpu, gpu_sample.performance
            ),
        )

        power_std = performance_std = None
        if with_uncertainty:
            power_std = table.assemble(
                models.cpu.predict_power_std_from_matrix(
                    table.X_power_cpu, cpu_sample.total_power_w
                ),
                models.gpu.predict_power_std_from_matrix(
                    table.X_power_gpu, gpu_sample.total_power_w
                ),
            )
            performance_std = table.assemble(
                models.cpu.predict_performance_std_from_matrix(
                    table.X_perf_cpu, cpu_sample.performance
                ),
                models.gpu.predict_performance_std_from_matrix(
                    table.X_perf_gpu, gpu_sample.performance
                ),
            )

        return KernelPrediction.from_arrays(
            kernel_uid=kernel_uid,
            cluster=cluster,
            configs=table.configs,
            index=table.index,
            power_w=power,
            performance=performance,
            cpu_sample=cpu_sample,
            gpu_sample=gpu_sample,
            power_std_w=power_std,
            performance_std=performance_std,
        )


def train_model(
    library: ProfilingLibrary,
    kernels: Sequence,
    **train_kwargs,
) -> AdaptiveModel:
    """Convenience wrapper: characterize ``kernels`` through ``library``
    (profiling each on every configuration) and train a model.

    Accepts the same keyword arguments as :meth:`AdaptiveModel.train`.
    """
    return AdaptiveModel.train(characterize_kernels(library, kernels), **train_kwargs)
