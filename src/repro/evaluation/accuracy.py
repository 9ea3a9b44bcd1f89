"""Prediction-accuracy evaluation.

The paper's abstract claims the model "accurately predicts power and
performance"; its scheduling results depend on two distinct accuracy
properties:

* **magnitude accuracy** — relative error of predicted power (watts)
  and performance, per configuration;
* **ranking accuracy** — whether the predicted ordering of
  configurations matches the true ordering (Section III-B: the linear
  models exist "to rank configurations in performance and power in a
  computationally efficient manner").

This module computes both, cross-validated at benchmark granularity
exactly like the method comparison, and is exercised by the
prediction-accuracy benchmark.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from repro.core.model import AdaptiveModel
from repro.evaluation.loocv import resolve_n_jobs
from repro.profiling.library import ProfilingLibrary
from repro.profiling.store import CharacterizationStore
from repro.stats.kendall import kendall_tau
from repro.workloads.suite import Suite, build_suite

__all__ = ["KernelAccuracy", "AccuracyReport", "evaluate_prediction_accuracy"]

#: Entropy tag keeping the accuracy evaluation's online-sample streams
#: disjoint from run_loocv's fold streams under the same master seed.
_ACCURACY_STREAM_TAG: int = 0x7919


@dataclass(frozen=True)
class KernelAccuracy:
    """Prediction accuracy for one held-out kernel.

    Attributes
    ----------
    kernel_uid:
        The kernel.
    cluster:
        The cluster the classification tree assigned.
    power_mape, perf_mape:
        Mean absolute percentage error over all configurations.
    power_max_ape, perf_max_ape:
        Worst-case absolute percentage error.
    power_rank_tau, perf_rank_tau:
        Kendall correlation between the predicted and true orderings of
        all configurations (1.0 = identical ranking).
    """

    kernel_uid: str
    cluster: int
    power_mape: float
    perf_mape: float
    power_max_ape: float
    perf_max_ape: float
    power_rank_tau: float
    perf_rank_tau: float


@dataclass
class AccuracyReport:
    """Cross-validated prediction accuracy over the full suite."""

    kernels: list[KernelAccuracy]

    def mean(self, field: str) -> float:
        """Mean of one accuracy field over all kernels."""
        return float(np.mean([getattr(k, field) for k in self.kernels]))

    def worst(self, field: str) -> float:
        """Worst kernel's value (max for errors, min for taus)."""
        values = [getattr(k, field) for k in self.kernels]
        if field.endswith("tau"):
            return float(np.min(values))
        return float(np.max(values))

    def summary(self) -> str:
        """Human-readable accuracy summary."""
        return "\n".join(
            [
                f"Prediction accuracy over {len(self.kernels)} held-out kernels:",
                f"  power:       MAPE {100 * self.mean('power_mape'):5.1f}% "
                f"(worst kernel {100 * self.worst('power_mape'):5.1f}%), "
                f"rank tau {self.mean('power_rank_tau'):.3f}",
                f"  performance: MAPE {100 * self.mean('perf_mape'):5.1f}% "
                f"(worst kernel {100 * self.worst('perf_mape'):5.1f}%), "
                f"rank tau {self.mean('perf_rank_tau'):.3f}",
            ]
        )


def evaluate_prediction_accuracy(
    suite: Suite | None = None,
    *,
    seed: int = 0,
    n_clusters: int = 5,
    transform: str = "none",
    power_anchor: bool = True,
    n_jobs: int | None = None,
    store: CharacterizationStore | None = None,
    backend: str = "trinity",
) -> AccuracyReport:
    """Leave-one-benchmark-out prediction accuracy for every kernel.

    For each fold the model is trained on the other benchmarks, each
    held-out kernel runs its two sample iterations, and the model's
    whole-space predictions are scored against ground truth.  Training
    profiles come from the shared profile-once characterization store
    (or an explicit ``store``); ``n_jobs`` runs folds concurrently with
    results identical for any value (``None`` defers to ``REPRO_NJOBS``,
    falling back to serial).
    """
    suite = suite if suite is not None else build_suite()
    if store is None:
        store = CharacterizationStore.shared(suite, seed=seed, backend=backend)
    apu = store.apu
    # Table II anchors of whatever machine the store profiles on.
    cpu_sample, gpu_sample = apu.descriptor.sample_configs()
    store.characterize(list(suite))
    benchmarks = list(suite.benchmarks())
    fold_streams = np.random.SeedSequence(
        [seed, _ACCURACY_STREAM_TAG]
    ).spawn(len(benchmarks))

    def run_fold(fold_i: int, benchmark: str) -> list[KernelAccuracy]:
        train_kernels = [k for k in suite if k.benchmark != benchmark]
        model = AdaptiveModel.train(
            store.characterize(train_kernels),
            n_clusters=n_clusters,
            transform=transform,
            power_anchor=power_anchor,
            dissimilarity=store.dissimilarity_submatrix(train_kernels),
            config_space=apu.config_space,
        )
        online = ProfilingLibrary(apu, seed=fold_streams[fold_i])
        fold_results: list[KernelAccuracy] = []
        for kernel in suite.for_benchmark(benchmark):
            cpu_m = online.profile(kernel, cpu_sample).measurement
            gpu_m = online.profile(kernel, gpu_sample).measurement
            prediction = model.predict_kernel(
                cpu_m, gpu_m, kernel_uid=kernel.uid
            )
            pred_p = prediction.power_array
            pred_f = prediction.performance_array
            configs = prediction.config_tuple
            true_p = np.array(
                [apu.true_total_power_w(kernel, c) for c in configs]
            )
            true_f = np.array([apu.true_performance(kernel, c) for c in configs])
            ape_p = np.abs(pred_p - true_p) / true_p
            ape_f = np.abs(pred_f - true_f) / true_f
            fold_results.append(
                KernelAccuracy(
                    kernel_uid=kernel.uid,
                    cluster=prediction.cluster,
                    power_mape=float(ape_p.mean()),
                    perf_mape=float(ape_f.mean()),
                    power_max_ape=float(ape_p.max()),
                    perf_max_ape=float(ape_f.max()),
                    power_rank_tau=kendall_tau(pred_p, true_p),
                    perf_rank_tau=kendall_tau(pred_f, true_f),
                )
            )
        return fold_results

    jobs = resolve_n_jobs(n_jobs)
    if jobs == 1:
        per_fold = [run_fold(i, b) for i, b in enumerate(benchmarks)]
    else:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            per_fold = list(
                pool.map(run_fold, range(len(benchmarks)), benchmarks)
            )
    return AccuracyReport(kernels=[k for fold in per_fold for k in fold])
