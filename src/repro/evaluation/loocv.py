"""Leave-one-benchmark-out cross-validated evaluation.

Paper Section V-C: "for each benchmark, we form a training set that
consists of kernels from other benchmarks.  From kernels in the
training set, we compute clusters, cluster models, and a classification
tree, then apply them to kernels from the benchmark under validation.
In doing so, we ensure that the model is always applied to as-yet-unseen
benchmarks."

:func:`run_loocv` is the package's top-level experiment driver: it
produces the :class:`~repro.evaluation.harness.CapEvaluation` records
behind Table III and Figures 4-9.

The driver follows the paper's profile-once economy (Section III-D):
the suite is characterized exactly once through a shared
:class:`~repro.profiling.store.CharacterizationStore`, and every fold
slices its training subset (characterizations and dissimilarity
submatrix) from the store instead of re-profiling.  Folds are
independent and can run concurrently (``n_jobs``); results are
deterministic for a fixed seed regardless of parallelism because every
noise stream is spawned per fold from one :class:`numpy.random.SeedSequence`.
"""

from __future__ import annotations

import logging
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.clustering import cluster_kernels, resolve_warm_medoids
from repro.core.model import AdaptiveModel
from repro.core.scheduler import Scheduler
from repro.evaluation.harness import CapEvaluation, evaluate_suite
from repro.hardware.backend import create_backend
from repro.methods.freq_limit import CpuFrequencyLimiting, GpuFrequencyLimiting
from repro.methods.model_method import ModelMethod, ModelPlusFL
from repro.methods.oracle import Oracle
from repro.profiling.library import ProfilingLibrary
from repro.profiling.store import CharacterizationStore
from repro.telemetry import (
    get_logger,
    get_tracer,
    histogram,
    log_event,
    trace_span,
)
from repro.workloads.suite import Suite, build_suite

__all__ = ["LOOCVReport", "LOOCVTimings", "run_loocv", "resolve_n_jobs"]

_log = get_logger(__name__)


#: Environment default for ``n_jobs`` when callers leave it unset.
NJOBS_ENV_VAR = "REPRO_NJOBS"


def resolve_n_jobs(n_jobs: int | None) -> int:
    """Normalize an ``n_jobs`` knob: ``-1`` means one worker per CPU.

    ``None`` (the unset default) consults the ``REPRO_NJOBS``
    environment variable — itself accepting ``-1`` — and falls back to
    serial execution when that is absent or empty.
    """
    if n_jobs is None:
        raw = os.environ.get(NJOBS_ENV_VAR, "").strip()
        if not raw:
            return 1
        try:
            n_jobs = int(raw)
        except ValueError:
            raise ValueError(
                f"{NJOBS_ENV_VAR} must be an integer (>= 1 or -1), got {raw!r}"
            ) from None
    if n_jobs == -1:
        return max(1, os.cpu_count() or 1)
    if n_jobs < 1:
        raise ValueError(f"n_jobs must be >= 1 or -1, got {n_jobs}")
    return n_jobs


@dataclass
class LOOCVTimings:
    """Wall-clock breakdown of one :func:`run_loocv` call.

    ``profile_s`` is the exhaustive characterization cost of this call
    (near zero when the shared store is already warm); ``train_s`` and
    ``evaluate_s`` are summed across folds, so under ``n_jobs > 1`` they
    can exceed ``wall_s``.

    This is the legacy numeric view; the telemetry span tree
    (:func:`repro.telemetry.telemetry_snapshot`, written by
    :func:`repro.telemetry.write_telemetry`) subsumes it with the full
    per-phase hierarchy — see ``docs/OBSERVABILITY.md``.
    """

    profile_s: float = 0.0
    train_s: float = 0.0
    evaluate_s: float = 0.0
    wall_s: float = 0.0
    n_jobs: int = 1


@dataclass
class LOOCVReport:
    """Everything a cross-validated evaluation produced.

    Attributes
    ----------
    records:
        All (kernel, cap, method) evaluations across folds.
    fold_models:
        The model trained for each held-out benchmark.
    timings:
        Per-phase wall-clock breakdown of the run.
    """

    records: list[CapEvaluation] = field(default_factory=list)
    fold_models: dict[str, AdaptiveModel] = field(default_factory=dict)
    timings: LOOCVTimings = field(default_factory=LOOCVTimings)


def run_loocv(
    suite: Suite | None = None,
    *,
    seed: int = 0,
    n_clusters: int = 5,
    transform: str = "none",
    power_anchor: bool = True,
    composition_weight: float | None = None,
    ridge: float = 0.0,
    tree_max_depth: int = 4,
    risk_margin: float = 0.0,
    include_freq_limiting: bool = True,
    n_jobs: int | None = None,
    store: CharacterizationStore | None = None,
    fault_plan: "FaultPlan | str | Path | None" = None,
    backend: str = "trinity",
) -> LOOCVReport:
    """Run the paper's full cross-validated method comparison.

    Parameters
    ----------
    suite:
        Benchmark suite (defaults to the paper's 36-kernel/65-combo
        suite).
    seed:
        Master seed for the machine and every profiling stream.
        Per-fold streams are spawned from one
        :class:`numpy.random.SeedSequence`, so folds never share or
        collide streams across master seeds.
    n_clusters, transform, power_anchor, composition_weight, ridge,
    tree_max_depth:
        Offline-training knobs forwarded to
        :meth:`AdaptiveModel.train` (paper defaults).
    risk_margin:
        Scheduler risk margin for the model methods (Section VI
        extension; 0 reproduces the paper).
    include_freq_limiting:
        Also evaluate the CPU+FL / GPU+FL baselines (they are
        model-independent, so ablation callers may skip them).
    n_jobs:
        Folds to evaluate concurrently (``-1`` = one per CPU).  Results
        are identical for any value.  ``None`` (the default) defers to
        the ``REPRO_NJOBS`` environment variable, falling back to
        serial execution.
    store:
        Characterization store to draw training profiles from; defaults
        to the process-wide shared store for ``(suite, seed)``, which
        makes repeated calls (ablations, sweeps) profile the suite only
        once.
    fault_plan:
        Optional :class:`repro.faults.FaultPlan` (or path to a scenario
        JSON) injected into the *online* measurement paths — sample
        runs, limiter control loops — while offline training profiles
        and the oracle's ground truth stay clean (see
        ``docs/ROBUSTNESS.md``).  An empty plan reproduces the
        fault-free records bit-for-bit.  Forces serial fold execution:
        the injector's run clock is shared, so parallel folds would
        make which run draws which fault nondeterministic.
    backend:
        Hardware backend to evaluate on (default ``"trinity"``, the
        paper's machine).  Every backend evaluates the same methods:
        the frequency limiter walks each machine's own P-state ladders.

    Returns
    -------
    LOOCVReport
    """
    suite = suite if suite is not None else build_suite()
    apu = create_backend(backend, seed=seed)
    oracle = Oracle(apu)
    if fault_plan is not None:
        from repro.faults import FaultPlan

        if isinstance(fault_plan, (str, Path)):
            fault_plan = FaultPlan.from_file(fault_plan)
        # Online paths only: the shared store profiles on its own
        # machine, so offline characterization stays clean — matching a
        # deployment whose training campaign predates the faults.
        apu.inject_faults(fault_plan)
    if store is None:
        store = CharacterizationStore.shared(suite, seed=seed, backend=backend)
    report = LOOCVReport()
    wall_start = time.perf_counter()
    fold_hist = histogram("loocv.fold_s")

    benchmarks = list(suite.benchmarks())
    fold_streams = np.random.SeedSequence(seed).spawn(len(benchmarks))

    all_kernels = list(suite)
    all_uids = [k.uid for k in all_kernels]
    # Populated once before folds run (see the warm-start block below);
    # folds only read these.
    warm: dict[str, object] = {"clustering": None, "D": None, "pool": None}

    def run_fold(fold_i: int, benchmark: str):
        with trace_span("fold"), fold_hist.time():
            online_ss, mfl_ss, cpufl_ss, gpufl_ss = fold_streams[fold_i].spawn(4)
            train_kernels = [k for k in suite if k.benchmark != benchmark]
            test_kernels = suite.for_benchmark(benchmark)

            t0 = time.perf_counter()
            characterizations = store.characterize(train_kernels)
            dissimilarity = store.dissimilarity_submatrix(
                train_kernels, composition_weight=composition_weight
            )
            init_uids = None
            if warm["clustering"] is not None:
                init_uids = resolve_warm_medoids(
                    warm["clustering"],
                    all_uids,
                    warm["D"],
                    {k.uid for k in train_kernels},
                )
            with trace_span("offline/train"):
                model = AdaptiveModel.train(
                    characterizations,
                    n_clusters=n_clusters,
                    transform=transform,
                    power_anchor=power_anchor,
                    composition_weight=composition_weight,
                    ridge=ridge,
                    tree_max_depth=tree_max_depth,
                    dissimilarity=dissimilarity,
                    initial_medoid_uids=init_uids,
                    gram_pool=warm["pool"],
                    config_space=apu.config_space,
                )
            train_s = time.perf_counter() - t0

            online_library = ProfilingLibrary(apu, seed=online_ss)
            scheduler = Scheduler(risk_margin=risk_margin)
            methods = [
                ModelMethod(model, online_library, scheduler=scheduler),
                ModelPlusFL(model, online_library, scheduler=scheduler, seed=mfl_ss),
            ]
            if include_freq_limiting:
                methods.append(CpuFrequencyLimiting(apu, seed=cpufl_ss))
                methods.append(GpuFrequencyLimiting(apu, seed=gpufl_ss))

            t0 = time.perf_counter()
            records = evaluate_suite(apu, oracle, methods, test_kernels)
            evaluate_s = time.perf_counter() - t0
            log_event(
                _log,
                logging.INFO,
                "fold-complete",
                fold=fold_i,
                benchmark=benchmark,
                test_kernels=len(test_kernels),
                records=len(records),
                train_s=round(train_s, 3),
                evaluate_s=round(evaluate_s, 3),
            )
        return benchmark, model, records, train_s, evaluate_s

    tracer = get_tracer()
    with trace_span("loocv") as loocv_node:
        # Profile-once: the full suite is characterized up front (a warm
        # shared store makes this free); folds only slice from it.
        t0 = time.perf_counter()
        full_chars = store.characterize(all_kernels)
        report.timings.profile_s = time.perf_counter() - t0

        # Training-engine warm start (docs/TRAINING_ENGINE.md): cluster
        # the *full* suite once, seed the regression Gram pool with the
        # reference cluster sums, and let each fold (a) seed its PAM
        # from the reference medoids projected onto its training subset
        # and (b) fit regressions by downdating the seeded sums.  Both
        # accelerators are result-preserving; seeding happens before
        # fold workers start so served statistics are deterministic for
        # any ``n_jobs``.
        if n_clusters <= len(all_kernels):
            full_D = store.dissimilarity_submatrix(
                all_kernels, composition_weight=composition_weight
            )
            with trace_span("offline/cluster"):
                full_clustering = cluster_kernels(
                    all_uids, n_clusters=n_clusters, dissimilarity=full_D
                )
            pool = store.gram_pool(
                transform=transform, power_anchor=power_anchor
            )
            pool.seed_cluster_sums(
                (
                    full_clustering.members(c)
                    for c in range(full_clustering.n_clusters)
                ),
                {c.kernel_uid: c for c in full_chars},
            )
            warm.update(clustering=full_clustering, D=full_D, pool=pool)

        jobs = resolve_n_jobs(n_jobs)
        if fault_plan is not None and jobs != 1:
            log_event(
                _log,
                logging.WARNING,
                "loocv-fault-plan-serial",
                requested_n_jobs=jobs,
                reason="fault injection shares one run clock across folds",
            )
            jobs = 1
        report.timings.n_jobs = jobs
        if jobs == 1:
            fold_results = [run_fold(i, b) for i, b in enumerate(benchmarks)]
        else:
            # Worker threads open their fold spans on empty span stacks;
            # the fallback parent hangs them under this run's loocv node.
            tracer.set_fallback(loocv_node)
            try:
                with ThreadPoolExecutor(max_workers=jobs) as pool:
                    fold_results = list(
                        pool.map(run_fold, range(len(benchmarks)), benchmarks)
                    )
            finally:
                tracer.set_fallback(None)

    for benchmark, model, records, train_s, evaluate_s in fold_results:
        report.fold_models[benchmark] = model
        report.records.extend(records)
        report.timings.train_s += train_s
        report.timings.evaluate_s += evaluate_s
    report.timings.wall_s = time.perf_counter() - wall_start
    log_event(
        _log,
        logging.INFO,
        "loocv-complete",
        folds=len(benchmarks),
        records=len(report.records),
        wall_s=round(report.timings.wall_s, 3),
        n_jobs=report.timings.n_jobs,
    )
    return report
