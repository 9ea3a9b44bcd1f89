"""Cross-cutting tests of the vectorized training engine.

Covers the pieces that cooperate across modules (see
``docs/TRAINING_ENGINE.md``):

* :class:`~repro.core.regression.RegressionGramPool` — the sufficient-
  statistics fit path must agree with the direct design-matrix fit,
  including when a cluster's statistics are served by *downdating* a
  seeded full-suite sum;
* :func:`~repro.core.clustering.resolve_warm_medoids` — projecting a
  reference clustering's medoids onto a training subset;
* warm-started training through :meth:`AdaptiveModel.train` — records
  and cluster partitions must not depend on the warm start;
* ``REPRO_NJOBS`` — the environment default for every ``n_jobs`` knob.
"""

import numpy as np
import pytest

from repro import telemetry
from repro.core import (
    AdaptiveModel,
    ClusteringResult,
    RegressionGramPool,
    characterize_kernels,
    cluster_kernels,
    fit_cluster_models,
    resolve_warm_medoids,
)
from repro.evaluation.loocv import resolve_n_jobs
from repro.hardware import Device, NoiseModel, TrinityAPU
from repro.profiling import CharacterizationStore, ProfilingLibrary
from repro.workloads import build_suite
from repro.hardware.backend import TRINITY_DESCRIPTOR

CPU_SAMPLE, GPU_SAMPLE = TRINITY_DESCRIPTOR.sample_configs()


@pytest.fixture(scope="module")
def characterizations():
    library = ProfilingLibrary(
        TrinityAPU(noise=NoiseModel.exact(), seed=0), seed=0
    )
    suite = build_suite()
    kernels = suite.for_benchmark("CoMD")[:6]
    return characterize_kernels(library, kernels)


def _assert_cluster_models_close(a, b):
    # The pool accumulates per-kernel Gram blocks and sums them, so the
    # two paths differ only by floating-point reassociation: ≤1e-9
    # relative on every coefficient and diagnostic.
    for device in ("cpu", "gpu"):
        da, db = getattr(a, device), getattr(b, device)
        for attr in ("perf_ratio", "power"):
            ma, mb = getattr(da, attr), getattr(db, attr)
            np.testing.assert_allclose(ma.coef, mb.coef, rtol=1e-9, atol=1e-9)
            assert ma.r_squared == pytest.approx(mb.r_squared, abs=1e-9)
            np.testing.assert_allclose(
                ma.std_errors, mb.std_errors,
                rtol=1e-6, atol=1e-9, equal_nan=True,
            )
            assert ma.n_obs == mb.n_obs
            assert ma.rank == mb.rank


class TestRegressionGramPool:
    @pytest.mark.parametrize("power_anchor", [True, False])
    def test_pool_fit_matches_direct_fit(self, characterizations, power_anchor):
        pool = RegressionGramPool(power_anchor=power_anchor)
        direct = fit_cluster_models(
            characterizations, power_anchor=power_anchor
        )
        via_pool = fit_cluster_models(
            characterizations, power_anchor=power_anchor, gram_pool=pool
        )
        _assert_cluster_models_close(via_pool, direct)

    def test_pool_blocks_are_cached_across_fits(self, characterizations):
        misses = telemetry.counter("train.gram.misses")
        pool = RegressionGramPool()
        start = misses.value
        fit_cluster_models(characterizations, gram_pool=pool)
        built = misses.value
        fit_cluster_models(characterizations, gram_pool=pool)
        assert built > start
        assert misses.value == built  # nothing rebuilt

    def test_downdate_path_matches_direct_fit(self, characterizations):
        pool = RegressionGramPool()
        chars_by_uid = {c.kernel_uid: c for c in characterizations}
        pool.seed_cluster_sums([list(chars_by_uid)], chars_by_uid)
        # A strict subset: served by downdating the seeded sum.  The
        # subtraction cancels accumulated digits, so agreement is a few
        # orders looser than the pure-sum path (still ~1e-8 relative;
        # the end-to-end record-identity test pins that selections
        # never change).
        subset = characterizations[:-2]
        direct = fit_cluster_models(subset)
        via_pool = fit_cluster_models(subset, gram_pool=pool)
        for device in ("cpu", "gpu"):
            da, db = getattr(via_pool, device), getattr(direct, device)
            for attr in ("perf_ratio", "power"):
                ma, mb = getattr(da, attr), getattr(db, attr)
                np.testing.assert_allclose(ma.coef, mb.coef, rtol=1e-6)
                assert ma.r_squared == pytest.approx(mb.r_squared, abs=1e-9)

    def test_ridge_through_pool_matches_direct(self, characterizations):
        pool = RegressionGramPool()
        direct = fit_cluster_models(characterizations, ridge=0.3)
        via_pool = fit_cluster_models(
            characterizations, ridge=0.3, gram_pool=pool
        )
        _assert_cluster_models_close(via_pool, direct)

    def test_mismatched_pool_settings_rejected(self, characterizations):
        pool = RegressionGramPool(transform="log")
        with pytest.raises(ValueError):
            fit_cluster_models(
                characterizations, transform="none", gram_pool=pool
            )
        pool2 = RegressionGramPool(power_anchor=False)
        with pytest.raises(ValueError):
            fit_cluster_models(
                characterizations, power_anchor=True, gram_pool=pool2
            )

    def test_store_pools_are_per_setting_singletons(self):
        store = CharacterizationStore(seed=0)
        assert store.gram_pool() is store.gram_pool()
        assert store.gram_pool() is not store.gram_pool(transform="log")
        assert store.gram_pool() is not store.gram_pool(power_anchor=False)


class TestResolveWarmMedoids:
    @staticmethod
    def _reference():
        uids = [f"k{i}" for i in range(6)]
        labels = {"k0": 0, "k1": 0, "k2": 1, "k3": 1, "k4": 1, "k5": 0}
        ref = ClusteringResult(
            labels=labels,
            n_clusters=2,
            silhouette=0.5,
            medoid_uids=("k1", "k3"),
        )
        rng = np.random.default_rng(0)
        M = rng.uniform(size=(6, 6))
        D = (M + M.T) / 2.0
        np.fill_diagonal(D, 0.0)
        return ref, uids, D

    def test_all_medoids_present_are_kept(self):
        ref, uids, D = self._reference()
        seeds = resolve_warm_medoids(ref, uids, D, set(uids))
        assert seeds == ("k1", "k3")

    def test_held_out_medoid_replaced_by_best_present_member(self):
        ref, uids, D = self._reference()
        present = {"k0", "k2", "k4", "k5"}  # both medoids held out
        seeds = resolve_warm_medoids(ref, uids, D, present)
        assert seeds is not None
        # Cluster 0 survivors: k0, k5; cluster 1 survivors: k2, k4.
        assert seeds[0] in {"k0", "k5"} and seeds[1] in {"k2", "k4"}

    def test_emptied_cluster_returns_none(self):
        ref, uids, D = self._reference()
        seeds = resolve_warm_medoids(ref, uids, D, {"k0", "k1", "k5"})
        assert seeds is None  # cluster 1 lost every member

    def test_cluster_kernels_ignores_invalid_seeds(self):
        ref, uids, D = self._reference()
        # Stale uid in the seeding: clustering silently falls back to
        # the cold BUILD phase instead of failing.
        cold = cluster_kernels(uids, n_clusters=2, dissimilarity=D)
        seeded = cluster_kernels(
            uids,
            n_clusters=2,
            dissimilarity=D,
            initial_medoid_uids=("k1", "gone"),
        )
        assert seeded.labels == cold.labels


class TestWarmTrainingInvariance:
    def test_warm_started_training_selects_same_partition(self):
        suite = build_suite()
        store = CharacterizationStore(seed=0)
        kernels = [k for k in suite if k.benchmark != "LU"]
        chars = store.characterize(kernels)
        D = store.dissimilarity_submatrix(kernels)

        all_kernels = list(suite)
        store.characterize(all_kernels)
        full_D = store.dissimilarity_submatrix(all_kernels)
        full = cluster_kernels(
            [k.uid for k in all_kernels], n_clusters=5, dissimilarity=full_D
        )
        seeds = resolve_warm_medoids(
            full, [k.uid for k in all_kernels], full_D,
            {k.uid for k in kernels},
        )
        assert seeds is not None

        cold = AdaptiveModel.train(chars, dissimilarity=D)
        warm = AdaptiveModel.train(
            chars,
            dissimilarity=D,
            initial_medoid_uids=seeds,
            gram_pool=store.gram_pool(),
        )

        def partition(clustering):
            groups = {}
            for uid, c in clustering.labels.items():
                groups.setdefault(c, set()).add(uid)
            return sorted(map(sorted, groups.values()))

        assert partition(warm.clustering) == partition(cold.clustering)
        assert set(warm.clustering.medoid_uids) == set(
            cold.clustering.medoid_uids
        )
        # Identical partitions must classify test kernels identically
        # (the tree's tie-break is label-permutation covariant).
        inv = {c: i for i, c in enumerate(sorted(
            map(tuple, map(sorted, (
                warm.clustering.members(c)
                for c in range(warm.clustering.n_clusters)
            )))
        ))}

        def canonical(model, uid_cluster):
            members = tuple(sorted(model.clustering.members(uid_cluster)))
            return inv[members]

        online = ProfilingLibrary(store.apu, seed=1)

        for kernel in suite.for_benchmark("LU"):
            cpu = online.profile(kernel, CPU_SAMPLE).measurement
            gpu = online.profile(kernel, GPU_SAMPLE).measurement
            pc = warm.predict_kernel(cpu, gpu, kernel_uid=kernel.uid)
            pd = cold.predict_kernel(cpu, gpu, kernel_uid=kernel.uid)
            assert canonical(warm, pc.cluster) == canonical(cold, pd.cluster)
            # Gram-path regression differs only by reassociation ulps.
            np.testing.assert_allclose(
                pc.power_array, pd.power_array, rtol=1e-9
            )
            np.testing.assert_allclose(
                pc.performance_array, pd.performance_array, rtol=1e-9
            )


class TestNJobsEnvDefault:
    def test_unset_defaults_to_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_NJOBS", raising=False)
        assert resolve_n_jobs(None) == 1

    def test_env_value_honored(self, monkeypatch):
        monkeypatch.setenv("REPRO_NJOBS", "3")
        assert resolve_n_jobs(None) == 3

    def test_env_minus_one_means_cpu_count(self, monkeypatch):
        monkeypatch.setenv("REPRO_NJOBS", "-1")
        assert resolve_n_jobs(None) >= 1

    def test_explicit_argument_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_NJOBS", "7")
        assert resolve_n_jobs(2) == 2

    def test_blank_env_falls_back_to_serial(self, monkeypatch):
        monkeypatch.setenv("REPRO_NJOBS", "  ")
        assert resolve_n_jobs(None) == 1

    def test_invalid_env_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_NJOBS", "lots")
        with pytest.raises(ValueError):
            resolve_n_jobs(None)

    def test_invalid_argument_raises(self):
        with pytest.raises(ValueError):
            resolve_n_jobs(0)
        with pytest.raises(ValueError):
            resolve_n_jobs(-2)
