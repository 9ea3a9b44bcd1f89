"""Tests for the profile-once characterization store and the
order-independent noise streams it depends on.

The load-bearing guarantee: serving characterizations from a shared
store changes wall-clock time, never results.  That requires the
profiling library's noise to be a pure function of
``(seed, kernel, configuration, repetition)`` — independent of the
order in which runs are requested — which is pinned here alongside the
store's caching, slicing, and registry behavior and an end-to-end
determinism regression on :func:`run_loocv`.
"""

import numpy as np
import pytest

from repro.core.characterization import characterize_kernels
from repro.core.dissimilarity import dissimilarity_matrix
from repro.evaluation import run_loocv
from repro.hardware import TrinityAPU
from repro.profiling import CharacterizationStore, ProfilingLibrary, suite_fingerprint
from repro.profiling.store import _STORE_STREAM_TAG
from repro.workloads import build_suite


@pytest.fixture(autouse=True)
def _isolated_registry():
    CharacterizationStore.clear_shared()
    yield
    CharacterizationStore.clear_shared()


def _profile_key(profile):
    m = profile.measurement
    return (
        m.time_s,
        m.cpu_plane_w,
        m.nbgpu_plane_w,
        tuple(sorted(m.counters.items())),
    )


class TestOrderIndependentNoise:
    def test_profiles_identical_in_any_order(self):
        kernels = list(build_suite())[:3]
        apu = TrinityAPU(seed=0)
        configs = list(apu.config_space)[:4]

        runs = [(k, c) for k in kernels for c in configs]
        forward = ProfilingLibrary(apu, seed=7)
        backward = ProfilingLibrary(apu, seed=7)
        a = {(k.uid, c): _profile_key(forward.profile(k, c)) for k, c in runs}
        b = {
            (k.uid, c): _profile_key(backward.profile(k, c))
            for k, c in reversed(runs)
        }
        assert a == b

    def test_repetition_draws_fresh_noise(self):
        kernel = next(iter(build_suite()))
        apu = TrinityAPU(seed=0)
        lib = ProfilingLibrary(apu, seed=7)
        cfg = list(apu.config_space)[0]
        first = lib.profile(kernel, cfg)
        second = lib.profile(kernel, cfg)
        assert _profile_key(first) != _profile_key(second)

    def test_different_seeds_differ(self):
        kernel = next(iter(build_suite()))
        apu = TrinityAPU(seed=0)
        cfg = list(apu.config_space)[0]
        p7 = ProfilingLibrary(apu, seed=7).profile(kernel, cfg)
        p8 = ProfilingLibrary(apu, seed=8).profile(kernel, cfg)
        assert _profile_key(p7) != _profile_key(p8)


class TestCharacterizationStore:
    def test_store_equals_from_scratch_characterization(self):
        kernels = list(build_suite())[:5]
        store = CharacterizationStore(seed=3)
        fresh_lib = ProfilingLibrary(
            TrinityAPU(seed=3),
            seed=np.random.SeedSequence([3, _STORE_STREAM_TAG]),
        )
        for k in kernels:
            served = store.characterization(k)
            [scratch] = characterize_kernels(fresh_lib, [k])
            assert served.measurements == scratch.measurements

    def test_characterization_cached(self):
        kernel = next(iter(build_suite()))
        store = CharacterizationStore(seed=0)
        first = store.characterization(kernel)
        again = store.characterization(kernel)
        assert first is again
        assert (store.hits, store.misses) == (1, 1)

    def test_uid_conflict_raises(self):
        k0, k1 = list(build_suite())[:2]
        store = CharacterizationStore(seed=0)
        store.characterization(k0)

        class Imposter:
            uid = k0.uid
            characteristics = k1.characteristics

        with pytest.raises(ValueError, match="conflicts"):
            store.characterization(Imposter())

    def test_dissimilarity_submatrix_matches_direct(self):
        kernels = list(build_suite())[:8]
        store = CharacterizationStore(seed=0)
        sub = store.dissimilarity_submatrix(kernels, composition_weight=0.5)
        frontiers = {k.uid: store.frontier(k) for k in kernels}
        direct = dissimilarity_matrix(frontiers, composition_weight=0.5)
        np.testing.assert_allclose(sub, direct, atol=1e-12)
        # A permuted subset slices consistently from the same cache.
        subset = list(reversed(kernels[2:6]))
        sub2 = store.dissimilarity_submatrix(subset, composition_weight=0.5)
        uids = [k.uid for k in kernels]
        idx = [uids.index(k.uid) for k in subset]
        np.testing.assert_allclose(sub2, direct[np.ix_(idx, idx)], atol=1e-12)

    def test_shared_registry_identity(self):
        suite = build_suite()
        s1 = CharacterizationStore.shared(suite, seed=0)
        s2 = CharacterizationStore.shared(list(suite), seed=0)
        assert s1 is s2
        assert CharacterizationStore.shared(suite, seed=1) is not s1
        micro = list(suite)[:3]
        assert CharacterizationStore.shared(micro, seed=0) is not s1

    def test_fingerprint_order_insensitive(self):
        kernels = list(build_suite())[:6]
        assert suite_fingerprint(kernels) == suite_fingerprint(
            list(reversed(kernels))
        )


class TestLOOCVDeterminism:
    def test_run_loocv_identical_with_store_and_from_scratch(self):
        # Shared-store run (registry cold, then warm) vs an explicit
        # fresh private store: all three must agree exactly.
        r_cold = run_loocv(seed=0, include_freq_limiting=False)
        r_warm = run_loocv(seed=0, include_freq_limiting=False)
        r_scratch = run_loocv(
            seed=0,
            include_freq_limiting=False,
            store=CharacterizationStore(seed=0),
        )
        assert r_cold.records == r_warm.records
        assert r_cold.records == r_scratch.records

    def test_run_loocv_parallel_identical(self):
        serial = run_loocv(seed=1, include_freq_limiting=False)
        parallel = run_loocv(seed=1, include_freq_limiting=False, n_jobs=4)
        assert serial.records == parallel.records
        assert set(serial.fold_models) == set(parallel.fold_models)

    def test_timings_recorded(self):
        report = run_loocv(seed=0, include_freq_limiting=False)
        t = report.timings
        assert t.wall_s > 0
        assert t.profile_s >= 0 and t.train_s > 0 and t.evaluate_s > 0
        assert t.n_jobs == 1
