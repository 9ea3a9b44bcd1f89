"""Tests for repro.core.dissimilarity and repro.core.clustering."""

import numpy as np
import pytest

from repro.core import (
    ParetoFrontier,
    cluster_kernels,
    dissimilarity_matrix,
    frontier_dissimilarity,
)
from repro.hardware import NoiseModel, TrinityAPU
from repro.workloads import build_suite


def _frontier(points):
    """points: list of (config, power, perf)."""
    return ParetoFrontier.from_arrays(*zip(*points))


@pytest.fixture(scope="module")
def space():
    return list(TrinityAPU().config_space)


def test_identical_frontiers_zero_dissimilarity(space):
    f = _frontier([(space[0], 10, 1), (space[1], 20, 2), (space[2], 30, 3)])
    assert frontier_dissimilarity(f, f) == pytest.approx(0.0)


def test_reversed_shared_order_max_order_term(space):
    a = _frontier([(space[0], 10, 1), (space[1], 20, 2)])
    b = _frontier([(space[1], 10, 1), (space[0], 20, 2)])
    # Same composition (jaccard term 0), reversed order (order term 1).
    assert frontier_dissimilarity(a, b, composition_weight=0.5) == pytest.approx(0.5)
    assert frontier_dissimilarity(a, b, composition_weight=0.0) == pytest.approx(1.0)


def test_disjoint_composition_max_dissimilarity(space):
    a = _frontier([(space[0], 10, 1), (space[1], 20, 2)])
    b = _frontier([(space[2], 10, 1), (space[3], 20, 2)])
    assert frontier_dissimilarity(a, b) == pytest.approx(1.0)


def test_single_shared_config_carries_no_order_info(space):
    a = _frontier([(space[0], 10, 1), (space[1], 20, 2)])
    b = _frontier([(space[0], 10, 1), (space[2], 20, 2)])
    # Jaccard = 1/3, order term = 1 (too few shared).
    expected = 0.5 * (1 - 1 / 3) + 0.5 * 1.0
    assert frontier_dissimilarity(a, b) == pytest.approx(expected)


def test_composition_weight_validation(space):
    f = _frontier([(space[0], 10, 1)])
    with pytest.raises(ValueError):
        frontier_dissimilarity(f, f, composition_weight=1.5)


def test_dissimilarity_symmetric_and_bounded():
    apu = TrinityAPU(noise=NoiseModel.exact())
    suite = build_suite()
    frontiers = {}
    for k in list(suite)[:10]:
        frontiers[k.uid] = ParetoFrontier.from_measurements(apu.run_all_configs(k))
    D = dissimilarity_matrix(frontiers)
    assert D.shape == (10, 10)
    np.testing.assert_allclose(D, D.T)
    assert np.all((D >= 0) & (D <= 1))
    np.testing.assert_allclose(np.diag(D), 0.0)


def test_vectorized_matrix_matches_scalar_pairwise():
    """The all-pairs matrix equals the scalar frontier_dissimilarity
    applied pair by pair, at every composition weight."""
    apu = TrinityAPU(noise=NoiseModel.exact())
    suite = list(build_suite())[:12]
    frontiers = {
        k.uid: ParetoFrontier.from_measurements(apu.run_all_configs(k))
        for k in suite
    }
    uids = list(frontiers)
    for w in (0.0, 0.25, 0.5, 1.0):
        D = dissimilarity_matrix(frontiers, composition_weight=w)
        for i, a in enumerate(uids):
            for j, b in enumerate(uids):
                expected = frontier_dissimilarity(
                    frontiers[a], frontiers[b], composition_weight=w
                )
                assert D[i, j] == pytest.approx(expected, abs=1e-12)


def test_dissimilarity_cache_submatrix_slices():
    from repro.core import DissimilarityCache

    apu = TrinityAPU(noise=NoiseModel.exact())
    suite = list(build_suite())[:10]
    frontiers = {
        k.uid: ParetoFrontier.from_measurements(apu.run_all_configs(k))
        for k in suite
    }
    cache = DissimilarityCache()
    for uid, f in frontiers.items():
        cache.add(uid, f)
    uids = list(frontiers)
    full = dissimilarity_matrix(frontiers, composition_weight=0.5)
    np.testing.assert_allclose(
        cache.submatrix(uids, composition_weight=0.5), full, atol=1e-12
    )
    subset = [uids[7], uids[2], uids[5]]
    idx = [uids.index(u) for u in subset]
    np.testing.assert_allclose(
        cache.submatrix(subset, composition_weight=0.5),
        full[np.ix_(idx, idx)],
        atol=1e-12,
    )
    with pytest.raises(KeyError):
        cache.submatrix(["unregistered/kernel"])


def test_dissimilarity_matrix_empty_rejected():
    with pytest.raises(ValueError):
        dissimilarity_matrix([])


def test_dissimilarity_accepts_sequence(space):
    a = _frontier([(space[0], 10, 1), (space[1], 20, 2)])
    D = dissimilarity_matrix([a, a])
    assert D[0, 1] == pytest.approx(0.0)


class TestClustering:
    @pytest.fixture(scope="class")
    def frontiers(self):
        apu = TrinityAPU(noise=NoiseModel.exact())
        suite = build_suite()
        return {
            k.uid: ParetoFrontier.from_measurements(apu.run_all_configs(k))
            for k in suite
        }

    def test_default_five_clusters(self, frontiers):
        result = cluster_kernels(frontiers)
        assert result.n_clusters == 5
        assert set(result.labels.values()) == set(range(5))
        assert sum(result.sizes()) == len(frontiers)

    def test_clusters_nonempty_and_reasonably_balanced(self, frontiers):
        result = cluster_kernels(frontiers)
        sizes = result.sizes()
        assert min(sizes) >= 1
        assert max(sizes) < len(frontiers)  # no single giant cluster

    def test_silhouette_positive(self, frontiers):
        # A meaningful clustering: structure, not noise.
        assert cluster_kernels(frontiers).silhouette > 0.1

    def test_clusters_span_benchmarks(self, frontiers):
        """Paper: each cluster contains kernels from at least three of
        the five benchmark/input groups (we require >= 2 benchmarks for
        the larger clusters)."""
        result = cluster_kernels(frontiers)
        for c in range(result.n_clusters):
            members = result.members(c)
            if len(members) >= 6:
                benchmarks = {uid.split("/")[0] for uid in members}
                assert len(benchmarks) >= 2

    def test_medoids_are_members(self, frontiers):
        result = cluster_kernels(frontiers)
        assert len(result.medoid_uids) == 5
        for c, uid in enumerate(result.medoid_uids):
            assert result.labels[uid] == c

    def test_invalid_arguments(self, frontiers):
        with pytest.raises(ValueError):
            cluster_kernels(frontiers, n_clusters=0)
        with pytest.raises(ValueError):
            cluster_kernels(frontiers, n_clusters=len(frontiers) + 1)

    def test_deterministic(self, frontiers):
        a = cluster_kernels(frontiers)
        b = cluster_kernels(frontiers)
        assert a.labels == b.labels
