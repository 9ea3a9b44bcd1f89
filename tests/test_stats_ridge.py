"""Tests for ridge regularization in the OLS substrate and its plumbing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import characterize_kernels, fit_cluster_models, AdaptiveModel
from repro.hardware import NoiseModel, TrinityAPU
from repro.profiling import ProfilingLibrary
from repro.stats import fit_ols
from repro.workloads import build_suite
from tests.conftest import cpu_config


class TestRidgeOLS:
    def test_zero_ridge_equals_plain_ols(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(30, 3))
        y = rng.normal(size=30)
        a = fit_ols(X, y, ridge=0.0)
        b = fit_ols(X, y)
        np.testing.assert_allclose(a.coef, b.coef)

    def test_ridge_shrinks_coefficients(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(40, 4))
        y = X @ np.array([3.0, -2.0, 1.0, 0.5]) + rng.normal(scale=0.1, size=40)
        plain = fit_ols(X, y, intercept=False)
        shrunk = fit_ols(X, y, intercept=False, ridge=50.0)
        assert np.linalg.norm(shrunk.coef) < np.linalg.norm(plain.coef)

    def test_intercept_not_penalized(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(200, 1))
        y = 100.0 + 0.1 * X[:, 0] + rng.normal(scale=0.01, size=200)
        heavy = fit_ols(X, y, ridge=1e4)
        # Slope crushed toward 0; intercept still recovers the mean.
        assert abs(heavy.coef[1]) < 0.05
        assert heavy.coef[0] == pytest.approx(100.0, abs=1.0)

    def test_ridge_stabilizes_collinear_design(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=60)
        X = np.column_stack([x, x + rng.normal(scale=1e-8, size=60)])
        y = x + rng.normal(scale=0.1, size=60)
        shrunk = fit_ols(X, y, intercept=False, ridge=1.0)
        # Penalized solution splits weight between the twins instead of
        # exploding in opposite directions.
        assert np.all(np.abs(shrunk.coef) < 2.0)

    def test_negative_ridge_rejected(self):
        with pytest.raises(ValueError):
            fit_ols(np.ones((3, 1)), np.ones(3), ridge=-1.0)

    @settings(max_examples=40, deadline=None)
    @given(
        st.floats(min_value=0.0, max_value=100.0),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_property_ridge_monotone_shrinkage(self, lam, seed):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(25, 2))
        y = rng.normal(size=25)
        base = np.linalg.norm(fit_ols(X, y, intercept=False).coef)
        shrunk = np.linalg.norm(
            fit_ols(X, y, intercept=False, ridge=lam).coef
        )
        assert shrunk <= base + 1e-9


class TestRidgePlumbing:
    @pytest.fixture(scope="class")
    def chars(self):
        apu = TrinityAPU(noise=NoiseModel.exact(), seed=0)
        library = ProfilingLibrary(apu, seed=0)
        suite = build_suite()
        return characterize_kernels(library, suite.for_benchmark("LU"))

    def test_cluster_models_accept_ridge(self, chars):
        plain = fit_cluster_models(chars)
        shrunk = fit_cluster_models(chars, ridge=5.0)
        assert np.linalg.norm(shrunk.cpu.perf_ratio.coef) < np.linalg.norm(
            plain.cpu.perf_ratio.coef
        ) + 1e-9
        # Predictions still sane.
        p = shrunk.cpu.predict_power(cpu_config(2.4, 2), 25.0)
        assert 5.0 < p < 60.0

    def test_adaptive_model_accepts_ridge(self, chars):
        model = AdaptiveModel.train(chars, n_clusters=1, ridge=2.0)
        assert model.clustering.n_clusters == 1
