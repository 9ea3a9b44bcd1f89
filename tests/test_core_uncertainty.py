"""Tests for prediction uncertainty and risk-averse scheduling (paper §VI)."""

import numpy as np
import pytest

from repro.core import (
    Scheduler,
    train_model,
)
from repro.hardware import TrinityAPU
from repro.profiling import ProfilingLibrary
from repro.stats import fit_ols
from repro.workloads import build_suite
from repro.hardware.backend import TRINITY_DESCRIPTOR

CPU_SAMPLE, GPU_SAMPLE = TRINITY_DESCRIPTOR.sample_configs()


class TestOLSPredictionStd:
    def test_noiseless_fit_gives_zero_std(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(30, 2))
        y = 1.0 + X @ np.array([2.0, -1.0])
        model = fit_ols(X, y)
        std = model.predict_std(X[:5])
        np.testing.assert_allclose(std, 0.0, atol=1e-6)

    def test_noisy_fit_std_near_noise_level(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(500, 2))
        y = X @ np.array([1.0, 1.0]) + rng.normal(scale=0.5, size=500)
        model = fit_ols(X, y)
        std = model.predict_std(np.zeros((1, 2)))
        assert std[0] == pytest.approx(0.5, rel=0.15)

    def test_extrapolation_increases_std(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(50, 1))
        y = 2.0 * X[:, 0] + rng.normal(scale=0.3, size=50)
        model = fit_ols(X, y)
        near = model.predict_std(np.array([[0.0]]))[0]
        far = model.predict_std(np.array([[25.0]]))[0]
        assert far > near

    def test_zero_dof_gives_nan(self):
        # Two points, two parameters (slope+intercept): no residual dof.
        model = fit_ols(np.array([[1.0], [2.0]]), np.array([1.0, 2.0]))
        assert np.all(np.isnan(model.predict_std(np.array([[1.5]]))))

    def test_width_check(self):
        model = fit_ols(np.arange(12, dtype=float).reshape(6, 2), np.arange(6.0))
        with pytest.raises(ValueError):
            model.predict_std(np.zeros((1, 5)))


@pytest.fixture(scope="module")
def setup():
    apu = TrinityAPU(seed=0)
    library = ProfilingLibrary(apu, seed=0)
    suite = build_suite()
    train = [k for k in suite if k.benchmark != "LU"]
    model = train_model(library, train)
    kernel = suite.get("LU/Small/LUDecomposition")
    cpu_m = apu.run(kernel, CPU_SAMPLE)
    gpu_m = apu.run(kernel, GPU_SAMPLE)
    return apu, model, kernel, cpu_m, gpu_m


class TestPredictionUncertainty:
    def test_uncertainty_absent_by_default(self, setup):
        _, model, kernel, cpu_m, gpu_m = setup
        pred = model.predict_kernel(cpu_m, gpu_m)
        assert pred.uncertainties is None

    def test_uncertainty_covers_space(self, setup):
        _, model, kernel, cpu_m, gpu_m = setup
        pred = model.predict_kernel(cpu_m, gpu_m, with_uncertainty=True)
        assert set(pred.uncertainties) == set(pred.predictions)
        for pw_std, pf_std in pred.uncertainties.values():
            assert pw_std >= 0 and pf_std >= 0
            assert np.isfinite(pw_std) and np.isfinite(pf_std)

    def test_uncertainty_magnitudes_sane(self, setup):
        """Power std should be watts-scale small; perf std a fraction of
        the predicted performance."""
        _, model, kernel, cpu_m, gpu_m = setup
        pred = model.predict_kernel(cpu_m, gpu_m, with_uncertainty=True)
        for cfg, (pw, pf) in pred.predictions.items():
            pw_std, pf_std = pred.uncertainties[cfg]
            assert pw_std < 0.3 * pw
            assert pf_std < 1.5 * pf

    def test_mismatched_uncertainty_keys_rejected(self, setup):
        _, model, kernel, cpu_m, gpu_m = setup
        pred = model.predict_kernel(cpu_m, gpu_m, with_uncertainty=True)
        from repro.core import KernelPrediction

        bad = dict(list(pred.uncertainties.items())[:-1])
        with pytest.raises(ValueError):
            KernelPrediction(
                kernel_uid=pred.kernel_uid,
                cluster=pred.cluster,
                predictions=pred.predictions,
                cpu_sample=cpu_m,
                gpu_sample=gpu_m,
                uncertainties=bad,
            )


class TestRiskAverseScheduling:
    def test_requires_uncertainty(self, setup):
        _, model, kernel, cpu_m, gpu_m = setup
        pred = model.predict_kernel(cpu_m, gpu_m)
        with pytest.raises(ValueError):
            Scheduler().select(pred, 20.0, risk_averse=True)

    def test_risk_averse_is_no_bolder(self, setup):
        """Risk-averse feasibility (power upper bound) never accepts a
        configuration the plain selection would call infeasible."""
        _, model, kernel, cpu_m, gpu_m = setup
        pred = model.predict_kernel(cpu_m, gpu_m, with_uncertainty=True)
        sched = Scheduler()
        for cap in (14.0, 18.0, 24.0, 30.0):
            plain = sched.select(pred, cap)
            averse = sched.select(pred, cap, risk_averse=True, confidence_z=2.0)
            if averse.predicted_feasible:
                assert averse.predicted_power_w <= cap

    def test_risk_averse_reduces_true_violations(self, setup):
        """Across the oracle-cap protocol for the kernel, risk-averse
        selection should violate true power caps no more often."""
        apu, model, kernel, cpu_m, gpu_m = setup
        pred = model.predict_kernel(cpu_m, gpu_m, with_uncertainty=True)
        sched = Scheduler()
        caps = np.linspace(12.0, 32.0, 15)

        def violations(**kw):
            count = 0
            for cap in caps:
                cfg = sched.select(pred, float(cap), **kw).config
                if apu.true_total_power_w(kernel, cfg) > cap:
                    count += 1
            return count

        assert violations(risk_averse=True, confidence_z=2.0) <= violations()

    def test_confidence_z_validation(self, setup):
        _, model, kernel, cpu_m, gpu_m = setup
        pred = model.predict_kernel(cpu_m, gpu_m, with_uncertainty=True)
        with pytest.raises(ValueError):
            Scheduler().select(pred, 20.0, risk_averse=True, confidence_z=-1.0)

    def test_zero_z_equals_plain(self, setup):
        _, model, kernel, cpu_m, gpu_m = setup
        pred = model.predict_kernel(cpu_m, gpu_m, with_uncertainty=True)
        sched = Scheduler()
        for cap in (15.0, 22.0, 28.0):
            a = sched.select(pred, cap)
            b = sched.select(pred, cap, risk_averse=True, confidence_z=0.0)
            assert a.config == b.config
