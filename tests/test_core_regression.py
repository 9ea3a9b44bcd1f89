"""Tests for repro.core.features, characterization, and regression."""

import numpy as np
import pytest

from repro.core import (
    KernelCharacterization,
    characterize_kernels,
    design_row,
    fit_cluster_models,
)
from repro.core.features import power_design_row
from repro.hardware import Device, NoiseModel, TrinityAPU
from repro.profiling import ProfilingLibrary
from repro.workloads import build_suite
from repro.hardware.backend import TRINITY_DESCRIPTOR
from tests.conftest import cpu_config, gpu_config

CPU_SAMPLE, GPU_SAMPLE = TRINITY_DESCRIPTOR.sample_configs()


@pytest.fixture(scope="module")
def library():
    return ProfilingLibrary(TrinityAPU(noise=NoiseModel.exact(), seed=0), seed=0)


@pytest.fixture(scope="module")
def characterizations(library):
    suite = build_suite()
    kernels = suite.for_benchmark("CoMD")[:6]
    return characterize_kernels(library, kernels)


class TestFeatures:
    def test_cpu_design_row_normalized(self):
        row = design_row(cpu_config(3.7, 4))
        np.testing.assert_allclose(row, [1.0, 1.0, 1.0])
        row = design_row(cpu_config(1.4, 1))
        assert row[0] == pytest.approx(1.4 / 3.7)
        assert row[1] == pytest.approx(0.25)
        assert row[2] == pytest.approx(row[0] * row[1])

    def test_gpu_design_row(self):
        row = design_row(gpu_config(0.819, 3.7))
        np.testing.assert_allclose(row, [1.0, 1.0, 1.0])
        row = design_row(gpu_config(0.311, 1.4))
        assert row[0] == pytest.approx(0.311 / 0.819)

    def test_power_design_row_widths(self):
        assert power_design_row(cpu_config(2.4, 2)).shape == (5,)
        assert power_design_row(gpu_config(0.649, 2.4)).shape == (6,)

    def test_power_design_row_voltage_terms_max_one(self):
        row = power_design_row(cpu_config(3.7, 4))
        np.testing.assert_allclose(row, np.ones(5))
        row = power_design_row(gpu_config(0.819, 3.7))
        np.testing.assert_allclose(row, np.ones(6))


class TestCharacterization:
    def test_covers_all_configs(self, characterizations):
        c = characterizations[0]
        assert len(c.measurements) == 42

    def test_sample_accessors(self, characterizations):
        c = characterizations[0]
        assert c.cpu_sample.config == CPU_SAMPLE
        assert c.gpu_sample.config == GPU_SAMPLE

    def test_frontier_derivable(self, characterizations):
        f = characterizations[0].frontier()
        assert len(f) >= 3

    def test_missing_samples_rejected(self, characterizations):
        c = characterizations[0]
        partial = {
            cfg: m for cfg, m in c.measurements.items() if cfg != CPU_SAMPLE
        }
        with pytest.raises(ValueError):
            KernelCharacterization(kernel_uid="x", measurements=partial)
        with pytest.raises(ValueError):
            KernelCharacterization(kernel_uid="x", measurements={})


class TestClusterModels:
    @pytest.fixture(scope="class")
    def models(self, characterizations):
        return fit_cluster_models(characterizations)

    def test_fit_rejects_empty(self):
        with pytest.raises(ValueError):
            fit_cluster_models([])

    def test_fit_rejects_bad_transform(self, characterizations):
        with pytest.raises(ValueError):
            fit_cluster_models(characterizations, transform="sqrt")

    def test_perf_prediction_anchored_at_sample(self, models, characterizations):
        """At the sample configuration the predicted ratio should be
        near 1, so prediction ~ sample performance."""
        c = characterizations[0]
        pred = models.cpu.predict_performance(CPU_SAMPLE, c.cpu_sample.performance)
        assert pred == pytest.approx(c.cpu_sample.performance, rel=0.25)

    def test_power_prediction_accuracy(self, models, characterizations):
        """Trained-on kernels: power predictions within a few percent."""
        for c in characterizations:
            for cfg, m in c.measurements.items():
                s = (c.gpu_sample if cfg.is_gpu else c.cpu_sample).total_power_w
                pred = models.for_device(cfg.device).predict_power(cfg, s)
                assert pred == pytest.approx(m.total_power_w, rel=0.15)

    def test_perf_ranking_quality(self, models, characterizations):
        """The paper's goal: the linear models must *rank* configurations
        well.  Spearman-style check: predicted and true performance
        orderings agree strongly on CPU configurations."""
        from repro.stats import kendall_tau

        c = characterizations[0]
        cpu_cfgs = [cfg for cfg in c.measurements if cfg.device is Device.CPU]
        true = [c.measurements[cfg].performance for cfg in cpu_cfgs]
        pred = [
            models.cpu.predict_performance(cfg, c.cpu_sample.performance)
            for cfg in cpu_cfgs
        ]
        assert kendall_tau(true, pred) > 0.75

    def test_device_mismatch_rejected(self, models):
        with pytest.raises(ValueError):
            models.cpu.predict_performance(gpu_config(0.819, 3.7), 1.0)
        with pytest.raises(ValueError):
            models.gpu.predict_power(cpu_config(1.4, 1), 20.0)

    def test_predict_combined(self, models, characterizations):
        c = characterizations[0]
        cfg = gpu_config(0.649, 2.4)
        pw, pf = models.predict(
            cfg,
            sample_perf_cpu=c.cpu_sample.performance,
            sample_perf_gpu=c.gpu_sample.performance,
            sample_power_cpu_w=c.cpu_sample.total_power_w,
            sample_power_gpu_w=c.gpu_sample.total_power_w,
        )
        assert pw > 0 and pf > 0
        assert pw == pytest.approx(c.measurements[cfg].total_power_w, rel=0.2)

    def test_log_transform_predictions_positive(self, characterizations):
        models = fit_cluster_models(characterizations, transform="log")
        for cfg in (cpu_config(1.4, 1), gpu_config(0.311, 1.4)):
            c = characterizations[0]
            pw, pf = models.predict(
                cfg,
                sample_perf_cpu=c.cpu_sample.performance,
                sample_perf_gpu=c.gpu_sample.performance,
                sample_power_cpu_w=c.cpu_sample.total_power_w,
                sample_power_gpu_w=c.gpu_sample.total_power_w,
            )
            assert pw > 0 and pf > 0

    def test_no_anchor_variant_fits(self, characterizations):
        models = fit_cluster_models(characterizations, power_anchor=False)
        pred = models.cpu.predict_power(cpu_config(2.4, 2), 999.0)
        # Without anchoring, the sample power argument is ignored.
        also = models.cpu.predict_power(cpu_config(2.4, 2), 1.0)
        assert pred == pytest.approx(also)
