"""Tests for trained-model persistence (repro.core.io)."""

import numpy as np
import pytest

from repro.core import (
    load_model,
    model_from_json,
    model_to_json,
    save_model,
    train_model,
)
from repro.hardware import TrinityAPU
from repro.profiling import ProfilingLibrary
from repro.workloads import build_suite
from repro.hardware.backend import TRINITY_DESCRIPTOR

CPU_SAMPLE, GPU_SAMPLE = TRINITY_DESCRIPTOR.sample_configs()


@pytest.fixture(scope="module")
def trained():
    apu = TrinityAPU(seed=0)
    library = ProfilingLibrary(apu, seed=0)
    suite = build_suite()
    train = [k for k in suite if k.benchmark != "LU"]
    return apu, suite, train_model(library, train)


class TestModelPersistence:
    def test_roundtrip_preserves_clustering(self, trained):
        _, _, model = trained
        restored = model_from_json(model_to_json(model))
        assert restored.clustering.labels == dict(model.clustering.labels)
        assert restored.clustering.n_clusters == model.clustering.n_clusters
        assert restored.clustering.medoid_uids == model.clustering.medoid_uids
        assert restored.clustering.silhouette == pytest.approx(
            model.clustering.silhouette
        )

    def test_roundtrip_preserves_coefficients(self, trained):
        _, _, model = trained
        restored = model_from_json(model_to_json(model))
        for cid, cm in model.cluster_models.items():
            rcm = restored.cluster_models[cid]
            np.testing.assert_allclose(
                rcm.cpu.perf_ratio.coef, cm.cpu.perf_ratio.coef
            )
            np.testing.assert_allclose(rcm.gpu.power.coef, cm.gpu.power.coef)
            assert rcm.cpu.transform == cm.cpu.transform
            assert rcm.cpu.power_anchor == cm.cpu.power_anchor

    def test_roundtrip_preserves_predictions(self, trained):
        """The load-bearing property: a restored model predicts exactly
        what the original predicts, including uncertainties."""
        apu, suite, model = trained
        restored = model_from_json(model_to_json(model))
        k = suite.get("LU/Small/LUDecomposition")
        cpu_m = apu.run(k, CPU_SAMPLE)
        gpu_m = apu.run(k, GPU_SAMPLE)
        a = model.predict_kernel(cpu_m, gpu_m, with_uncertainty=True)
        b = restored.predict_kernel(cpu_m, gpu_m, with_uncertainty=True)
        assert a.cluster == b.cluster
        for cfg in a.predictions:
            assert a.predictions[cfg] == pytest.approx(b.predictions[cfg])
            assert a.uncertainties[cfg] == pytest.approx(b.uncertainties[cfg])

    def test_roundtrip_preserves_tree_rendering(self, trained):
        _, _, model = trained
        restored = model_from_json(model_to_json(model))
        assert restored.classifier.render() == model.classifier.render()

    def test_file_roundtrip(self, trained, tmp_path):
        _, _, model = trained
        path = tmp_path / "model.json"
        save_model(model, path)
        restored = load_model(path)
        assert restored.clustering.labels == dict(model.clustering.labels)

    def test_version_check(self):
        with pytest.raises(ValueError):
            model_from_json('{"version": 999}')

    def test_log_transform_model_roundtrips(self):
        apu = TrinityAPU(seed=1)
        library = ProfilingLibrary(apu, seed=1)
        suite = build_suite()
        model = train_model(
            library, suite.for_benchmark("CoMD"), n_clusters=2, transform="log"
        )
        restored = model_from_json(model_to_json(model))
        k = suite.get("LU/Small/LUDecomposition")
        cpu_m, gpu_m = apu.run(k, CPU_SAMPLE), apu.run(k, GPU_SAMPLE)
        a = model.predict_kernel(cpu_m, gpu_m)
        b = restored.predict_kernel(cpu_m, gpu_m)
        for cfg in a.predictions:
            assert a.predictions[cfg] == pytest.approx(b.predictions[cfg])
