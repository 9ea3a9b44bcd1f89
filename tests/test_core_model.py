"""Tests for the assembled AdaptiveModel, classifier, predictor, scheduler."""

import numpy as np
import pytest

from repro.core import (
    AdaptiveModel,
    ClusterClassifier,
    OnlinePredictor,
    Scheduler,
    characterize_kernels,
    sample_features,
    train_model,
)
from repro.core.classifier import SAMPLE_FEATURE_NAMES
from repro.hardware import NoiseModel, TrinityAPU
from repro.profiling import ProfilingLibrary
from repro.workloads import build_suite
from repro.hardware.backend import TRINITY_DESCRIPTOR

CPU_SAMPLE, GPU_SAMPLE = TRINITY_DESCRIPTOR.sample_configs()


@pytest.fixture(scope="module")
def setup():
    """A trained model (LU held out) plus the shared machinery."""
    apu = TrinityAPU(seed=0)
    library = ProfilingLibrary(apu, seed=0)
    suite = build_suite()
    train = [k for k in suite if k.benchmark != "LU"]
    model = train_model(library, train)
    return apu, library, suite, model


class TestClassifier:
    def test_feature_vector_shape(self, setup):
        apu, library, suite, model = setup
        k = suite.get("LU/Small/LUDecomposition")
        cpu_m = apu.run(k, CPU_SAMPLE)
        gpu_m = apu.run(k, GPU_SAMPLE)
        feats = sample_features(cpu_m, gpu_m)
        assert feats.shape == (len(SAMPLE_FEATURE_NAMES),)
        assert np.all(np.isfinite(feats))

    def test_unfitted_raises(self, setup):
        apu, library, suite, model = setup
        k = suite.get("LU/Small/LUDecomposition")
        clf = ClusterClassifier()
        with pytest.raises(RuntimeError):
            clf.predict(apu.run(k, CPU_SAMPLE), apu.run(k, GPU_SAMPLE))
        with pytest.raises(RuntimeError):
            clf.render()

    def test_fit_validation(self, setup):
        apu, library, suite, model = setup
        lib = ProfilingLibrary(TrinityAPU(noise=NoiseModel.exact()), seed=0)
        [c] = characterize_kernels(lib, [suite.get("LU/Small/LUDecomposition")])
        clf = ClusterClassifier()
        with pytest.raises(ValueError):
            clf.fit([c], [0, 1])
        with pytest.raises(ValueError):
            clf.fit([], [])

    def test_training_accuracy_reasonable(self, setup):
        """The tree should recover most training kernels' clusters from
        sample-run features alone."""
        apu, library, suite, model = setup
        lib = ProfilingLibrary(TrinityAPU(noise=NoiseModel.exact(), seed=3), seed=3)
        train = [k for k in suite if k.benchmark != "LU"]
        chars = characterize_kernels(lib, train)
        labels = [model.clustering.labels[c.kernel_uid] for c in chars]
        clf = ClusterClassifier().fit(chars, labels)
        correct = sum(
            clf.predict(c.cpu_sample, c.gpu_sample) == lab
            for c, lab in zip(chars, labels)
        )
        assert correct / len(chars) > 0.7

    def test_render_is_figure3_style(self, setup):
        _, _, _, model = setup
        text = model.classifier.render()
        assert "cluster" in text
        assert "<=" in text


class TestAdaptiveModel:
    def test_training_produces_models_per_cluster(self, setup):
        _, _, _, model = setup
        assert set(model.cluster_models) == set(
            range(model.clustering.n_clusters)
        ) & set(model.cluster_models)
        for cluster_id, sz in enumerate(model.clustering.sizes()):
            if sz > 0:
                assert cluster_id in model.cluster_models

    def test_train_rejects_empty_and_duplicates(self, setup):
        apu, library, suite, model = setup
        with pytest.raises(ValueError):
            AdaptiveModel.train([])
        lib = ProfilingLibrary(TrinityAPU(noise=NoiseModel.exact()), seed=0)
        [c] = characterize_kernels(lib, [suite.get("LU/Small/LUDecomposition")])
        with pytest.raises(ValueError):
            AdaptiveModel.train([c, c], n_clusters=1)

    def test_predict_kernel_covers_space(self, setup):
        apu, library, suite, model = setup
        k = suite.get("LU/Medium/LUDecomposition")
        pred = model.predict_kernel(
            apu.run(k, CPU_SAMPLE), apu.run(k, GPU_SAMPLE), kernel_uid=k.uid
        )
        assert len(pred.predictions) == 42
        assert pred.kernel_uid == k.uid
        assert 0 <= pred.cluster < model.clustering.n_clusters
        for pw, pf in pred.predictions.values():
            assert pw > 0 and pf > 0

    def test_predicted_frontier_nonempty(self, setup):
        apu, library, suite, model = setup
        k = suite.get("LU/Small/LUDecomposition")
        pred = model.predict_kernel(apu.run(k, CPU_SAMPLE), apu.run(k, GPU_SAMPLE))
        f = pred.predicted_frontier()
        assert len(f) >= 3
        assert f.min_power_w < 20.0  # frontier reaches down to CPU configs

    def test_held_out_prediction_accuracy(self, setup):
        """Leave-LU-out: predictions for LU kernels stay within loose
        relative-error bounds (this is the paper's central claim)."""
        apu, library, suite, model = setup
        predictor = OnlinePredictor(model, library)
        for uid in ("LU/Small/LUDecomposition", "LU/Large/LUDecomposition"):
            k = suite.get(uid)
            pred = predictor.predict(k)
            perr, terr = [], []
            for cfg in apu.config_space:
                pw, pf = pred.predictions[cfg]
                perr.append(
                    abs(pw - apu.true_total_power_w(k, cfg))
                    / apu.true_total_power_w(k, cfg)
                )
                terr.append(
                    abs(pf - apu.true_performance(k, cfg))
                    / apu.true_performance(k, cfg)
                )
            assert np.mean(perr) < 0.10
            assert np.mean(terr) < 0.35


class TestOnlinePredictor:
    def test_sample_runs_recorded_in_history(self, setup):
        apu, _, suite, model = setup
        lib = ProfilingLibrary(apu, seed=9)
        predictor = OnlinePredictor(model, lib)
        k = suite.get("LU/Small/LUDecomposition")
        predictor.predict(k)
        assert lib.database.iterations(k.uid) == 2
        profiles = lib.database.for_kernel(k.uid)
        assert profiles[0].config == CPU_SAMPLE
        assert profiles[1].config == GPU_SAMPLE


class TestScheduler:
    def _prediction(self, setup, uid="LU/Small/LUDecomposition"):
        apu, library, suite, model = setup
        k = suite.get(uid)
        return model.predict_kernel(
            apu.run(k, CPU_SAMPLE), apu.run(k, GPU_SAMPLE), kernel_uid=k.uid
        )

    def test_select_respects_predicted_cap(self, setup):
        pred = self._prediction(setup)
        decision = Scheduler().select(pred, power_cap_w=15.0)
        assert decision.predicted_power_w <= 15.0
        assert decision.predicted_feasible

    def test_select_maximizes_predicted_perf(self, setup):
        pred = self._prediction(setup)
        decision = Scheduler().select(pred, power_cap_w=25.0)
        feasible = [
            pf for pw, pf in pred.predictions.values() if pw <= 25.0
        ]
        assert decision.predicted_performance == pytest.approx(max(feasible))

    def test_unreachable_cap_falls_back_to_min_power(self, setup):
        pred = self._prediction(setup)
        decision = Scheduler().select(pred, power_cap_w=1.0)
        assert not decision.predicted_feasible
        assert decision.predicted_power_w == pytest.approx(
            min(pw for pw, _ in pred.predictions.values())
        )

    def test_goals_differ(self, setup):
        pred = self._prediction(setup)
        perf = Scheduler("performance").select(pred, power_cap_w=40.0)
        energy = Scheduler("energy").select(pred, power_cap_w=40.0)
        # Energy goal never picks a higher-energy config than the perf goal.
        e_perf = perf.predicted_power_w / perf.predicted_performance
        e_energy = energy.predicted_power_w / energy.predicted_performance
        assert e_energy <= e_perf + 1e-9

    def test_edp_goal_valid(self, setup):
        pred = self._prediction(setup)
        decision = Scheduler("edp").select(pred, power_cap_w=40.0)
        assert decision.predicted_feasible

    def test_risk_margin_tightens_cap(self, setup):
        pred = self._prediction(setup)
        loose = Scheduler().select(pred, power_cap_w=25.0)
        tight = Scheduler().select(pred, power_cap_w=25.0, risk_margin=0.2)
        assert tight.predicted_power_w <= 25.0 * 0.8 + 1e-9
        assert tight.predicted_performance <= loose.predicted_performance + 1e-9

    def test_invalid_arguments(self, setup):
        pred = self._prediction(setup)
        with pytest.raises(ValueError):
            Scheduler("speed")
        with pytest.raises(ValueError):
            Scheduler().select(pred, power_cap_w=0.0)
        with pytest.raises(ValueError):
            Scheduler().select(pred, power_cap_w=10.0, risk_margin=1.0)
