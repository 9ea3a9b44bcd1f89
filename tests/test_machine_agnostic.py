"""The pipeline's machine-facing callers run on every backend.

Configurations of every machine share one type, built and enumerated by
the machine's descriptor, so hill climbing, the adaptive runtime and
model files read samples and ladders from the descriptor instead of
assuming Trinity's.  Each test here runs
on trinity, biglittle and mpsoc.
"""

from decimal import Decimal

import numpy as np
import pytest

from repro.core import OnlinePredictor, Scheduler, model_from_json, model_to_json
from repro.core import train_model
from repro.hardware import Device, NoiseModel
from repro.hardware.backend import TRINITY_DESCRIPTOR, create_backend
from repro.methods import HillClimbing, ModelMethod, Oracle
from repro.methods.search import _neighbours
from repro.profiling import ProfilingLibrary
from repro.runtime import AdaptiveRuntime, Application
from repro.workloads import build_suite

BACKENDS = ("trinity", "biglittle", "mpsoc")


@pytest.fixture(scope="module")
def suite():
    return build_suite()


@pytest.fixture(scope="module", params=BACKENDS)
def trained(request, suite):
    """A machine and a model trained on it without the LU benchmark."""
    apu = create_backend(request.param, seed=0)
    library = ProfilingLibrary(apu, seed=0)
    model = train_model(library, [k for k in suite if k.benchmark != "LU"])
    return apu, model


class TestHillClimbing:
    @pytest.mark.parametrize("name", BACKENDS)
    def test_decides_inside_the_machine_space(self, name, suite):
        apu = create_backend(name, noise=NoiseModel.exact(), seed=0)
        kernel = suite.get("LU/Small/LUDecomposition")
        method = HillClimbing(apu)
        oracle = Oracle(apu)
        runs = 0
        for cap in oracle.caps_for(kernel):
            decision = method.decide(kernel, cap)
            assert decision.config in apu.config_space
            runs += decision.online_runs  # measurements are reused across caps
        assert 1 <= runs <= len(apu.config_space)

    @pytest.mark.parametrize("name", BACKENDS)
    def test_neighbours_change_one_knob_inside_the_space(self, name):
        d = create_backend(name).descriptor
        space = set(d.enumerate_configs())
        for cfg in d.enumerate_configs():
            moves = _neighbours(cfg)
            assert moves and set(moves) <= space and cfg not in moves
            for nb in moves:
                if nb.device is cfg.device:
                    changed = [
                        a
                        for a in ("cpu_freq_ghz", "n_threads", "gpu_freq_ghz")
                        if getattr(nb, a) != getattr(cfg, a)
                    ]
                    assert len(changed) == 1

    def test_trinity_neighbours_are_the_paper_search_graph(self):
        """The generic moves equal the original P-state-index moves."""
        d = TRINITY_DESCRIPTOR
        cpu_f, gpu_f = d.primary.freqs_ghz, d.secondary.freqs_ghz

        def cpu(f, n):
            return d.config(Device.CPU, f, n, gpu_f[0])

        def gpu(g, f):
            return d.config(Device.GPU, f, 1, g)

        def reference(cfg):
            ci = cpu_f.index(cfg.cpu_freq_ghz)
            if not cfg.is_gpu:
                out = [cpu(cpu_f[ci + di], cfg.n_threads)
                       for di in (-1, 1) if 0 <= ci + di < len(cpu_f)]
                out += [cpu(cfg.cpu_freq_ghz, cfg.n_threads + dn)
                        for dn in (-1, 1) if 1 <= cfg.n_threads + dn <= 4]
                return out + [gpu(gpu_f[0], cfg.cpu_freq_ghz)]
            gi = gpu_f.index(cfg.gpu_freq_ghz)
            out = [gpu(gpu_f[gi + dg], cfg.cpu_freq_ghz)
                   for dg in (-1, 1) if 0 <= gi + dg < len(gpu_f)]
            out += [gpu(cfg.gpu_freq_ghz, cpu_f[ci + di])
                    for di in (-1, 1) if 0 <= ci + di < len(cpu_f)]
            return out + [cpu(cfg.cpu_freq_ghz, 1)]

        for cfg in d.enumerate_configs():
            assert _neighbours(cfg) == reference(cfg)


class TestAdaptiveRuntime:
    def test_samples_then_schedules_on_the_machine(self, trained, suite):
        apu, model = trained
        app = Application.from_suite(suite, "LU Small")
        runtime = AdaptiveRuntime(model, ProfilingLibrary(apu, seed=5))
        trace = runtime.run(app, n_timesteps=4, power_cap_w=15.0)
        phases = [e.phase for e in trace.executions]
        assert phases == ["sample-cpu", "sample-gpu", "scheduled", "scheduled"]
        cpu_sample, gpu_sample = apu.descriptor.sample_configs()
        assert trace.executions[0].config == cpu_sample
        assert trace.executions[1].config == gpu_sample
        assert all(e.config in apu.config_space for e in trace.executions)


class TestPersistence:
    def test_model_round_trip_keeps_space_and_predictions(
        self, trained, suite, tmp_path
    ):
        apu, model = trained
        restored = model_from_json(model_to_json(model))
        assert tuple(restored.config_space) == tuple(model.config_space)
        assert restored.config_space.descriptor is apu.descriptor
        kernel = suite.get("LU/Small/LUDecomposition")
        a = OnlinePredictor(model, ProfilingLibrary(apu, seed=3)).predict(kernel)
        b = OnlinePredictor(restored, ProfilingLibrary(apu, seed=3)).predict(kernel)
        assert a.cluster == b.cluster
        assert a.config_tuple == b.config_tuple
        assert np.array_equal(a.power_array, b.power_array)
        assert np.array_equal(a.performance_array, b.performance_array)

    def test_version_one_model_files_are_rejected(self, trained):
        _, model = trained
        text = model_to_json(model).replace('"version": 2', '"version": 1')
        with pytest.raises(ValueError, match="unsupported model version: 1"):
            model_from_json(text)


def test_scheduler_select_coerces_its_cap_with_float(suite):
    apu = create_backend("trinity", seed=0)
    library = ProfilingLibrary(apu, seed=0)
    model = train_model(library, suite.for_benchmark("CoMD"), n_clusters=2)
    method = ModelMethod(model, library)
    kernel = suite.get("LU/Small/LUDecomposition")
    for cap in (Decimal("2"), Decimal("18.5"), np.float32(18.5)):
        assert method.decide(kernel, cap) == method.decide(kernel, float(cap))
    prediction = method.prediction_for(kernel)
    with pytest.raises(ValueError, match="must be positive"):
        Scheduler().select(prediction, Decimal("0"))
