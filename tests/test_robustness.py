"""Robustness and failure-injection tests.

The modeling pipeline must degrade gracefully, not explode, when its
inputs get ugly: heavy measurement noise, tiny training sets, forced
misclassification, and pathological kernels.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constants import respects_cap
from repro.core import (
    AdaptiveModel,
    ParetoFrontier,
    Scheduler,
    characterize_kernels,
    frontier_dissimilarity,
    train_model,
)
from repro.hardware import (
    FrequencyLimiter,
    NoiseModel,
    TrinityAPU,
    pstates,
)
from repro.profiling import ProfilingLibrary
from repro.stats import kendall_tau
from repro.workloads import build_suite
from tests.conftest import make_kernel
from repro.hardware.backend import TRINITY_DESCRIPTOR
from tests.conftest import cpu_config, gpu_config

CPU_SAMPLE, GPU_SAMPLE = TRINITY_DESCRIPTOR.sample_configs()


class TestHeavyNoise:
    """10x the default measurement noise: accuracy shrinks, nothing breaks."""

    @pytest.fixture(scope="class")
    def noisy_setup(self):
        noise = NoiseModel(time_rel=0.15, power_rel=0.15, counter_rel=0.2)
        apu = TrinityAPU(noise=noise, seed=0)
        library = ProfilingLibrary(apu, seed=0)
        suite = build_suite()
        train = [k for k in suite if k.benchmark != "LU"]
        model = train_model(library, train)
        return apu, library, suite, model

    def test_training_succeeds_under_heavy_noise(self, noisy_setup):
        _, _, _, model = noisy_setup
        assert model.clustering.n_clusters == 5
        assert set(model.cluster_models)  # non-empty

    def test_predictions_remain_usable_rankings(self, noisy_setup):
        apu, library, suite, model = noisy_setup
        k = suite.get("LU/Small/LUDecomposition")
        cpu_m = apu.run(k, CPU_SAMPLE)
        gpu_m = apu.run(k, GPU_SAMPLE)
        pred = model.predict_kernel(cpu_m, gpu_m)
        cfgs = list(pred.predictions)
        predicted = [pred.predictions[c][1] for c in cfgs]
        true = [apu.true_performance(k, c) for c in cfgs]
        # Rankings survive even when magnitudes wobble.
        assert kendall_tau(predicted, true) > 0.5

    def test_scheduler_still_picks_sane_configs(self, noisy_setup):
        apu, library, suite, model = noisy_setup
        k = suite.get("LU/Small/LUDecomposition")
        pred = model.predict_kernel(
            apu.run(k, CPU_SAMPLE), apu.run(k, GPU_SAMPLE)
        )
        decision = Scheduler().select(pred, power_cap_w=15.0)
        # Under a 15 W cap the pick must at least be a CPU config (the
        # GPU floor is far above 15 W even with noisy predictions).
        assert not decision.config.is_gpu


class TestTinyTrainingSet:
    def test_single_benchmark_training_works(self):
        apu = TrinityAPU(seed=0)
        library = ProfilingLibrary(apu, seed=0)
        suite = build_suite()
        model = train_model(
            library, suite.for_benchmark("CoMD"), n_clusters=3
        )
        k = suite.get("LU/Small/LUDecomposition")
        pred = model.predict_kernel(
            apu.run(k, CPU_SAMPLE), apu.run(k, GPU_SAMPLE)
        )
        assert all(
            pw > 0 and pf > 0 for pw, pf in pred.predictions.values()
        )

    def test_two_kernel_training_minimum(self):
        apu = TrinityAPU(noise=NoiseModel.exact(), seed=0)
        library = ProfilingLibrary(apu, seed=0)
        suite = build_suite()
        kernels = suite.for_benchmark("LU")[:2]
        chars = characterize_kernels(library, kernels)
        model = AdaptiveModel.train(chars, n_clusters=1)
        assert model.clustering.n_clusters == 1


class TestForcedMisclassification:
    def test_wrong_cluster_predictions_remain_finite(self):
        """Even applying the *wrong* cluster's models (simulating a tree
        mistake) must produce positive, finite predictions — the
        scheduler can survive a bad cluster, not a NaN."""
        apu = TrinityAPU(seed=0)
        library = ProfilingLibrary(apu, seed=0)
        suite = build_suite()
        model = train_model(library, [k for k in suite if k.benchmark != "LU"])
        k = suite.get("LU/Small/LUDecomposition")
        cpu_m, gpu_m = apu.run(k, CPU_SAMPLE), apu.run(k, GPU_SAMPLE)
        for cluster_id, models in model.cluster_models.items():
            for cfg in apu.config_space:
                pw, pf = models.predict(
                    cfg,
                    sample_perf_cpu=cpu_m.performance,
                    sample_perf_gpu=gpu_m.performance,
                    sample_power_cpu_w=cpu_m.total_power_w,
                    sample_power_gpu_w=gpu_m.total_power_w,
                )
                assert np.isfinite(pw) and pw > 0
                assert np.isfinite(pf) and pf > 0


class TestPathologicalKernels:
    def test_extremely_serial_kernel(self):
        apu = TrinityAPU(noise=NoiseModel.exact())
        k = make_kernel(parallel_fraction=0.0, gpu_affinity=0.01)
        times = [apu.true_time_s(k, c) for c in apu.config_space]
        assert all(np.isfinite(t) and t > 0 for t in times)
        f = ParetoFrontier.from_measurements(apu.run_all_configs(k))
        # A CPU-only frontier: the GPU never wins for this kernel.
        assert all(not p.config.is_gpu for p in f)

    def test_fully_memory_bound_kernel_has_flat_frontier(self):
        apu = TrinityAPU(noise=NoiseModel.exact())
        k = make_kernel(mem_fraction=0.97, gpu_affinity=0.5)
        f = ParetoFrontier.from_measurements(apu.run_all_configs(k))
        span = f.max_performance / f[0].performance
        assert span < 4.0  # barely configuration-sensitive

    def test_single_point_frontier_dissimilarity(self):
        cfg = cpu_config(1.4, 1)
        single = ParetoFrontier.from_arrays([cfg], [10.0], [1.0])
        # Against itself: identical composition, no order info.
        d = frontier_dissimilarity(single, single)
        assert 0.0 <= d <= 1.0


class TestLimiterUnderNoise:
    def test_limiter_converges_with_heavy_noise(self):
        noise = NoiseModel(time_rel=0.1, power_rel=0.2)
        apu = TrinityAPU(noise=noise, seed=1)
        fl = FrequencyLimiter(apu)
        k = make_kernel()
        for cap in (15.0, 20.0, 30.0):
            res = fl.limit_cpu_all_cores(k, cap)
            assert res.final_config in apu.config_space
            assert len(res.trace) <= 7  # at most the P-state ladder + 1

    def test_limiter_noise_can_cause_misjudgement_but_not_crash(self):
        noise = NoiseModel(power_rel=0.3)
        apu = TrinityAPU(noise=noise, seed=2)
        fl = FrequencyLimiter(apu)
        k = make_kernel()
        res = fl.limit(k, gpu_config(0.819, 3.7), 25.0)
        assert res.final_config.device.value in ("cpu", "gpu")


class TestLimiterProperties:
    """Hypothesis properties of the frequency-limiting control loop."""

    @settings(max_examples=40, deadline=None)
    @given(
        cap=st.floats(min_value=5.0, max_value=60.0),
        seed=st.integers(min_value=0, max_value=2**16),
        ci=st.integers(min_value=0, max_value=5),
        n_threads=st.integers(min_value=1, max_value=4),
    )
    def test_cpu_limit_terminates_within_ladder_depth(
        self, cap, seed, ci, n_threads
    ):
        """The loop can only walk *down* from the start P-state: at most
        ``ci`` steps, then it must stop — whatever the noise does."""
        apu = TrinityAPU(seed=0)
        start = cpu_config(pstates.CPU_FREQS_GHZ[ci], n_threads)
        res = FrequencyLimiter(apu).limit(
            make_kernel(), start, cap, rng=np.random.default_rng(seed)
        )
        assert len(res.trace) <= 1 + ci
        assert res.final_config in apu.config_space
        assert not res.final_config.is_gpu  # never changes device

    @settings(max_examples=40, deadline=None)
    @given(
        cap=st.floats(min_value=5.0, max_value=60.0),
        seed=st.integers(min_value=0, max_value=2**16),
        gi=st.integers(min_value=0, max_value=2),
        ci=st.integers(min_value=0, max_value=5),
    )
    def test_gpu_limit_terminates_within_both_ladders(self, cap, seed, gi, ci):
        apu = TrinityAPU(seed=0)
        start = gpu_config(
            pstates.GPU_FREQS_GHZ[gi], pstates.CPU_FREQS_GHZ[ci]
        )
        res = FrequencyLimiter(apu).limit(
            make_kernel(), start, cap, rng=np.random.default_rng(seed)
        )
        # GPU ladder first, then the host CPU ladder.
        assert len(res.trace) <= 1 + gi + ci
        assert res.final_config.is_gpu

    @settings(max_examples=30, deadline=None)
    @given(
        cap=st.floats(min_value=5.0, max_value=60.0),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_headroom_policy_bounded_by_ladder_sum(self, cap, seed):
        apu = TrinityAPU(seed=0)
        res = FrequencyLimiter(apu).limit_gpu_with_headroom(
            make_kernel(), cap, rng=np.random.default_rng(seed)
        )
        # Down both ladders (<= 8 readings), then the host steps back up
        # through at most the 5 remaining CPU states.
        assert len(res.trace) <= 13

    @settings(max_examples=40, deadline=None)
    @given(
        cap=st.floats(min_value=5.0, max_value=60.0),
        ci=st.integers(min_value=0, max_value=5),
        n_threads=st.integers(min_value=1, max_value=4),
    )
    def test_zero_noise_never_settles_above_cap(self, cap, ci, n_threads):
        """Under an exact noise model, observations equal ground truth,
        so ``met_cap`` means the settled configuration genuinely
        respects the cap — and a miss means the ladder floor."""
        apu = TrinityAPU(noise=NoiseModel.exact(), seed=0)
        start = cpu_config(pstates.CPU_FREQS_GHZ[ci], n_threads)
        res = FrequencyLimiter(apu).limit(make_kernel(), start, cap)
        if res.met_cap:
            assert respects_cap(res.final_measurement.total_power_w, cap)
        else:
            assert res.final_config.cpu_freq_ghz == pstates.CPU_FREQS_GHZ[0]

    @settings(max_examples=25, deadline=None)
    @given(
        cap=st.floats(min_value=5.0, max_value=60.0),
        seed=st.integers(min_value=0, max_value=2**16),
        ci=st.integers(min_value=0, max_value=5),
    )
    def test_deterministic_for_fixed_generator_seed(self, cap, seed, ci):
        k = make_kernel()
        start = cpu_config(pstates.CPU_FREQS_GHZ[ci], 4)
        results = [
            FrequencyLimiter(TrinityAPU(seed=0)).limit(
                k, start, cap, rng=np.random.default_rng(seed)
            )
            for _ in range(2)
        ]
        assert results[0].trace == results[1].trace
        assert results[0].final_config == results[1].final_config
        assert results[0].met_cap == results[1].met_cap
