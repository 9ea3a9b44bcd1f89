"""Tests for repro.hardware.apu, counters, and noise."""

import numpy as np
import pytest

from repro.hardware import (
    COUNTER_NAMES,
    Measurement,
    NoiseModel,
    TrinityAPU,
    synthesize_counters,
)
from tests.conftest import make_kernel
from tests.conftest import cpu_config, gpu_config


def test_measurement_derived_quantities():
    m = Measurement(
        config=cpu_config(2.4, 2),
        time_s=0.5,
        cpu_plane_w=10.0,
        nbgpu_plane_w=5.0,
    )
    assert m.total_power_w == pytest.approx(15.0)
    assert m.performance == pytest.approx(2.0)


def test_exact_apu_measurements_equal_ground_truth(exact_apu, kernel):
    cfg = cpu_config(2.4, 3)
    m = exact_apu.run(kernel, cfg)
    assert m.time_s == pytest.approx(exact_apu.true_time_s(kernel, cfg))
    assert m.total_power_w == pytest.approx(
        exact_apu.true_total_power_w(kernel, cfg)
    )


def test_noisy_measurements_differ_but_are_close(kernel):
    apu = TrinityAPU(seed=42)
    cfg = cpu_config(2.4, 3)
    truth = apu.true_time_s(kernel, cfg)
    samples = [apu.run(kernel, cfg).time_s for _ in range(50)]
    assert any(abs(s - truth) > 1e-9 for s in samples)
    assert np.mean(samples) == pytest.approx(truth, rel=0.02)
    assert all(abs(s - truth) / truth < 0.15 for s in samples)


def test_noise_is_reproducible_from_seed(kernel):
    cfg = gpu_config(0.649, 1.9)
    a = TrinityAPU(seed=7).run(kernel, cfg)
    b = TrinityAPU(seed=7).run(kernel, cfg)
    assert a.time_s == b.time_s
    assert a.cpu_plane_w == b.cpu_plane_w
    assert a.counters == b.counters


def test_run_rejects_foreign_config(exact_apu, kernel):
    with pytest.raises(ValueError):
        exact_apu.run(kernel, None)  # type: ignore[arg-type]


def test_run_accepts_wrapper_objects(exact_apu, kernel):
    class Wrapper:
        characteristics = kernel

    cfg = cpu_config(1.4, 1)
    assert exact_apu.run(Wrapper(), cfg).time_s == pytest.approx(
        exact_apu.run(kernel, cfg).time_s
    )


def test_run_rejects_non_kernel(exact_apu):
    with pytest.raises(TypeError):
        exact_apu.run("not a kernel", cpu_config(1.4, 1))


def test_run_all_configs_covers_space(exact_apu, kernel):
    ms = exact_apu.run_all_configs(kernel)
    assert len(ms) == 42
    assert len({m.config for m in ms}) == 42


def test_counters_complete_and_finite(kernel):
    for cfg in (cpu_config(2.4, 4), gpu_config(0.819, 1.4)):
        c = synthesize_counters(kernel, cfg)
        assert set(c) == set(COUNTER_NAMES)
        assert all(np.isfinite(v) and v >= 0 for v in c.values())


def test_counters_reflect_memory_boundedness():
    mem = make_kernel(mem_fraction=0.9)
    comp = make_kernel(mem_fraction=0.05)
    cfg = cpu_config(3.7, 4)
    assert (
        synthesize_counters(mem, cfg)["stall_frac"]
        > synthesize_counters(comp, cfg)["stall_frac"]
    )
    assert (
        synthesize_counters(mem, cfg)["ipc"] < synthesize_counters(comp, cfg)["ipc"]
    )


def test_counters_l2_rises_with_thread_sharing(kernel):
    one = synthesize_counters(kernel, cpu_config(2.4, 1))
    four = synthesize_counters(kernel, cpu_config(2.4, 4))
    assert four["l2_miss_per_inst"] > one["l2_miss_per_inst"]


def test_counters_distinguish_devices(kernel):
    cpu = synthesize_counters(kernel, cpu_config(3.7, 1))
    gpu = synthesize_counters(kernel, gpu_config(0.819, 3.7))
    assert gpu["vector_per_inst"] < cpu["vector_per_inst"]
    assert gpu["interrupts_per_mcycle"] > cpu["interrupts_per_mcycle"]


def test_noise_model_validation():
    with pytest.raises(ValueError):
        NoiseModel(time_rel=-0.1)
    with pytest.raises(ValueError):
        NoiseModel(power_rel=0.9)


def test_noise_model_exact_passthrough(kernel):
    apu = TrinityAPU(noise=NoiseModel.exact())
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    for cfg in (cpu_config(3.7, 4), gpu_config(0.819, 3.7)):
        m = apu.run(kernel, cfg, rng=rng)
        assert m.time_s == apu.true_time_s(kernel, cfg)
        pb = apu.true_power(kernel, cfg)
        assert (m.cpu_plane_w, m.nbgpu_plane_w) == (pb.cpu_plane_w, pb.nbgpu_plane_w)
        assert m.counters == apu.true_counters(kernel, cfg)
    assert rng.bit_generator.state == state  # no draws


def test_noise_model_unbiased(kernel):
    apu = TrinityAPU(noise=NoiseModel(time_rel=0.05), seed=1)
    cfg = cpu_config(3.7, 4)
    true_t = apu.true_time_s(kernel, cfg)
    draws = [apu.run(kernel, cfg).time_s / true_t * 10.0 for _ in range(4000)]
    assert np.mean(draws) == pytest.approx(10.0, rel=0.01)
    assert np.std(draws) == pytest.approx(0.5, rel=0.15)
