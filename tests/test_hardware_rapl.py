"""Tests for repro.hardware.rapl (frequency limiter)."""

import pytest

from repro.hardware import (
    CPU_MIN_FREQ_GHZ,
    GPU_MIN_FREQ_GHZ,
    Device,
    FrequencyLimiter,
)
from tests.conftest import make_kernel
from tests.conftest import cpu_config, gpu_config


def test_no_action_when_already_under_cap(exact_apu, kernel):
    fl = FrequencyLimiter(exact_apu)
    start = cpu_config(1.4, 1)
    res = fl.limit(kernel, start, power_cap_w=50.0)
    assert res.final_config == start
    assert res.met_cap
    assert len(res.trace) == 1  # one reading, no step


def test_steps_down_cpu_until_under_cap(exact_apu, kernel):
    fl = FrequencyLimiter(exact_apu)
    start = cpu_config(3.7, 4)
    p_start = exact_apu.true_total_power_w(kernel, start)
    cap = p_start - 10.0
    res = fl.limit(kernel, start, cap)
    assert res.met_cap
    assert res.final_config.cpu_freq_ghz < 3.7
    assert res.final_config.n_threads == 4  # never touches thread count
    assert res.final_config.device is Device.CPU
    # Minimality: one step back up would violate the cap.
    assert len(res.trace) >= 2
    prev_cfg, prev_power = res.trace[-2]
    assert prev_power > cap


def test_reports_failure_at_cpu_floor(exact_apu, kernel):
    fl = FrequencyLimiter(exact_apu)
    res = fl.limit(kernel, cpu_config(3.7, 4), power_cap_w=5.0)
    assert not res.met_cap
    assert res.final_config.cpu_freq_ghz == pytest.approx(CPU_MIN_FREQ_GHZ)


def test_gpu_limit_steps_gpu_then_host(exact_apu, kernel):
    fl = FrequencyLimiter(exact_apu)
    start = gpu_config(0.819, 3.7)
    # Cap below GPU floor with high host freq but above absolute GPU floor.
    floor = exact_apu.true_total_power_w(
        kernel, gpu_config(GPU_MIN_FREQ_GHZ, CPU_MIN_FREQ_GHZ)
    )
    res = fl.limit(kernel, start, power_cap_w=floor + 0.5)
    assert res.met_cap
    assert res.final_config.device is Device.GPU
    assert res.final_config.gpu_freq_ghz == pytest.approx(GPU_MIN_FREQ_GHZ)


def test_gpu_limit_cannot_switch_device(exact_apu, kernel):
    fl = FrequencyLimiter(exact_apu)
    res = fl.limit(kernel, gpu_config(0.819, 3.7), power_cap_w=12.0)
    assert not res.met_cap  # GPU floor >> 12 W; limiter is stuck on GPU
    assert res.final_config.device is Device.GPU
    assert res.final_config.gpu_freq_ghz == pytest.approx(GPU_MIN_FREQ_GHZ)
    assert res.final_config.cpu_freq_ghz == pytest.approx(CPU_MIN_FREQ_GHZ)


def test_gpu_with_headroom_raises_host_frequency(exact_apu, kernel):
    fl = FrequencyLimiter(exact_apu)
    res = fl.limit_gpu_with_headroom(kernel, power_cap_w=60.0)
    assert res.met_cap
    # Plenty of headroom: host CPU should end at maximum frequency.
    assert res.final_config.cpu_freq_ghz == pytest.approx(3.7)
    assert res.final_config.gpu_freq_ghz == pytest.approx(0.819)


def test_gpu_with_headroom_respects_tight_cap(exact_apu, kernel):
    fl = FrequencyLimiter(exact_apu)
    floor_cfg = gpu_config(GPU_MIN_FREQ_GHZ, CPU_MIN_FREQ_GHZ)
    floor = exact_apu.true_total_power_w(kernel, floor_cfg)
    res = fl.limit_gpu_with_headroom(kernel, power_cap_w=floor + 0.3)
    assert res.met_cap
    assert res.final_measurement.total_power_w <= floor + 0.3


def test_cpu_all_cores_policy(exact_apu, kernel):
    fl = FrequencyLimiter(exact_apu)
    res = fl.limit_cpu_all_cores(kernel, power_cap_w=20.0)
    assert res.final_config.n_threads == 4
    assert res.final_config.device is Device.CPU


def test_trace_records_every_visit(exact_apu, kernel):
    fl = FrequencyLimiter(exact_apu)
    res = fl.limit(kernel, cpu_config(3.7, 4), power_cap_w=15.0)
    assert res.trace[0][0] == cpu_config(3.7, 4)
    # Power decreases monotonically as frequency steps down (no noise).
    powers = [p for _, p in res.trace]
    assert powers == sorted(powers, reverse=True)


def test_invalid_cap_rejected(exact_apu, kernel):
    fl = FrequencyLimiter(exact_apu)
    with pytest.raises(ValueError):
        fl.limit(kernel, cpu_config(3.7, 4), power_cap_w=0.0)


def test_limiter_works_under_noise(noisy_apu, kernel):
    fl = FrequencyLimiter(noisy_apu)
    res = fl.limit_cpu_all_cores(kernel, power_cap_w=25.0)
    # With noise the limiter still converges and reports a real config.
    assert res.final_config in noisy_apu.config_space
    assert res.final_measurement.total_power_w > 0
