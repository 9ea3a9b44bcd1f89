"""Tests for machine presets (repro.hardware.presets)."""

import pytest

from repro.hardware import NoiseModel
from repro.hardware.presets import (
    MACHINE_PRESETS,
    efficient_apu,
    leaky_apu,
    trinity,
)
from tests.conftest import make_kernel
from tests.conftest import cpu_config, gpu_config


def test_registry_complete():
    assert set(MACHINE_PRESETS) == {"trinity", "efficient", "leaky"}
    for factory in MACHINE_PRESETS.values():
        apu = factory(seed=0, noise=NoiseModel.exact())
        assert len(apu.config_space) == 42


def test_presets_share_pstates_but_differ_in_power():
    k = make_kernel()
    cfg = cpu_config(2.4, 4)
    powers = {
        name: factory(noise=NoiseModel.exact()).true_total_power_w(k, cfg)
        for name, factory in MACHINE_PRESETS.items()
    }
    assert powers["efficient"] < powers["trinity"] < powers["leaky"]


def test_timing_is_machine_independent():
    """Presets change the power calibration only; the timing model (and
    therefore performance) is identical across them."""
    k = make_kernel()
    cfg = gpu_config(0.649, 2.4)
    t = {
        name: factory(noise=NoiseModel.exact()).true_time_s(k, cfg)
        for name, factory in MACHINE_PRESETS.items()
    }
    assert t["trinity"] == pytest.approx(t["efficient"])
    assert t["trinity"] == pytest.approx(t["leaky"])


def test_efficient_apu_lowers_gpu_floor():
    k = make_kernel()
    floor_cfg = gpu_config(0.311, 1.4)
    base = trinity(noise=NoiseModel.exact()).true_total_power_w(k, floor_cfg)
    eff = efficient_apu(noise=NoiseModel.exact()).true_total_power_w(
        k, floor_cfg
    )
    assert eff < base - 3.0


def test_leaky_apu_raises_idle_cost():
    k = make_kernel(activity=0.3, dram_intensity=0.1)
    idle_cfg = cpu_config(1.4, 1)
    base = trinity(noise=NoiseModel.exact()).true_total_power_w(k, idle_cfg)
    leaky = leaky_apu(noise=NoiseModel.exact()).true_total_power_w(k, idle_cfg)
    assert leaky > base + 4.0


def test_seed_and_noise_forwarded():
    a = trinity(seed=5)
    b = trinity(seed=5)
    k = make_kernel()
    cfg = cpu_config(2.4, 2)
    assert a.run(k, cfg).time_s == b.run(k, cfg).time_s
    exact = trinity(noise=NoiseModel.exact())
    assert exact.run(k, cfg).time_s == exact.true_time_s(k, cfg)
