"""Tests for machine presets (repro.hardware.presets)."""

import pytest

from repro.hardware import NoiseModel
from repro.hardware.presets import leaky_apu, trinity
from tests.conftest import make_kernel
from tests.conftest import cpu_config, gpu_config


PRESETS = {"trinity": trinity, "leaky": leaky_apu}


def test_presets_share_pstates_but_differ_in_power():
    k = make_kernel()
    cfg = cpu_config(2.4, 4)
    powers = {
        name: factory(noise=NoiseModel.exact()).true_total_power_w(k, cfg)
        for name, factory in PRESETS.items()
    }
    assert powers["trinity"] < powers["leaky"]


def test_timing_is_machine_independent():
    """Presets change the power calibration only; the timing model (and
    therefore performance) is identical across them."""
    k = make_kernel()
    cfg = gpu_config(0.649, 2.4)
    t = {
        name: factory(noise=NoiseModel.exact()).true_time_s(k, cfg)
        for name, factory in PRESETS.items()
    }
    assert t["trinity"] == pytest.approx(t["leaky"])


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
