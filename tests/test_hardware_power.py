"""Calibration and invariant tests for the Trinity power model
(repro.hardware.power's constants, evaluated by
repro.hardware.apu.trinity_physics).

These tests pin the power model to the paper's published observations:
Table I (CPU floor ~12.5 W, CPU 4x2.4 GHz ~24 W, GPU floor ~24 W, GPU
ceiling ~30 W) and Section III-B (best-config power spans roughly
19-55 W across kernels).  We assert tolerant ranges, not exact values.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware import (
    CPU_FREQS_GHZ,
    GPU_FREQS_GHZ,
    PowerBreakdown,
    PowerModelConstants,
)
from tests.conftest import make_kernel, trinity_truth
from tests.conftest import cpu_config, gpu_config


TYPICAL = make_kernel()


def power_w(k, cfg, constants=None):
    _, cpu_w, nbgpu_w = trinity_truth(k, cfg, constants)
    return PowerBreakdown(cpu_plane_w=cpu_w, nbgpu_plane_w=nbgpu_w)


def total(k, cfg):
    return power_w(k, cfg).total_w


def test_cpu_floor_near_12_watts():
    p = total(TYPICAL, cpu_config(1.4, 1))
    assert 9.0 <= p <= 15.0


def test_cpu_4threads_24ghz_near_24_watts():
    p = total(TYPICAL, cpu_config(2.4, 4))
    assert 20.0 <= p <= 29.0


def test_gpu_floor_near_24_watts():
    p = total(TYPICAL, gpu_config(0.311, 1.4))
    assert 19.0 <= p <= 27.0


def test_gpu_ceiling_below_40_watts():
    p = total(TYPICAL, gpu_config(0.819, 3.7))
    assert 28.0 <= p <= 40.0


def test_gpu_floor_above_cpu_floor():
    """The key behavioural property behind Figures 6-9: the GPU-active
    power floor is far above the lowest CPU configurations, so
    GPU-resident strategies cannot meet low power caps."""
    gpu_floor = total(TYPICAL, gpu_config(0.311, 1.4))
    cpu_floor = total(TYPICAL, cpu_config(1.4, 1))
    assert gpu_floor > cpu_floor + 5.0


def test_hot_kernel_can_exceed_50_watts():
    hot = make_kernel(activity=1.5, vector_fraction=0.9, dram_intensity=0.9)
    assert total(hot, cpu_config(3.7, 4)) > 45.0


def test_cool_kernel_best_config_below_25_watts():
    cool = make_kernel(activity=0.4, dram_intensity=0.1)
    assert total(cool, cpu_config(3.7, 4)) < 30.0


def test_power_monotone_in_threads():
    powers = [total(TYPICAL, cpu_config(2.4, n)) for n in range(1, 5)]
    assert powers == sorted(powers)


def test_power_monotone_in_cpu_frequency():
    for n in (1, 4):
        powers = [total(TYPICAL, cpu_config(f, n)) for f in CPU_FREQS_GHZ]
        assert powers == sorted(powers)


def test_power_monotone_in_gpu_frequency():
    powers = [total(TYPICAL, gpu_config(g, 1.4)) for g in GPU_FREQS_GHZ]
    assert powers == sorted(powers)


def test_host_frequency_adds_modest_power_on_gpu_configs():
    lo = total(TYPICAL, gpu_config(0.649, 1.4))
    hi = total(TYPICAL, gpu_config(0.649, 3.7))
    assert 1.0 < hi - lo < 8.0  # Table I: ~4.6 W across the host range


def test_memory_bound_gpu_kernel_has_flat_gpu_power_ladder():
    flat = make_kernel(gpu_mem_fraction=0.95)
    steep = make_kernel(gpu_mem_fraction=0.05)

    def spread(k):
        return total(k, gpu_config(0.819, 1.4)) - total(
            k, gpu_config(0.311, 1.4)
        )

    assert spread(flat) < spread(steep)


def test_both_planes_positive_and_breakdown_sums():
    pb = power_w(TYPICAL, gpu_config(0.649, 2.4))
    assert pb.cpu_plane_w > 0 and pb.nbgpu_plane_w > 0
    assert pb.total_w == pytest.approx(pb.cpu_plane_w + pb.nbgpu_plane_w)


def test_custom_constants_respected():
    consts = PowerModelConstants(nb_static=10.0)
    base = power_w(TYPICAL, cpu_config(1.4, 1)).nbgpu_plane_w
    raised = power_w(TYPICAL, cpu_config(1.4, 1), consts).nbgpu_plane_w
    assert raised == pytest.approx(base + 7.5)  # default nb_static = 2.5


def test_gpu_idle_power_charged_on_cpu_configs():
    # NB+GPU plane on a CPU config includes the idle GPU.
    pb = power_w(make_kernel(dram_intensity=0.0), cpu_config(1.4, 1))
    consts = PowerModelConstants()
    assert pb.nbgpu_plane_w == pytest.approx(consts.nb_static + consts.gpu_idle_w)


@settings(max_examples=60, deadline=None)
@given(
    st.floats(min_value=0.1, max_value=1.5),
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(min_value=1, max_value=4),
    st.sampled_from(CPU_FREQS_GHZ),
)
def test_property_power_positive_and_bounded(act, dram, n, f):
    k = make_kernel(activity=act, dram_intensity=dram)
    p = total(k, cpu_config(f, n))
    assert 5.0 < p < 100.0


@settings(max_examples=60, deadline=None)
@given(
    st.floats(min_value=0.1, max_value=1.5),
    st.floats(min_value=0.0, max_value=0.99),
    st.sampled_from(GPU_FREQS_GHZ),
    st.sampled_from(CPU_FREQS_GHZ),
)
def test_property_gpu_power_positive_and_bounded(act, beta_g, g, f):
    k = make_kernel(gpu_activity=act, gpu_mem_fraction=beta_g)
    p = total(k, gpu_config(g, f))
    assert 10.0 < p < 70.0
