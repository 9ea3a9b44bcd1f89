"""Tests for the ground-truth timing model: the scaling helpers of
repro.hardware.kernelmodel and the times Trinity's one physics function
(repro.hardware.apu.trinity_physics) derives from them."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware import (
    CPU_FREQS_GHZ,
    GPU_FREQS_GHZ,
    NoiseModel,
    PowerModelConstants,
    TrinityAPU,
)
from repro.hardware import kernelmodel as km
from repro.hardware.backend import TRINITY_DESCRIPTOR
from tests.conftest import cpu_config, gpu_config, make_kernel, trinity_truth


def cpu_time_s(k, freq_ghz, n_threads):
    return trinity_truth(k, cpu_config(freq_ghz, n_threads))[0]


def gpu_time_s(k, gpu_freq_ghz, host_cpu_freq_ghz):
    return trinity_truth(k, gpu_config(gpu_freq_ghz, host_cpu_freq_ghz))[0]


#: Constants that reduce the NB+GPU plane of a GPU run (GPU activity 1)
#: to its dynamic term ``f * vg^2 * busy(f)``.
_BUSY_ONLY = PowerModelConstants(
    nb_static=0.0,
    dram_max_w=0.0,
    gpu_static_base=0.0,
    gpu_static_v2=0.0,
    gpu_dyn=1.0,
)


def gpu_busy_fraction(k, gpu_freq_ghz):
    """The GPU busy factor, read back out of the NB+GPU plane."""
    cfg = gpu_config(gpu_freq_ghz, 3.7)
    nbgpu = trinity_truth(replace(k, gpu_activity=1.0), cfg, _BUSY_ONLY)[2]
    vg = TRINITY_DESCRIPTOR.secondary.voltage(gpu_freq_ghz)
    return nbgpu / (gpu_freq_ghz * vg * vg)


def test_characteristics_range_validation():
    with pytest.raises(ValueError):
        make_kernel(parallel_fraction=1.5)
    with pytest.raises(ValueError):
        make_kernel(mem_fraction=-0.1)
    with pytest.raises(ValueError):
        make_kernel(gpu_affinity=0.0)
    with pytest.raises(ValueError):
        make_kernel(work_s=0.0)


def test_amdahl_limits():
    assert km.amdahl_speedup(1, 0.9) == pytest.approx(1.0)
    assert km.amdahl_speedup(4, 0.0) == pytest.approx(1.0)  # serial kernel
    assert km.amdahl_speedup(4, 1.0) == pytest.approx(4.0)  # perfect scaling
    # 90% parallel at 4 threads: 1/(0.1+0.225)
    assert km.amdahl_speedup(4, 0.9) == pytest.approx(1 / 0.325)


def test_amdahl_monotone_in_threads():
    sp = [km.amdahl_speedup(n, 0.95) for n in range(1, 5)]
    assert sp == sorted(sp)


def test_bandwidth_factor_saturates():
    bw = [km.memory_bandwidth_factor(n) for n in range(1, 5)]
    assert bw[0] == pytest.approx(1.0)
    assert bw == sorted(bw)  # monotone...
    gains = np.diff(bw)
    assert all(gains[i] >= gains[i + 1] for i in range(len(gains) - 1))  # ...concave
    assert bw[-1] < 4.0  # strictly sub-linear


def test_invalid_thread_counts():
    with pytest.raises(ValueError):
        km.amdahl_speedup(0, 0.5)
    with pytest.raises(ValueError):
        km.memory_bandwidth_factor(0)
    # Elementwise over arrays: one bad row rejects the whole column.
    with pytest.raises(ValueError):
        km.amdahl_speedup(np.array([1.0, 0.0]), 0.5)
    with pytest.raises(ValueError):
        km.memory_bandwidth_factor(np.array([4.0, 0.0]))
    n = np.array([1.0, 2.0, 4.0])
    assert km.amdahl_speedup(n, 0.9).tolist() == [
        km.amdahl_speedup(int(x), 0.9) for x in n
    ]


def test_cpu_time_decreases_with_frequency_for_compute_kernel():
    k = make_kernel(mem_fraction=0.05)
    times = [cpu_time_s(k, f, 1) for f in CPU_FREQS_GHZ]
    assert times == sorted(times, reverse=True)
    # Nearly ideal frequency scaling.
    assert times[0] / times[-1] == pytest.approx(3.7 / 1.4, rel=0.1)


def test_memory_bound_kernel_nearly_frequency_insensitive():
    k = make_kernel(mem_fraction=0.9)
    t_low = cpu_time_s(k, 1.4, 4)
    t_high = cpu_time_s(k, 3.7, 4)
    assert t_low / t_high < 1.3  # far from the 2.64x frequency ratio


def test_cpu_time_decreases_with_threads():
    k = make_kernel(parallel_fraction=0.95, mem_fraction=0.3)
    times = [cpu_time_s(k, 2.4, n) for n in range(1, 5)]
    assert times == sorted(times, reverse=True)


def test_serial_kernel_ignores_threads():
    k = make_kernel(parallel_fraction=0.0, mem_fraction=0.0)
    assert cpu_time_s(k, 2.4, 1) == pytest.approx(cpu_time_s(k, 2.4, 4))


def test_reference_config_time_equals_work():
    k = make_kernel(mem_fraction=0.0)
    assert cpu_time_s(k, 3.7, 1) == pytest.approx(k.work_s)


def test_gpu_time_decreases_with_gpu_frequency():
    k = make_kernel()
    times = [gpu_time_s(k, g, 1.4) for g in GPU_FREQS_GHZ]
    assert times == sorted(times, reverse=True)


def test_gpu_memory_bound_flattens_frequency_scaling():
    flat = make_kernel(gpu_mem_fraction=0.9)
    steep = make_kernel(gpu_mem_fraction=0.05)

    def ratio(k):
        return gpu_time_s(k, 0.311, 3.7) / gpu_time_s(k, 0.819, 3.7)

    assert ratio(steep) > ratio(flat)
    assert ratio(steep) == pytest.approx(0.819 / 0.311, rel=0.15)


def test_launch_overhead_scales_with_host_frequency():
    k = make_kernel(launch_overhead_s=0.5, gpu_affinity=10.0)
    t_slow = gpu_time_s(k, 0.819, 1.4)
    t_fast = gpu_time_s(k, 0.819, 3.7)
    assert t_slow > t_fast  # Table I: GPU rows differ by CPU frequency
    overhead_delta = 0.5 * (3.7 / 1.4) - 0.5
    assert t_slow - t_fast == pytest.approx(overhead_delta, rel=1e-9)


def test_gpu_affinity_divides_device_time():
    fast = make_kernel(gpu_affinity=8.0, launch_overhead_s=0.0)
    slow = make_kernel(gpu_affinity=0.5, launch_overhead_s=0.0)
    assert gpu_time_s(slow, 0.819, 3.7) / gpu_time_s(fast, 0.819, 3.7) == (
        pytest.approx(16.0)
    )


def test_true_time_dispatches_by_device():
    k = make_kernel()
    c_cpu = cpu_config(2.4, 2)
    c_gpu = gpu_config(0.649, 2.4)
    apu = TrinityAPU(noise=NoiseModel.exact())
    assert apu.true_time_s(k, c_cpu) == pytest.approx(cpu_time_s(k, 2.4, 2))
    assert apu.true_time_s(k, c_gpu) == pytest.approx(gpu_time_s(k, 0.649, 2.4))
    # Device time and thread scaling do not leak across the device mask.
    assert gpu_time_s(k, 0.649, 2.4) != cpu_time_s(k, 2.4, 1)


def test_gpu_busy_fraction_bounds():
    k = make_kernel(gpu_mem_fraction=0.6)
    for g in GPU_FREQS_GHZ:
        b = gpu_busy_fraction(k, g)
        assert 0.0 < b <= 1.0
    # Higher frequency -> more stalling -> lower busy fraction.
    assert gpu_busy_fraction(k, 0.311) > gpu_busy_fraction(k, 0.819)


@settings(max_examples=60, deadline=None)
@given(
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=0.99),
    st.integers(min_value=1, max_value=4),
)
def test_property_cpu_time_positive_and_freq_monotone(p, beta, n):
    k = make_kernel(parallel_fraction=p, mem_fraction=beta)
    times = [cpu_time_s(k, f, n) for f in CPU_FREQS_GHZ]
    assert all(t > 0 for t in times)
    assert all(times[i] >= times[i + 1] - 1e-12 for i in range(len(times) - 1))


@settings(max_examples=60, deadline=None)
@given(
    st.floats(min_value=0.1, max_value=20.0),
    st.floats(min_value=0.0, max_value=0.99),
)
def test_property_gpu_time_positive_and_monotone(aff, beta_g):
    k = make_kernel(gpu_affinity=aff, gpu_mem_fraction=beta_g)
    times = [gpu_time_s(k, g, 2.4) for g in GPU_FREQS_GHZ]
    assert all(t > 0 for t in times)
    assert all(times[i] >= times[i + 1] - 1e-12 for i in range(len(times) - 1))
