"""Tests for repro.hardware.pstates and repro.hardware.config."""

import pytest

from repro.hardware import (
    CPU_FREQS_GHZ,
    GPU_FREQS_GHZ,
    N_CORES,
    Configuration,
    ConfigSpace,
    Device,
)
from repro.hardware import pstates


def test_pstate_tables_match_paper():
    # Six software-visible CPU P-states, 1.4 to 3.7 GHz (Section IV-A).
    assert len(CPU_FREQS_GHZ) == 6
    assert CPU_FREQS_GHZ[0] == 1.4 and CPU_FREQS_GHZ[-1] == 3.7
    # Three effective GPU P-states: 311, 649, 819 MHz.
    assert GPU_FREQS_GHZ == (0.311, 0.649, 0.819)
    assert N_CORES == 4


def test_pstate_tables_ascending():
    assert list(CPU_FREQS_GHZ) == sorted(CPU_FREQS_GHZ)
    assert list(GPU_FREQS_GHZ) == sorted(GPU_FREQS_GHZ)


def test_voltage_monotone_in_frequency():
    volts = [pstates.cpu_voltage(f) for f in CPU_FREQS_GHZ]
    assert volts == sorted(volts)
    gvolts = [pstates.gpu_voltage(f) for f in GPU_FREQS_GHZ]
    assert gvolts == sorted(gvolts)


def test_invalid_frequency_rejected():
    with pytest.raises(ValueError):
        pstates.cpu_voltage(2.0)
    with pytest.raises(ValueError):
        pstates.gpu_voltage(0.5)
    with pytest.raises(ValueError):
        pstates.cpu_pstate_index(9.9)


def test_pstate_index_roundtrip():
    for i, f in enumerate(CPU_FREQS_GHZ):
        assert pstates.cpu_pstate_index(f) == i
    for i, f in enumerate(GPU_FREQS_GHZ):
        assert pstates.gpu_pstate_index(f) == i


def test_configuration_constructors():
    c = Configuration.cpu(2.4, 3)
    assert c.device is Device.CPU
    assert c.n_threads == 3
    assert c.gpu_freq_ghz == pytest.approx(pstates.GPU_MIN_FREQ_GHZ)

    g = Configuration.gpu(0.649, 1.9)
    assert g.device is Device.GPU
    assert g.n_threads == 1
    assert g.is_gpu


def test_configuration_validation():
    with pytest.raises(ValueError):
        Configuration.cpu(2.4, 0)
    with pytest.raises(ValueError):
        Configuration.cpu(2.4, 5)
    with pytest.raises(ValueError):
        Configuration.cpu(2.0, 2)  # not a P-state
    with pytest.raises(ValueError):
        Configuration(
            device=Device.GPU, cpu_freq_ghz=1.4, n_threads=2, gpu_freq_ghz=0.819
        )
    with pytest.raises(ValueError):
        Configuration(
            device=Device.CPU, cpu_freq_ghz=1.4, n_threads=2, gpu_freq_ghz=0.819
        )


def test_configuration_hashable_and_ordered():
    a = Configuration.cpu(1.4, 1)
    b = Configuration.cpu(1.4, 2)
    assert a < b
    assert len({a, b, Configuration.cpu(1.4, 1)}) == 2


def test_labels():
    assert "x3" in Configuration.cpu(2.4, 3).label()
    assert "649" in Configuration.gpu(0.649, 1.4).label()


def test_config_space_size_and_split():
    space = ConfigSpace()
    assert len(space) == 42  # 6*4 CPU + 3*6 GPU
    assert len(space.cpu_configs()) == 24
    assert len(space.gpu_configs()) == 18
    assert len(space.for_device(Device.CPU)) == 24


def test_config_space_membership_and_index():
    space = ConfigSpace()
    cfg = Configuration.gpu(0.819, 3.7)
    assert cfg in space
    assert space[space.index(cfg)] == cfg
    for i, c in enumerate(space):
        assert space.index(c) == i


def test_config_space_deterministic_order():
    s1, s2 = ConfigSpace(), ConfigSpace()
    assert list(s1) == list(s2)
    # CPU configs come first.
    assert not s1[0].is_gpu and s1[len(s1) - 1].is_gpu


def test_config_space_index_rejects_foreign():
    space = ConfigSpace()
    with pytest.raises(ValueError):
        # Valid Configuration object but built differently; same values
        # are equal, so construct an impossible one via direct check:
        space.index(None)  # type: ignore[arg-type]


def test_frequency_within_tolerance_snaps_to_its_rung():
    from repro.hardware import TrinityAPU
    from repro.workloads import build_suite

    near = Configuration.cpu(2.4 + 1e-12, 4)
    exact = Configuration.cpu(2.4, 4)
    assert near == exact and hash(near) == hash(exact)
    assert near.cpu_freq_ghz == 2.4
    space = ConfigSpace()
    assert near in space and exact in space
    gpu = Configuration.gpu(0.649 - 1e-12, 3.7 + 1e-12)
    assert gpu == Configuration.gpu(0.649, 3.7) and gpu in space
    kernel = build_suite().get("LU/Small/LUDecomposition")
    apu = TrinityAPU(seed=0)
    assert apu.true_time_s(kernel, near) == apu.true_time_s(kernel, exact)
    assert apu.true_time_s(kernel, near) == pytest.approx(0.2605, abs=1e-4)


def test_off_ladder_frequency_still_raises():
    with pytest.raises(ValueError, match="not a CPU P-state"):
        Configuration.cpu(2.4 + 1e-6, 4)
    with pytest.raises(ValueError, match="not a GPU P-state"):
        Configuration.gpu(0.7, 3.7)
