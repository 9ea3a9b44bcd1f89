"""Tests for repro.hardware.pstates, repro.hardware.config and the
descriptor constructors that build configurations."""

import pytest

from repro.hardware import (
    CPU_FREQS_GHZ,
    GPU_FREQS_GHZ,
    N_CORES,
    Configuration,
    Device,
)
from repro.hardware import pstates
from repro.hardware.backend import TRINITY_DESCRIPTOR, descriptor_for
from tests.conftest import cpu_config, gpu_config


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
    volts = [TRINITY_DESCRIPTOR.primary.voltage(f) for f in CPU_FREQS_GHZ]
    assert volts == sorted(volts)
    gvolts = [TRINITY_DESCRIPTOR.secondary.voltage(f) for f in GPU_FREQS_GHZ]
    assert gvolts == sorted(gvolts)


def test_invalid_frequency_rejected():
    with pytest.raises(ValueError):
        TRINITY_DESCRIPTOR.primary.index(2.0)
    with pytest.raises(ValueError):
        TRINITY_DESCRIPTOR.secondary.index(0.5)
    with pytest.raises(ValueError):
        TRINITY_DESCRIPTOR.primary.index(9.9)


def test_pstate_index_roundtrip():
    for i, f in enumerate(CPU_FREQS_GHZ):
        assert TRINITY_DESCRIPTOR.primary.index(f) == i
    for i, f in enumerate(GPU_FREQS_GHZ):
        assert TRINITY_DESCRIPTOR.secondary.index(f) == i


def test_configuration_constructors():
    c = cpu_config(2.4, 3)
    assert c.device is Device.CPU
    assert c.n_threads == 3
    assert c.gpu_freq_ghz == pytest.approx(pstates.GPU_MIN_FREQ_GHZ)

    g = gpu_config(0.649, 1.9)
    assert g.device is Device.GPU
    assert g.n_threads == 1
    assert g.is_gpu


def test_configuration_validation():
    with pytest.raises(ValueError):
        cpu_config(2.4, 0)
    with pytest.raises(ValueError):
        cpu_config(2.4, 5)
    with pytest.raises(ValueError):
        cpu_config(2.0, 2)  # not a P-state
    with pytest.raises(ValueError):  # GPU rows keep one host thread
        TRINITY_DESCRIPTOR.config(Device.GPU, 1.4, 2, 0.819)
    with pytest.raises(ValueError):  # CPU rows idle the GPU at its minimum
        TRINITY_DESCRIPTOR.config(Device.CPU, 1.4, 2, 0.819)


def test_configuration_hashable_and_ordered():
    a = cpu_config(1.4, 1)
    b = cpu_config(1.4, 2)
    assert a < b
    assert len({a, b, cpu_config(1.4, 1)}) == 2


def test_labels():
    assert "x3" in cpu_config(2.4, 3).label()
    assert "649" in gpu_config(0.649, 1.4).label()


def test_config_space_size_and_split():
    space = TRINITY_DESCRIPTOR.config_space()
    assert len(space) == 42  # 6*4 CPU + 3*6 GPU
    assert sum(c.device is Device.CPU for c in space) == 24
    assert len(space.gpu_configs()) == 18


def test_config_space_membership_and_index():
    space = TRINITY_DESCRIPTOR.config_space()
    cfg = gpu_config(0.819, 3.7)
    assert cfg in space
    assert space[space.index(cfg)] == cfg
    for i, c in enumerate(space):
        assert space.index(c) == i


def test_config_space_deterministic_order():
    s1, s2 = TRINITY_DESCRIPTOR.config_space(), TRINITY_DESCRIPTOR.config_space()
    assert list(s1) == list(s2)
    # CPU configs come first.
    assert not s1[0].is_gpu and s1[len(s1) - 1].is_gpu


def test_config_space_index_rejects_foreign():
    space = TRINITY_DESCRIPTOR.config_space()
    with pytest.raises(ValueError):
        space.index(None)  # type: ignore[arg-type]
    with pytest.raises(ValueError):  # another machine's configuration
        space.index(descriptor_for("biglittle").enumerate_configs()[0])


def test_frequency_within_tolerance_snaps_to_its_rung():
    from repro.hardware import TrinityAPU
    from repro.workloads import build_suite

    near = cpu_config(2.4 + 1e-12, 4)
    exact = cpu_config(2.4, 4)
    assert near == exact and hash(near) == hash(exact)
    assert near.cpu_freq_ghz == 2.4
    space = TRINITY_DESCRIPTOR.config_space()
    assert near in space and exact in space
    gpu = gpu_config(0.649 - 1e-12, 3.7 + 1e-12)
    assert gpu == gpu_config(0.649, 3.7) and gpu in space
    kernel = build_suite().get("LU/Small/LUDecomposition")
    apu = TrinityAPU(seed=0)
    assert apu.true_time_s(kernel, near) == apu.true_time_s(kernel, exact)
    assert apu.true_time_s(kernel, near) == pytest.approx(0.2605, abs=1e-4)


def test_off_ladder_frequency_still_raises():
    with pytest.raises(ValueError, match="not on the cpu ladder"):
        cpu_config(2.4 + 1e-6, 4)
    with pytest.raises(ValueError, match="not on the gpu ladder"):
        gpu_config(0.7, 3.7)


# -- one constructor rule on every machine ---------------------------------

#: Every built-in descriptor plus one variant that is only registered
#: (the 45 nm MPSoC, resolvable from its configurations' ``arch``).
DESCRIPTORS = ("trinity", "biglittle", "mpsoc", "mpsoc45")


def _fields(cfg, shift: float = 0.0) -> tuple:
    """``cfg``'s constructor arguments, each frequency moved by ``shift``."""
    f, g = cfg.cpu_freq_ghz + shift, cfg.gpu_freq_ghz + shift
    return (cfg.device, f, cfg.n_threads, g)


@pytest.mark.parametrize("name", DESCRIPTORS)
class TestConstructorRule:
    def test_frequencies_within_tolerance_rebuild_the_same_config(self, name):
        d = descriptor_for(name)
        space = d.config_space()
        for cfg in d.enumerate_configs():
            rebuilt = d.config(*_fields(cfg, 1e-12))
            assert rebuilt == cfg and hash(rebuilt) == hash(cfg)
            assert rebuilt in space
            assert d.config(*_fields(cfg)) is cfg

    def test_off_ladder_frequency_raises(self, name):
        d = descriptor_for(name)
        for cfg in d.sample_configs():
            with pytest.raises(ValueError, match="not on the"):
                d.config(*_fields(cfg, 1e-6))
        cpu, _ = d.sample_configs()
        between = sum(d.primary.freqs_ghz[:2]) / 2
        with pytest.raises(ValueError, match="not on the"):
            cpu.replace(cpu_freq_ghz=between)

    def test_unit_count_outside_its_block_raises(self, name):
        d = descriptor_for(name)
        for cfg, block in zip(d.sample_configs(), (d.primary, d.secondary)):
            for n in (block.thread_counts[0] - 1, block.thread_counts[-1] + 1):
                with pytest.raises(ValueError, match="is not a configuration"):
                    cfg.replace(n_threads=n)

    def test_primary_row_with_a_raised_secondary_raises(self, name):
        d = descriptor_for(name)
        cpu, _ = d.sample_configs()
        with pytest.raises(ValueError, match="is not a configuration"):
            cpu.replace(gpu_freq_ghz=d.secondary.max_freq_ghz)

    def test_secondary_row_host_follows_the_host_axis(self, name):
        d = descriptor_for(name)
        _, gpu = d.sample_configs()
        low_host = d.primary.min_freq_ghz
        if d.secondary.host_axis:
            assert gpu.replace(cpu_freq_ghz=low_host).cpu_freq_ghz == low_host
        else:
            with pytest.raises(ValueError, match="is not a configuration"):
                gpu.replace(cpu_freq_ghz=low_host)


# -- byte-level contract: reprs and labels ----------------------------------
# perfbench's serve digest hashes ``repr(config)`` and the golden LOOCV
# digest hashes ``label()``: a change here moves both.

TRINITY_LABELS = (
    "CPU 1.4GHz x1", "CPU 1.4GHz x2", "CPU 1.4GHz x3", "CPU 1.4GHz x4",
    "CPU 1.9GHz x1", "CPU 1.9GHz x2", "CPU 1.9GHz x3", "CPU 1.9GHz x4",
    "CPU 2.4GHz x1", "CPU 2.4GHz x2", "CPU 2.4GHz x3", "CPU 2.4GHz x4",
    "CPU 2.9GHz x1", "CPU 2.9GHz x2", "CPU 2.9GHz x3", "CPU 2.9GHz x4",
    "CPU 3.3GHz x1", "CPU 3.3GHz x2", "CPU 3.3GHz x3", "CPU 3.3GHz x4",
    "CPU 3.7GHz x1", "CPU 3.7GHz x2", "CPU 3.7GHz x3", "CPU 3.7GHz x4",
    "GPU 311MHz (host 1.4GHz)", "GPU 311MHz (host 1.9GHz)",
    "GPU 311MHz (host 2.4GHz)", "GPU 311MHz (host 2.9GHz)",
    "GPU 311MHz (host 3.3GHz)", "GPU 311MHz (host 3.7GHz)",
    "GPU 649MHz (host 1.4GHz)", "GPU 649MHz (host 1.9GHz)",
    "GPU 649MHz (host 2.4GHz)", "GPU 649MHz (host 2.9GHz)",
    "GPU 649MHz (host 3.3GHz)", "GPU 649MHz (host 3.7GHz)",
    "GPU 819MHz (host 1.4GHz)", "GPU 819MHz (host 1.9GHz)",
    "GPU 819MHz (host 2.4GHz)", "GPU 819MHz (host 2.9GHz)",
    "GPU 819MHz (host 3.3GHz)", "GPU 819MHz (host 3.7GHz)",
)


def test_reprs_and_labels_are_pinned():
    cpu, gpu = TRINITY_DESCRIPTOR.sample_configs()
    assert repr(cpu) == (
        "Configuration(device=<Device.CPU: 'cpu'>, cpu_freq_ghz=3.7, "
        "n_threads=4, gpu_freq_ghz=0.311)"
    )
    assert repr(gpu) == (
        "Configuration(device=<Device.GPU: 'gpu'>, cpu_freq_ghz=3.7, "
        "n_threads=1, gpu_freq_ghz=0.819)"
    )
    labels = tuple(c.label() for c in TRINITY_DESCRIPTOR.enumerate_configs())
    assert labels == TRINITY_LABELS
    ends = {
        name: (configs[0].label(), configs[-1].label())
        for name in ("biglittle", "mpsoc")
        for configs in [descriptor_for(name).enumerate_configs()]
    }
    assert ends == {
        "biglittle": ("little 0.60GHz x1", "big 2.20GHz x4"),
        "mpsoc": ("serial 1.77GHz x1", "tput 1.77GHz x64"),
    }
