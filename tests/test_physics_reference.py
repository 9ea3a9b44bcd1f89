"""Each machine's array ``_physics`` against its former scalar model.

The scalar hooks each machine used to carry beside its vectorized path
live on in ``tests/physics_reference.py``.  Here Hypothesis draws
arbitrary in-range kernels and checks, on every backend (Trinity with
and without boost, big.LITTLE, the MPSoC at every node) and every
configuration, that the one physics hook reproduces time and both
power planes with ``==``.  The rest pins what the one truth table
changed: exact ladder lookups on the MPSoC, measuring at non-default
nodes, and one physics evaluation per kernel.
"""

from __future__ import annotations

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware import (
    BoostPolicy,
    KernelCharacteristics,
    NoiseModel,
    TrinityAPU,
)
from repro.hardware.backend import (
    backend_names,
    create_backend,
    descriptor_for,
)
from repro.hardware.biglittle import BigLittleSoC, HMPConstants
from repro.hardware.hybrid import enumerate_hybrid_points
from repro.hardware.mpsoc import TECH_NODES_NM, MPSoC
from repro.workloads import build_suite

from .physics_reference import hybrid_execution, reference_truth

MACHINES = {
    "trinity": TrinityAPU(),
    "trinity+boost": TrinityAPU(boost=BoostPolicy()),
    "biglittle": BigLittleSoC(),
    **{f"mpsoc{nm}": MPSoC(tech_nm=nm) for nm in TECH_NODES_NM},
}
LU = build_suite().get("LU/Small/LUDecomposition")


@st.composite
def kernels(draw) -> KernelCharacteristics:
    """Any kernel inside the characteristics' validated ranges."""
    ranges = KernelCharacteristics._RANGES
    return KernelCharacteristics(
        **{
            f.name: draw(
                st.floats(*ranges[f.name], allow_nan=False, allow_infinity=False)
            )
            for f in fields(KernelCharacteristics)
        }
    )


def _columns(configs):
    return (
        np.array([cfg.is_gpu for cfg in configs]),
        np.array([cfg.cpu_freq_ghz for cfg in configs]),
        np.array([float(cfg.n_threads) for cfg in configs]),
        np.array([cfg.gpu_freq_ghz for cfg in configs]),
    )


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(MACHINES)), k=kernels())
def test_physics_equals_the_scalar_reference(name, k):
    machine = MACHINES[name]
    configs = list(machine.config_space)
    t, primary, secondary = (
        column.tolist() for column in machine._physics(k, *_columns(configs))
    )
    for i, cfg in enumerate(configs):
        assert (t[i], primary[i], secondary[i]) == reference_truth(
            machine, k, cfg
        ), cfg.label()


@settings(max_examples=25, deadline=None)
@given(k=kernels(), efficiency=st.sampled_from((1.0, 0.7)))
def test_hybrid_points_equal_the_scalar_reference(k, efficiency):
    for point in enumerate_hybrid_points(k, efficiency=efficiency):
        cpu, gpu = point.cpu_config, point.gpu_config
        want = hybrid_execution(
            k,
            cpu.cpu_freq_ghz,
            cpu.n_threads,
            gpu.gpu_freq_ghz,
            efficiency=efficiency,
        )
        assert (point.time_s, point.power_w, point.cpu_share) == want


@pytest.mark.parametrize("nm", TECH_NODES_NM)
def test_mpsoc_rejects_off_ladder_frequencies(nm):
    machine, k = MPSoC(tech_nm=nm), LU
    d = machine.descriptor
    serial, tput = d.primary.freqs_ghz, d.secondary.freqs_ghz

    def one_row(is_gpu, f, n, g):
        return machine.batch_rate_power(
            k, np.array([is_gpu]), np.array([f]), np.array([n]), np.array([g])
        )

    with pytest.raises(ValueError, match="serial ladder"):
        one_row(False, 9.99, 1.0, tput[0])
    with pytest.raises(ValueError, match="tput ladder"):
        one_row(True, serial[-1], 8.0, 9.99)
    # One ulp off a rung is off the ladder too: the lookup is exact.
    with pytest.raises(ValueError, match="serial ladder"):
        one_row(False, np.nextafter(serial[0], 10.0), 1.0, tput[0])
    # Plain sequences are accepted as columns.
    rate, power = machine.batch_rate_power(
        k, [False], [serial[0]], [1.0], [tput[0]]
    )
    cfg = machine.config_space[0]
    assert (power[0], rate[0]) == machine.true_table(k)[cfg]


@pytest.mark.parametrize("nm", TECH_NODES_NM)
def test_mpsoc_measures_at_every_node(nm):
    machine, k = MPSoC(tech_nm=nm, noise=NoiseModel.exact()), LU
    table = machine.true_table(k)
    assert list(table) == list(machine.config_space)
    for cfg in machine.config_space:
        assert cfg.descriptor is machine.descriptor
        m = machine.run(k, cfg)
        assert (m.total_power_w, m.performance) == table[cfg]
        assert set(m.counters) and cfg.label()
    if nm == 45:  # the reference node's nominal 2 GHz, at half speed
        assert machine.config_space[0].label() == "serial 1.00GHz x1"
    assert descriptor_for(machine.descriptor.name) is machine.descriptor
    # Node variants resolve by arch but add no backend names.
    assert backend_names() == ["biglittle", "mpsoc", "trinity"]
    if nm != 22:
        with pytest.raises(ValueError, match="unknown backend"):
            create_backend(f"mpsoc{nm}")


def test_truth_is_one_physics_call_per_kernel(monkeypatch):
    # A constants record of its own, so the process-wide memo is cold.
    machine = BigLittleSoC(constants=HMPConstants(dram_max_w=2.6125))
    calls = []
    physics = machine._physics
    monkeypatch.setattr(
        machine, "_physics", lambda *a: calls.append(1) or physics(*a)
    )
    k = LU
    for cfg in machine.config_space:
        machine.true_time_s(k, cfg)
        machine.true_power(k, cfg)
        machine.run(k, cfg)
    machine.true_table(k)
    assert len(calls) == 1
    with pytest.raises(ValueError, match="not a valid configuration"):
        machine.true_time_s(k, TrinityAPU().config_space[0])


def test_boost_truth_follows_the_policy():
    machine, k = TrinityAPU(), LU
    top = max(c for c in machine.config_space if not c.is_gpu)
    base = machine.true_time_s(k, top)
    machine.boost = BoostPolicy()
    boosted = machine.true_time_s(k, top)
    assert boosted == reference_truth(machine, k.characteristics, top)[0]
    assert boosted < base
    machine.boost = None
    assert machine.true_time_s(k, top) == base
