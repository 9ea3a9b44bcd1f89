"""Conformance suite every registered hardware backend must pass.

The pipeline above :mod:`repro.hardware.backend` (characterization,
clustering, regression, scheduling, the evaluation harness) is written
against the :class:`~repro.hardware.backend.HardwareBackend` contract,
not against Trinity.  This suite pins that contract for all registered
backends:

* configuration enumeration is deterministic and duplicate-free;
* ground truth is positive and finite for every (kernel, config);
* the vectorized batch path matches the scalar path bit for bit;
* the frontier built from the true table is mutually non-dominated and
  dominates the rest of the space;
* attaching an *empty* fault plan leaves measurements bit-identical.

Plus regression tests for the descriptor indirections that replaced
Trinity-specific assumptions (sample anchors, counters, presets).
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.frontier import ParetoFrontier
from repro.faults import FaultPlan
from repro.hardware.backend import (
    TRINITY_DESCRIPTOR,
    backend_names,
    create_backend,
    descriptor_for,
)
from repro.hardware.mpsoc import MPSoC
from repro.workloads import build_suite

BACKENDS = ("trinity", "biglittle", "mpsoc")
#: Every registered backend plus one variant whose descriptor is only
#: registered (the 45 nm MPSoC).
MACHINES = BACKENDS + ("mpsoc45",)


def make_machine(name: str, seed: int = 0):
    """A machine of any name in :data:`MACHINES`."""
    if name == "mpsoc45":
        return MPSoC(tech_nm=45, seed=seed)
    return create_backend(name, seed=seed)


@pytest.fixture(scope="module")
def kernels():
    suite = build_suite()
    # A cross-section of the suite: different benchmarks and sizes.
    return [suite.get(uid) for uid in (
        "LU/Small/LUDecomposition",
        "CoMD/Large/AdvanceVelocity",
        "LULESH/Small/CalcFBHourglassForce",
    )]


@pytest.fixture(params=MACHINES)
def backend(request):
    return make_machine(request.param, seed=0)


def test_registry_contains_all_builtin_backends():
    assert set(BACKENDS) <= set(backend_names())


def test_registry_imports_builtins_once(monkeypatch):
    import importlib

    backend_names()
    imports = []
    monkeypatch.setattr(importlib, "import_module", imports.append)
    for name in BACKENDS:
        assert descriptor_for(name).name == name
    assert imports == []


class TestEnumeration:
    def test_enumeration_is_deterministic(self, backend):
        a = tuple(backend.config_space)
        b = tuple(make_machine(backend.descriptor.name, seed=1).config_space)
        assert a == b

    def test_enumeration_is_duplicate_free(self, backend):
        configs = tuple(backend.config_space)
        assert len(configs) == len(set(configs))

    def test_every_config_validates_against_its_descriptor(self, backend):
        descriptor = descriptor_for(backend.descriptor.name)
        for cfg in backend.config_space:
            assert cfg.arch == descriptor.name
            rebuilt = descriptor.config(
                cfg.device, cfg.cpu_freq_ghz, cfg.n_threads, cfg.gpu_freq_ghz
            )
            assert rebuilt is cfg

    def test_space_has_both_device_blocks(self, backend):
        configs = tuple(backend.config_space)
        assert any(c.is_gpu for c in configs)
        assert any(not c.is_gpu for c in configs)


class TestGroundTruth:
    def test_truth_is_positive_and_finite_everywhere(self, backend, kernels):
        for kernel in kernels:
            for cfg, (power_w, perf) in backend.true_table(kernel).items():
                assert math.isfinite(power_w) and power_w > 0, cfg.label()
                assert math.isfinite(perf) and perf > 0, cfg.label()

    def test_true_table_covers_the_whole_space(self, backend, kernels):
        table = backend.true_table(kernels[0])
        assert set(table) == set(backend.config_space)

    def test_batch_matches_scalar_bit_for_bit(self, backend, kernels):
        configs = tuple(backend.config_space)
        is_gpu = np.array([c.is_gpu for c in configs])
        f = np.array([c.cpu_freq_ghz for c in configs])
        n = np.array([float(c.n_threads) for c in configs])
        g = np.array([c.gpu_freq_ghz for c in configs])
        for kernel in kernels:
            rates, powers = backend.batch_rate_power(kernel, is_gpu, f, n, g)
            table = backend.true_table(kernel)
            for i, cfg in enumerate(configs):
                power_w, perf = table[cfg]
                assert rates[i] == perf, cfg.label()
                assert powers[i] == power_w, cfg.label()

    def test_true_frontier_is_non_dominated(self, backend, kernels):
        for kernel in kernels:
            table = backend.true_table(kernel)
            configs = list(table)
            powers = np.array([table[c][0] for c in configs])
            perfs = np.array([table[c][1] for c in configs])
            frontier = ParetoFrontier.from_arrays(configs, powers, perfs)
            f_pw = np.asarray(frontier.powers)
            f_pf = np.asarray(frontier.performances)
            # Mutually non-dominated: strictly increasing in both axes.
            assert np.all(np.diff(f_pw) > 0)
            assert np.all(np.diff(f_pf) > 0)
            # And dominating: no space point beats a frontier point on
            # both axes.
            for pw, pf in zip(powers, perfs):
                dominated = (f_pw <= pw) & (f_pf >= pf)
                assert dominated.any(), "space point escapes the frontier"


class TestMeasurement:
    def test_measurements_are_deterministic_per_seed(self, backend, kernels):
        twin = make_machine(backend.descriptor.name, seed=0)
        cfg = tuple(backend.config_space)[0]
        a = backend.run(kernels[0], cfg)
        b = twin.run(kernels[0], cfg)
        assert a == b

    def test_empty_fault_plan_is_bit_identical(self, backend, kernels):
        faulty = make_machine(backend.descriptor.name, seed=0)
        faulty.inject_faults(FaultPlan(name="empty"))
        for kernel in kernels:
            for cfg in tuple(backend.config_space)[:5]:
                clean = backend.run(kernel, cfg)
                injected = faulty.run(kernel, cfg)
                assert clean == injected

    def test_measurements_carry_counters(self, backend, kernels):
        m = backend.run(kernels[0], tuple(backend.config_space)[0])
        assert m.counters and all(
            math.isfinite(v) for v in m.counters.values()
        )


class TestDescriptorDispatch:
    """Regressions for the Trinity-specific assumptions that moved
    behind backend descriptors."""

    def test_sample_configs_for_trinity_is_table_ii(self):
        cpu_sample, gpu_sample = TRINITY_DESCRIPTOR.sample_configs()
        assert (cpu_sample.cpu_freq_ghz, cpu_sample.n_threads) == (3.7, 4)
        assert cpu_sample.gpu_freq_ghz == 0.311 and not cpu_sample.is_gpu
        assert (gpu_sample.cpu_freq_ghz, gpu_sample.n_threads) == (3.7, 1)
        assert gpu_sample.gpu_freq_ghz == 0.819 and gpu_sample.is_gpu

    def test_sample_configs_are_in_space_and_one_per_block(self, backend):
        space = backend.config_space
        cpu_sample, gpu_sample = space.descriptor.sample_configs()
        configs = set(space)
        assert cpu_sample in configs and gpu_sample in configs
        assert not cpu_sample.is_gpu and gpu_sample.is_gpu

    @pytest.mark.parametrize("name", BACKENDS)
    def test_sample_configs_cached_last_row_of_each_block(self, name):
        descriptor = descriptor_for(name)
        first = descriptor.sample_configs()
        assert descriptor.sample_configs() is first
        space = descriptor.enumerate_configs()
        assert first == (
            [c for c in space if not c.is_gpu][-1],
            [c for c in space if c.is_gpu][-1],
        )

    def test_trinity_configspace_exposes_its_descriptor(self):
        space = TRINITY_DESCRIPTOR.config_space()
        assert space.descriptor is descriptor_for("trinity")

    def test_descriptor_of_config_round_trips(self, backend):
        for cfg in tuple(backend.config_space)[:3]:
            descriptor = cfg.descriptor
            assert descriptor is backend.descriptor

    def test_design_rows_share_the_portable_convention(self, backend):
        from repro.core.features import design_row, power_design_row

        cpu_sample, gpu_sample = backend.config_space.descriptor.sample_configs()
        assert design_row(cpu_sample).shape == (3,)
        assert design_row(gpu_sample).shape == (3,)
        assert power_design_row(cpu_sample).shape == (5,)
        assert power_design_row(gpu_sample).shape == (6,)

    def test_counters_dispatch_to_descriptor_maxima(self, backend):
        from repro.hardware.counters import synthesize_counters
        from repro.workloads import build_suite

        kernel = build_suite().get("LU/Small/LUDecomposition")
        cpu_sample, _ = backend.config_space.descriptor.sample_configs()
        counters = synthesize_counters(kernel.characteristics, cpu_sample)
        assert counters and all(
            math.isfinite(v) for v in counters.values()
        )
