"""Tests for the profiling substrate (sampler, records, library)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware import Measurement, NoiseModel, TrinityAPU
from repro.profiling import (
    ProfileDatabase,
    ProfilingLibrary,
    PowerSampler,
)
from repro.workloads import build_suite
from tests.conftest import make_kernel
from tests.conftest import cpu_config, gpu_config


class TestPowerSampler:
    def test_estimate_close_to_truth_for_long_kernels(self):
        sampler = PowerSampler()
        rng = np.random.default_rng(0)
        est = sampler.sample(20.0, duration_s=2.0, rng=rng)
        assert est.mean_power_w == pytest.approx(20.0, rel=0.05)
        assert est.energy_j == pytest.approx(est.mean_power_w * 2.0)

    def test_sample_count_matches_rate(self):
        sampler = PowerSampler(rate_hz=1000.0)
        est = sampler.sample(10.0, 0.5, np.random.default_rng(0))
        assert est.n_samples == 501

    def test_short_kernels_still_get_two_samples(self):
        sampler = PowerSampler(rate_hz=1000.0)
        est = sampler.sample(10.0, 1e-4, np.random.default_rng(0))
        assert est.n_samples == 2

    def test_short_kernels_noisier_than_long(self):
        sampler = PowerSampler()

        def spread(duration, seed0):
            ests = [
                sampler.sample(20.0, duration, np.random.default_rng(s)).mean_power_w
                for s in range(seed0, seed0 + 80)
            ]
            return np.std(ests)

        assert spread(0.005, 0) > spread(2.0, 100)

    def test_overhead_below_ten_percent_at_1khz(self):
        # Paper Section IV-C: sampling overhead < 10% in all cases.
        sampler = PowerSampler()
        for duration in (0.01, 0.1, 1.0, 10.0):
            est = sampler.sample(20.0, duration, np.random.default_rng(0))
            assert est.overhead_s / duration < 0.10

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            PowerSampler(rate_hz=0)
        with pytest.raises(ValueError):
            PowerSampler(ar_coeff=1.0)
        with pytest.raises(ValueError):
            PowerSampler(sample_noise_rel=0.9)
        with pytest.raises(ValueError):
            PowerSampler(overhead_per_sample_s=-1.0)

    def test_input_validation(self):
        sampler = PowerSampler()
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            sampler.sample(0.0, 1.0, rng)
        with pytest.raises(ValueError):
            sampler.sample(10.0, 0.0, rng)

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("planes", [None, 1, 2])
    def test_non_finite_or_non_positive_inputs_rejected_before_drawing(
        self, bad, planes
    ):
        sampler = PowerSampler()
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state

        def means(value):
            return value if planes is None else [10.0] * (planes - 1) + [value]

        with pytest.raises(ValueError, match="true_mean_w"):
            sampler.sample(means(bad), 1.0, rng)
        with pytest.raises(ValueError, match="duration_s"):
            sampler.sample(means(10.0), bad, rng)
        assert rng.bit_generator.state == state

    def test_plane_sequence_shares_one_grid(self):
        sampler = PowerSampler()
        cpu, gpu = sampler.sample((20.0, 5.0), 0.5, np.random.default_rng(0))
        assert cpu.n_samples == gpu.n_samples == 501
        assert cpu.overhead_s == gpu.overhead_s
        with pytest.raises(ValueError):
            sampler.sample([], 0.5, np.random.default_rng(0))

    @settings(max_examples=40, deadline=None)
    @given(
        st.floats(min_value=5.0, max_value=60.0),
        st.floats(min_value=0.001, max_value=5.0),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_property_estimate_positive_and_bounded(self, power, duration, seed):
        sampler = PowerSampler()
        est = sampler.sample(power, duration, np.random.default_rng(seed))
        assert est.mean_power_w > 0
        assert abs(est.mean_power_w - power) / power < 0.5


class TestProfileDatabase:
    def _measurement(self, cfg=None):
        return Measurement(
            config=cfg or cpu_config(2.4, 2),
            time_s=0.5,
            cpu_plane_w=10.0,
            nbgpu_plane_w=5.0,
        )

    def test_record_assigns_iterations(self):
        db = ProfileDatabase()
        p0 = db.record("k1", self._measurement())
        p1 = db.record("k1", self._measurement())
        p2 = db.record("k2", self._measurement())
        assert (p0.iteration, p1.iteration, p2.iteration) == (0, 1, 0)
        assert db.iterations("k1") == 2
        assert db.iterations("unknown") == 0

    def test_for_kernel_filters(self):
        db = ProfileDatabase()
        db.record("a", self._measurement())
        db.record("b", self._measurement())
        db.record("a", self._measurement())
        assert len(db.for_kernel("a")) == 2
        assert len(db) == 3

    def test_profile_validation(self):
        db = ProfileDatabase()
        with pytest.raises(ValueError):
            db.record("", self._measurement())


class TestProfilingLibrary:
    def _library(self, seed=0):
        apu = TrinityAPU(noise=NoiseModel.exact(), seed=seed)
        return ProfilingLibrary(apu, seed=seed)

    def test_profile_records_into_database(self):
        lib = self._library()
        k = build_suite().get("CoMD/Small/LJForce")
        p = lib.profile(k, cpu_config(2.4, 4))
        assert len(lib.database) == 1
        assert p.kernel_uid == k.uid
        assert p.measurement.total_power_w > 0

    def test_power_estimate_near_ground_truth(self):
        lib = self._library()
        k = build_suite().get("SMC/Ref/ChemTerm")
        cfg = gpu_config(0.819, 3.7)
        p = lib.profile(k, cfg)
        truth = lib.apu.true_total_power_w(k, cfg)
        assert p.measurement.total_power_w == pytest.approx(truth, rel=0.1)

    def test_measured_time_includes_overhead(self):
        lib = self._library()
        k = build_suite().get("CoMD/Small/LJForce")
        cfg = cpu_config(3.7, 4)
        p = lib.profile(k, cfg)
        assert p.measurement.time_s > lib.apu.true_time_s(k, cfg)
        assert p.sampling_overhead_s / p.measurement.time_s < 0.10  # paper's bound

    def test_raw_characteristics_need_uid(self):
        lib = self._library()
        with pytest.raises(ValueError):
            lib.profile(make_kernel(), cpu_config(1.4, 1))
        p = lib.profile(
            make_kernel(), cpu_config(1.4, 1), kernel_uid="raw/k"
        )
        assert p.kernel_uid == "raw/k"

    def test_profile_sweep_covers_every_config(self):
        lib = self._library()
        k = build_suite().get("LU/Small/LUDecomposition")
        [profiles] = lib.profile_sweeps([k])
        assert len(profiles) == 42
        assert lib.database.iterations(k.uid) == 42

    def test_deterministic_given_seed(self):
        k = build_suite().get("CoMD/Small/LJForce")
        cfg = cpu_config(2.4, 2)
        a = self._library(seed=5).profile(k, cfg)
        b = self._library(seed=5).profile(k, cfg)
        assert a.measurement.time_s == b.measurement.time_s
        assert a.measurement.cpu_plane_w == b.measurement.cpu_plane_w
