"""Tests for the thermal model and opportunistic overclocking (paper §VI)."""

import pytest

from repro.hardware import (
    BoostPolicy,
    NoiseModel,
    ThermalModel,
    TrinityAPU,
)
from tests.conftest import make_kernel
from tests.conftest import cpu_config, gpu_config


class TestThermalModel:
    def test_steady_temp_linear_in_power(self):
        tm = ThermalModel(ambient_c=40.0, r_th_c_per_w=1.0, t_max_c=80.0)
        assert tm.steady_temp_c(0.0) == pytest.approx(40.0)
        assert tm.steady_temp_c(20.0) == pytest.approx(60.0)

    def test_headroom(self):
        tm = ThermalModel(ambient_c=40.0, r_th_c_per_w=1.0, t_max_c=80.0)
        assert tm.headroom_w(20.0) == pytest.approx(20.0)
        assert tm.headroom_w(50.0) == pytest.approx(-10.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            ThermalModel(r_th_c_per_w=0.0)
        with pytest.raises(ValueError):
            ThermalModel(ambient_c=80.0, t_max_c=70.0)
        with pytest.raises(ValueError):
            ThermalModel().steady_temp_c(-1.0)


class TestBoostPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            BoostPolicy(boost_freq_ghz=3.0)  # must exceed top P-state
        with pytest.raises(ValueError):
            BoostPolicy(extra_power_w_at_full=-1.0)
        with pytest.raises(ValueError):
            BoostPolicy().evaluate(20.0, 4, 1.5)
        with pytest.raises(ValueError):
            BoostPolicy().evaluate(20.0, 0, 0.5)

    def test_full_boost_with_headroom(self):
        policy = BoostPolicy(
            boost_freq_ghz=4.2,
            thermal=ThermalModel(ambient_c=40, r_th_c_per_w=0.5, t_max_c=80),
            extra_power_w_at_full=8.0,
        )
        # 20 W base -> 50 C, 60 W of headroom >> 8 W boost cost.
        out = policy.evaluate(20.0, 4, compute_fraction=1.0)
        assert out.duty_cycle == pytest.approx(1.0)
        assert out.effective_freq_ghz == pytest.approx(4.2)
        assert out.time_scale == pytest.approx(3.7 / 4.2)
        assert out.power_delta_w == pytest.approx(8.0)

    def test_no_boost_when_hot(self):
        policy = BoostPolicy(
            thermal=ThermalModel(ambient_c=40, r_th_c_per_w=1.0, t_max_c=70)
        )
        out = policy.evaluate(35.0, 4, compute_fraction=1.0)  # already 75 C
        assert out.duty_cycle == 0.0
        assert out.time_scale == pytest.approx(1.0)
        assert out.power_delta_w == 0.0

    def test_partial_boost_duty_cycle(self):
        policy = BoostPolicy(
            thermal=ThermalModel(ambient_c=40, r_th_c_per_w=1.0, t_max_c=70),
            extra_power_w_at_full=8.0,
        )
        # 26 W base -> 66 C, 4 W headroom vs 8 W boost cost: 50% duty.
        out = policy.evaluate(26.0, 4, compute_fraction=1.0)
        assert out.duty_cycle == pytest.approx(0.5)
        assert 3.7 < out.effective_freq_ghz < 4.2

    def test_memory_bound_kernel_gains_no_time(self):
        policy = BoostPolicy()
        out = policy.evaluate(15.0, 4, compute_fraction=0.0)
        assert out.time_scale == pytest.approx(1.0)  # boost can't help
        assert out.duty_cycle > 0  # but it still engages (and costs power)

    def test_fewer_cores_cost_less_boost_power(self):
        policy = BoostPolicy(extra_power_w_at_full=8.0)
        one = policy.evaluate(15.0, 1, 1.0)
        four = policy.evaluate(15.0, 4, 1.0)
        assert one.power_delta_w < four.power_delta_w


class TestBoostOnMachine:
    def _apus(self):
        base = TrinityAPU(noise=NoiseModel.exact(), seed=0)
        boosted = TrinityAPU(
            noise=NoiseModel.exact(), seed=0, boost=BoostPolicy()
        )
        return base, boosted

    def test_boost_only_at_top_pstate_cpu(self):
        base, boosted = self._apus()
        k = make_kernel(mem_fraction=0.1, activity=0.6)
        # Top CPU P-state: boosted machine is faster and hungrier.
        top = cpu_config(3.7, 4)
        assert boosted.true_time_s(k, top) < base.true_time_s(k, top)
        assert boosted.true_total_power_w(k, top) > base.true_total_power_w(k, top)
        # Lower P-states and GPU configs are untouched.
        for cfg in (cpu_config(2.4, 4), gpu_config(0.819, 3.7)):
            assert boosted.true_time_s(k, cfg) == pytest.approx(
                base.true_time_s(k, cfg)
            )
            assert boosted.true_total_power_w(k, cfg) == pytest.approx(
                base.true_total_power_w(k, cfg)
            )

    def test_hot_kernel_does_not_boost(self):
        base, boosted = self._apus()
        hot = make_kernel(activity=1.5, vector_fraction=0.9, dram_intensity=0.9)
        top = cpu_config(3.7, 4)
        assert boosted.true_time_s(hot, top) == pytest.approx(
            base.true_time_s(hot, top)
        )

    def test_cool_kernel_boosts_more_than_warm(self):
        base, boosted = self._apus()
        cool = make_kernel(activity=0.4, mem_fraction=0.1)
        # Warm: close enough to the thermal limit for a partial duty cycle.
        warm = make_kernel(activity=0.55, mem_fraction=0.1)
        top = cpu_config(3.7, 4)

        def speedup(k):
            return base.true_time_s(k, top) / boosted.true_time_s(k, top)

        assert speedup(cool) > speedup(warm) > 1.0

    def test_boost_visible_in_measurements(self):
        base, boosted = self._apus()
        k = make_kernel(mem_fraction=0.1, activity=0.6)
        top = cpu_config(3.7, 4)
        m_base = base.run(k, top)
        m_boost = boosted.run(k, top)
        assert m_boost.time_s < m_base.time_s
