"""Tests for the idealized hybrid-execution model (paper §III-A)."""

import pytest

from repro.hardware import NoiseModel, TrinityAPU
from repro.hardware.hybrid import best_hybrid_under_cap, hybrid_execution
from tests.conftest import make_kernel
from tests.conftest import cpu_config, gpu_config


@pytest.fixture(scope="module")
def apu():
    return TrinityAPU(noise=NoiseModel.exact())


class TestHybridExecution:
    def test_perfect_balance_finishes_together(self, apu):
        k = make_kernel()
        point = hybrid_execution(k, 3.7, 4, 0.819)
        t_cpu = apu.true_time_s(k, cpu_config(3.7, 4))
        t_gpu = apu.true_time_s(k, gpu_config(0.819, 3.7))
        # Both sides take the same time on their shares.
        assert point.cpu_share * t_cpu == pytest.approx(
            (1 - point.cpu_share) * t_gpu
        )
        assert point.time_s == pytest.approx(point.cpu_share * t_cpu)

    def test_ideal_hybrid_faster_than_either_device(self, apu):
        k = make_kernel()
        point = hybrid_execution(k, 3.7, 4, 0.819)
        assert point.time_s < apu.true_time_s(k, cpu_config(3.7, 4))
        assert point.time_s < apu.true_time_s(k, gpu_config(0.819, 3.7))

    def test_hybrid_power_exceeds_both_devices(self, apu):
        k = make_kernel()
        point = hybrid_execution(k, 3.7, 4, 0.819)
        p_cpu = apu.true_total_power_w(k, cpu_config(3.7, 4))
        p_gpu = apu.true_total_power_w(k, gpu_config(0.819, 3.7))
        assert point.power_w > p_cpu
        assert point.power_w > p_gpu

    def test_gpu_heavy_kernel_gets_small_cpu_share(self, apu):
        k = make_kernel(gpu_affinity=8.0)
        point = hybrid_execution(k, 3.7, 4, 0.819)
        assert point.cpu_share < 0.35

    def test_cpu_heavy_kernel_gets_large_cpu_share(self, apu):
        k = make_kernel(gpu_affinity=0.2)
        point = hybrid_execution(k, 3.7, 4, 0.819)
        assert point.cpu_share > 0.6

    def test_efficiency_slows_but_does_not_change_power(self, apu):
        k = make_kernel()
        ideal = hybrid_execution(k, 3.7, 4, 0.819, efficiency=1.0)
        real = hybrid_execution(k, 3.7, 4, 0.819, efficiency=0.5)
        assert real.time_s == pytest.approx(ideal.time_s * 2)
        assert real.power_w == pytest.approx(ideal.power_w)

    def test_efficiency_validation(self, apu):
        k = make_kernel()
        with pytest.raises(ValueError):
            hybrid_execution(k, 3.7, 4, 0.819, efficiency=0.0)
        with pytest.raises(ValueError):
            hybrid_execution(k, 3.7, 4, 0.819, efficiency=1.5)


class TestBestHybridUnderCap:
    def test_low_cap_infeasible(self, apu):
        k = make_kernel()
        assert best_hybrid_under_cap(k, 15.0) is None

    def test_unconstrained_returns_best_point(self, apu):
        k = make_kernel()
        best = best_hybrid_under_cap(k, float("inf"))
        assert best is not None
        # Exhaustive check against a manual sweep.
        from repro.hardware import pstates

        manual = max(
            (
                hybrid_execution(k, f, n, g)
                for f in pstates.CPU_FREQS_GHZ
                for n in range(1, 5)
                for g in pstates.GPU_FREQS_GHZ
            ),
            key=lambda p: p.performance,
        )
        assert best.performance == pytest.approx(manual.performance)

    def test_capped_result_respects_cap(self, apu):
        k = make_kernel()
        best = best_hybrid_under_cap(k, 35.0)
        if best is not None:
            assert best.power_w <= 35.0


class TestEnumerationMemo:
    def test_repeated_enumeration_hits_cache(self):
        from repro import telemetry
        from repro.hardware.hybrid import enumerate_hybrid_points

        k = make_kernel(work_s=0.777)  # unlikely to collide with other tests
        hits = telemetry.counter("cache.hybrid_points.hits")
        misses = telemetry.counter("cache.hybrid_points.misses")
        first = enumerate_hybrid_points(k)
        h0, m0 = hits.value, misses.value
        second = enumerate_hybrid_points(k)
        assert hits.value == h0 + 1 and misses.value == m0
        assert second == first
        assert telemetry.gauge("cache.hybrid_points.size").value >= 1

    def test_distinct_parameters_miss(self):
        from repro import telemetry
        from repro.hardware.hybrid import enumerate_hybrid_points

        k = make_kernel(work_s=0.778)
        misses = telemetry.counter("cache.hybrid_points.misses")
        enumerate_hybrid_points(k, efficiency=1.0)
        m0 = misses.value
        enumerate_hybrid_points(k, efficiency=0.5)
        assert misses.value == m0 + 1

    def test_returned_list_is_caller_owned(self):
        from repro.hardware.hybrid import enumerate_hybrid_points

        k = make_kernel(work_s=0.779)
        first = enumerate_hybrid_points(k)
        first.clear()  # mutating the returned list must not poison the memo
        again = enumerate_hybrid_points(k)
        assert len(again) > 0
