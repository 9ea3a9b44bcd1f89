"""Tests for the workload substrate: suite composition and determinism."""

import numpy as np
import pytest

from repro.workloads import (
    CharacteristicRanges,
    InputScaling,
    Kernel,
    build_suite,
    sample_characteristics,
    stable_seed,
)
from repro.workloads._build import KernelSpec, build_benchmark
from tests.conftest import make_kernel


class TestSuiteComposition:
    def test_paper_counts(self):
        suite = build_suite()
        assert len(suite) == 65  # benchmark/input combinations
        assert suite.distinct_kernel_count() == 36  # distinct kernels

    def test_benchmark_breakdown(self):
        suite = build_suite()
        assert len(suite.for_benchmark("LULESH")) == 40
        assert len(suite.for_benchmark("CoMD")) == 14
        assert len(suite.for_benchmark("SMC")) == 8
        assert len(suite.for_benchmark("LU")) == 3

    def test_benchmarks_and_groups(self):
        suite = build_suite()
        assert suite.benchmarks() == ["LULESH", "CoMD", "SMC", "LU"]
        groups = suite.groups()
        assert "LULESH Small" in groups and "LU Large" in groups
        assert len(groups) == 8  # 2+2+1+3

    def test_uids_unique(self):
        suite = build_suite()
        uids = [k.uid for k in suite]
        assert len(set(uids)) == len(uids)

    def test_get_by_uid(self):
        suite = build_suite()
        k = suite.get("LULESH/Small/CalcFBHourglassForce")
        assert k.benchmark == "LULESH" and k.input_size == "Small"
        with pytest.raises(KeyError):
            suite.get("Nope/Nope/Nope")

    def test_unknown_benchmark_and_group_raise(self):
        suite = build_suite()
        with pytest.raises(KeyError):
            suite.for_benchmark("SPEC")
        with pytest.raises(KeyError):
            suite.for_group("SPEC Ref")

    def test_weights_sum_to_one_per_group(self):
        suite = build_suite()
        for group in suite.groups():
            total = sum(k.time_weight for k in suite.for_group(group))
            assert total == pytest.approx(1.0)


class TestDeterminism:
    def test_suite_identical_across_builds(self):
        s1, s2 = build_suite(), build_suite()
        for a, b in zip(s1, s2):
            assert a == b

    def test_stable_seed_is_stable(self):
        assert stable_seed("LULESH", "k1") == stable_seed("LULESH", "k1")
        assert stable_seed("LULESH", "k1") != stable_seed("LULESH", "k2")
        assert stable_seed("a", "bc") != stable_seed("ab", "c")  # separator works

    def test_same_kernel_different_inputs_share_flavour(self):
        suite = build_suite()
        small = suite.get("LULESH/Small/CalcFBHourglassForce").characteristics
        large = suite.get("LULESH/Large/CalcFBHourglassForce").characteristics
        # Input scaling changes work and memory pressure, not e.g. branchiness.
        assert small.branch_rate == pytest.approx(large.branch_rate)
        assert small.gpu_affinity == pytest.approx(large.gpu_affinity)
        assert large.work_s > small.work_s
        assert large.mem_fraction > small.mem_fraction


class TestDiversity:
    """The suite must reproduce the paper's reported kernel variance."""

    def test_gpu_affinity_spans_both_devices(self):
        suite = build_suite()
        affs = [k.characteristics.gpu_affinity for k in suite]
        assert min(affs) < 1.0  # some kernels prefer the CPU
        assert max(affs) > 6.0  # some kernels strongly prefer the GPU

    def test_memory_boundedness_varies(self):
        suite = build_suite()
        betas = [k.characteristics.mem_fraction for k in suite]
        assert min(betas) < 0.2 and max(betas) > 0.7

    def test_activity_varies_for_power_spread(self):
        suite = build_suite()
        acts = [k.characteristics.activity for k in suite]
        assert max(acts) / min(acts) > 2.0


class TestKernelType:
    def test_kernel_validation(self):
        chars = make_kernel()
        with pytest.raises(ValueError):
            Kernel(name="", benchmark="B", input_size="S", characteristics=chars)
        with pytest.raises(ValueError):
            Kernel(
                name="k", benchmark="B", input_size="S",
                characteristics=chars, time_weight=0.0,
            )

    def test_uid_and_group(self):
        k = Kernel(
            name="k", benchmark="B", input_size="S",
            characteristics=make_kernel(),
        )
        assert k.uid == "B/S/k"
        assert k.group == "B S"


class TestBuildHelpers:
    def test_build_benchmark_validation(self):
        base = CharacteristicRanges()
        inputs = {"Ref": InputScaling()}
        with pytest.raises(ValueError):
            build_benchmark("B", [], base, inputs)
        with pytest.raises(ValueError):
            build_benchmark("B", [KernelSpec("k")], base, {})
        with pytest.raises(ValueError):
            build_benchmark(
                "B", [KernelSpec("k"), KernelSpec("k")], base, inputs
            )
        with pytest.raises(ValueError):
            KernelSpec("k", rel_weight=0.0)

    def test_sample_characteristics_within_ranges(self):
        ranges = CharacteristicRanges(mem_fraction=(0.3, 0.31))
        rng = np.random.default_rng(0)
        for _ in range(10):
            c = sample_characteristics(ranges, rng)
            assert 0.3 <= c.mem_fraction <= 0.31

    def test_sample_characteristics_inverted_range_rejected(self):
        ranges = CharacteristicRanges(mem_fraction=(0.8, 0.2))
        with pytest.raises(ValueError):
            sample_characteristics(ranges, np.random.default_rng(0))

    def test_input_scaling_clamps(self):
        chars = make_kernel(mem_fraction=0.95)
        scaled = InputScaling(mem_shift=0.2).apply(chars)
        assert scaled.mem_fraction <= 0.97

    def test_degenerate_range_returns_constant(self):
        ranges = CharacteristicRanges(work_s=(1.0, 1.0))
        c = sample_characteristics(ranges, np.random.default_rng(0))
        assert c.work_s == 1.0
