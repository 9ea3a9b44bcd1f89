"""Tests for repro.search.space and the machines' vectorized truth."""

import numpy as np
import pytest

from repro import telemetry
from repro.hardware import NoiseModel, PowerModelConstants, TrinityAPU
from repro.hardware.apu import trinity_physics
from repro.hardware.config import Configuration, Device
from repro.methods.oracle import Oracle
from repro.search.space import (
    ENUMERATION_LIMIT,
    FactorAxis,
    GeneratedConfig,
    SpaceTooLargeError,
    demo_space,
    paper_space,
)
from repro.workloads import build_suite

from .conftest import make_kernel
from .physics_reference import cpu_time_s, gpu_time_s, power_w
from tests.conftest import cpu_config, gpu_config


@pytest.fixture(scope="module")
def suite():
    return build_suite()


@pytest.fixture(scope="module")
def kernel(suite):
    return suite.get("LU/Small/LUDecomposition")


# ---------------------------------------------------------------------------
# FactorAxis / GeneratedConfig
# ---------------------------------------------------------------------------


class TestFactorAxis:
    def test_rejects_empty_and_duplicates(self):
        with pytest.raises(ValueError, match="no levels"):
            FactorAxis("f", ())
        with pytest.raises(ValueError, match="duplicate"):
            FactorAxis("f", (1.0, 1.0))
        with pytest.raises(ValueError, match="non-finite"):
            FactorAxis("f", (1.0, float("nan")))

    def test_len(self):
        assert len(FactorAxis("f", (1.0, 2.0, 3.0))) == 3


class TestGeneratedConfig:
    def test_label_and_identity(self):
        cfg = GeneratedConfig(
            space="s", names=("a", "b"), values=(1.5, 2.0)
        )
        assert cfg.label() == "s[a=1.5,b=2]"
        assert hash(cfg) == hash(
            GeneratedConfig(space="s", names=("a", "b"), values=(1.5, 2.0))
        )


# ---------------------------------------------------------------------------
# Batch evaluation path: bit-identical to the former scalar models
# ---------------------------------------------------------------------------


class TestBatchBitIdentity:
    def _all_configs(self):
        return list(TrinityAPU().config_space)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_batch_matches_scalar_over_whole_space(self, seed):
        rng = np.random.default_rng(seed)
        k = make_kernel(
            work_s=float(rng.uniform(0.1, 5.0)),
            parallel_fraction=float(rng.uniform(0.3, 0.99)),
            mem_fraction=float(rng.uniform(0.0, 0.9)),
            gpu_affinity=float(rng.uniform(0.2, 10.0)),
            gpu_mem_fraction=float(rng.uniform(0.0, 0.9)),
            dram_intensity=float(rng.uniform(0.0, 1.0)),
        )
        cfgs = self._all_configs()
        is_gpu = np.array([c.device is Device.GPU for c in cfgs])
        f = np.array([c.cpu_freq_ghz for c in cfgs])
        n = np.array([float(c.n_threads) for c in cfgs])
        g = np.array([c.gpu_freq_ghz for c in cfgs])
        rates, powers = TrinityAPU().batch_rate_power(k, is_gpu, f, n, g)
        for i, c in enumerate(cfgs):
            t = (
                gpu_time_s(k, c.gpu_freq_ghz, c.cpu_freq_ghz)
                if c.device is Device.GPU
                else cpu_time_s(k, c.cpu_freq_ghz, c.n_threads)
            )
            assert rates[i] == 1.0 / t  # bit-identical, not approx
            assert powers[i] == power_w(k, c).total_w

    def test_component_kernels_match(self):
        k = make_kernel()
        f = np.array([1.4, 3.7])
        n = np.array([1.0, 4.0])
        g = np.array([0.311, 0.819])
        t, cpu_w, nbgpu_w = trinity_physics(
            k, PowerModelConstants(), np.array([False, True]), f, n, g
        )
        assert t[0] == cpu_time_s(k, 1.4, 1)
        assert t[1] == gpu_time_s(k, 0.819, 3.7)
        for i, cfg in enumerate(
            (cpu_config(1.4, 1), gpu_config(0.819, 3.7))
        ):
            pb = power_w(k, cfg)
            assert (cpu_w[i], nbgpu_w[i]) == (pb.cpu_plane_w, pb.nbgpu_plane_w)


# ---------------------------------------------------------------------------
# The paper space
# ---------------------------------------------------------------------------


class TestPaperSpace:
    def test_shape(self):
        sp = paper_space()
        # device, CPU P-state, threads, GPU P-state, GPU units (one).
        assert sp.size == 2 * 6 * 4 * 3 * 1
        assert sp.n_axes == 5
        assert list(sp.radices) == [2, 6, 4, 3, 1]

    def test_canonicalize_collapses_dont_care_axes(self):
        sp = paper_space()
        g = np.array([[1, 2, 3, 1, 0], [0, 2, 3, 2, 0]])
        canon = sp.canonicalize(g)
        assert canon[0, 2] == 0  # GPU row: one host thread
        assert canon[0, 1] == 2  # GPU row: the host P-state is an axis
        assert canon[1, 3] == 0  # CPU row: GPU parked at min P-state
        assert np.array_equal(sp.canonicalize(canon), canon)  # idempotent

    def test_canonical_genomes_cover_the_42_valid_configs(self):
        sp = paper_space()
        payloads = sp.payloads(sp.all_genomes())
        assert all(isinstance(c, Configuration) for c in payloads)
        assert len(set(payloads)) == 42

    def test_sample_genomes_in_bounds_and_canonical(self, kernel):
        sp = paper_space()
        g = sp.sample_genomes(np.random.default_rng(0), 200)
        assert g.shape == (200, 5)
        assert g.min() >= 0 and np.all(g < sp.radices)
        assert np.array_equal(sp.canonicalize(g), g)

    def test_exact_frontier_equals_oracle_frontier(self, suite):
        sp = paper_space()
        oracle = Oracle(TrinityAPU(noise=NoiseModel.exact(), seed=0))
        for k in list(suite)[:8]:
            mine = sp.exact_frontier(k)
            ref = oracle.true_frontier(k)
            assert np.array_equal(mine.powers, ref.powers)
            assert np.array_equal(mine.performances, ref.performances)

    def test_exact_frontier_memoized_with_counters(self, kernel):
        sp = paper_space()
        hits = telemetry.counter("cache.search_space.hits")
        misses = telemetry.counter("cache.search_space.misses")
        first = sp.exact_frontier(kernel)
        h0, m0 = hits.value, misses.value
        again = sp.exact_frontier(kernel)
        assert again is first
        assert hits.value == h0 + 1 and misses.value == m0
        # A structurally-equal space hits the same memo entry.
        assert paper_space().exact_frontier(kernel) is first

    def test_validate_genomes_rejects_bad_shapes(self):
        sp = paper_space()
        with pytest.raises(ValueError, match="must be"):
            sp.validate_genomes(np.zeros((3, 2), dtype=np.int64))
        with pytest.raises(ValueError, match="out of axis bounds"):
            sp.validate_genomes(np.array([[0, 9, 0, 0, 0]]))


# ---------------------------------------------------------------------------
# The demo space
# ---------------------------------------------------------------------------


class TestDemoSpace:
    def test_is_combinatorial_and_gated(self):
        dm = demo_space()
        assert dm.size >= 1_000_000
        assert dm.size > ENUMERATION_LIMIT
        with pytest.raises(SpaceTooLargeError, match="enumeration is gated"):
            dm.all_genomes()
        with pytest.raises(SpaceTooLargeError):
            dm.exact_frontier(make_kernel())

    def test_evaluation_is_finite_and_positive(self, kernel):
        dm = demo_space()
        g = dm.sample_genomes(np.random.default_rng(1), 5000)
        rates, powers = dm.evaluate(kernel, g)
        assert rates.shape == powers.shape == (5000,)
        assert np.all(np.isfinite(rates)) and np.all(rates > 0)
        assert np.all(np.isfinite(powers)) and np.all(powers > 0)

    def test_parallel_evaluation_matches_serial(self, kernel):
        dm = demo_space()
        g = dm.sample_genomes(np.random.default_rng(2), 40_000)
        serial = dm.evaluate(kernel, g, n_jobs=1)
        threaded = dm.evaluate(kernel, g, n_jobs=4)
        assert np.array_equal(serial[0], threaded[0])
        assert np.array_equal(serial[1], threaded[1])

    def test_payloads_are_generated_configs(self):
        dm = demo_space()
        g = dm.sample_genomes(np.random.default_rng(3), 4)
        payloads = dm.payloads(g)
        assert all(isinstance(p, GeneratedConfig) for p in payloads)
        assert payloads[0].space == dm.name
        assert payloads[0].names == tuple(a.name for a in dm.axes)
