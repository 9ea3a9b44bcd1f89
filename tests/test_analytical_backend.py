"""One machine implementation, exercised on every registered backend.

Every backend — Trinity included — is an
:class:`~repro.hardware.backend.AnalyticalBackend`, so the measurement
template path, the frequency limiter's walks and the fault injector's
P-state substitution are shared code.  These tests pin, per backend:

* ``run`` and ``observe`` + ``measurement`` equal per-axis lognormal
  draws (:mod:`tests.physics_reference`) on a cloned generator, under
  full, exact and partial noise, with and without boost and an empty
  fault plan;
* boost and partial noise take the memoized template path: a limiter
  noise block, and profile and oracle-frontier memo hits;
* the limiter's walks stay inside the machine's space, never raise a
  frequency on the way down, and end cap-compliant or at their floor;
* every committed fault plan runs through ``run``, ``observe`` and
  ``ProfilingLibrary.profile`` failing only with ``SampleRunError``;
* ``run_loocv`` evaluates the frequency-limiting methods everywhere.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.constants import respects_cap
from repro.faults import FaultEvent, FaultInjector, FaultPlan
from repro.faults.errors import SampleRunError
from repro.hardware import BoostPolicy, FrequencyLimiter, NoiseModel, TrinityAPU
from repro.hardware.backend import (
    AnalyticalBackend,
    backend_names,
    create_backend,
)
from repro.hardware.counters import synthesize_counters
from repro.methods import Oracle
from repro.profiling import ProfilingLibrary
from repro.workloads import build_suite
from tests.conftest import make_kernel
from tests.physics_reference import perturb_counters, perturb_power, perturb_time

BACKENDS = ("trinity", "biglittle", "mpsoc")
#: Every backend, and Trinity with opportunistic boost.
MACHINES = BACKENDS + ("trinity-boost",)
DESCRIPTOR_BACKENDS = ("biglittle", "mpsoc")
PLAN_DIR = Path(__file__).parent / "fault_plans"
PLANS = tuple(sorted(p.name for p in PLAN_DIR.glob("*.json")))
#: Full, exact and partial noise ("scalar": the counter axis at zero).
NOISE = {
    "vector": NoiseModel(),
    "exact": NoiseModel.exact(),
    "scalar": NoiseModel(counter_rel=0.0),
    "no-time": NoiseModel(time_rel=0.0),
    "no-power": NoiseModel(power_rel=0.0),
}
#: Runs enough to pass every committed plan's last event window.
PLAN_RUNS = 450


def _same_float(a: float, b: float) -> bool:
    return type(a) is type(b) and (a == b or (math.isnan(a) and math.isnan(b)))


def _machine(name: str, *, seed: int = 0, noise: NoiseModel | None = None):
    if name == "trinity-boost":
        return TrinityAPU(seed=seed, noise=noise, boost=BoostPolicy())
    return create_backend(name, seed=seed, noise=noise)


def _reference(apu, kernel, cfg, rng) -> tuple:
    """A run's readings from per-axis lognormal draws."""
    noise = apu.noise
    pb = apu.true_power(kernel, cfg)
    return (
        perturb_time(noise, apu.true_time_s(kernel, cfg), rng),
        perturb_power(noise, pb.cpu_plane_w, rng),
        perturb_power(noise, pb.nbgpu_plane_w, rng),
        perturb_counters(noise, synthesize_counters(kernel, cfg), rng),
    )


def _assert_matches(m, ref, cfg) -> None:
    t, cpu_w, nbgpu_w, counters = ref
    assert m.config == cfg
    assert _same_float(m.time_s, t)
    assert _same_float(m.cpu_plane_w, cpu_w)
    assert _same_float(m.nbgpu_plane_w, nbgpu_w)
    assert list(m.counters) == list(counters)
    for name, value in counters.items():
        assert _same_float(m.counters[name], value), name


def test_every_registered_backend_is_analytical():
    assert set(backend_names()) == set(BACKENDS)
    for name in BACKENDS:
        assert isinstance(create_backend(name), AnalyticalBackend)
    assert issubclass(TrinityAPU, AnalyticalBackend)


class TestSharedMeasurementPath:
    @pytest.mark.parametrize("plan", [None, "empty"])
    @pytest.mark.parametrize("noise", sorted(NOISE))
    @pytest.mark.parametrize("backend", MACHINES)
    def test_run_and_observe_equal_per_axis_draws(self, backend, noise, plan):
        kernel = make_kernel(work_s=0.731)
        run_apu, observe_apu = (
            _machine(backend, seed=0, noise=NOISE[noise]) for _ in range(2)
        )
        if plan is not None:
            for apu in (run_apu, observe_apu):
                apu.inject_faults(FaultPlan())
        configs = list(run_apu.config_space)
        ref_rng = np.random.default_rng(17)
        run_rng, observe_rng = np.random.default_rng(17), np.random.default_rng(17)
        refs = []
        for cfg in configs:
            ref = _reference(run_apu, kernel, cfg, ref_rng)
            _assert_matches(run_apu.run(kernel, cfg, rng=run_rng), ref, cfg)
            assert run_rng.bit_generator.state == ref_rng.bit_generator.state
            refs.append(ref)
        for (cfg, power, reading), ref in zip(
            observe_apu.observe(kernel, configs, rng=observe_rng), refs
        ):
            m = observe_apu.measurement(cfg, reading)
            _assert_matches(m, ref, cfg)
            assert power == m.total_power_w
        assert observe_rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("noise", sorted(NOISE))
    @pytest.mark.parametrize("backend", MACHINES)
    def test_noise_block_unless_fault_injected(self, backend, noise):
        apu = _machine(backend, noise=NOISE[noise])
        kernel = make_kernel()
        assert apu.noise_block(kernel) is not None
        apu.inject_faults(FaultPlan())
        assert apu.noise_block(kernel) is None

    def test_boost_keys_the_truth_memos(self):
        kernel = make_kernel(work_s=0.6143)
        plain, boosted = TrinityAPU(), TrinityAPU(boost=BoostPolicy())
        assert boosted.true_table(kernel) is TrinityAPU(boost=BoostPolicy()).true_table(kernel)
        assert boosted.true_table(kernel) != plain.true_table(kernel)
        # Assigning a policy rebinds the memos.
        plain.boost = BoostPolicy()
        assert plain.true_table(kernel) is boosted.true_table(kernel)
        plain.boost = None
        assert plain.true_table(kernel) is TrinityAPU().true_table(kernel)

    def test_boosted_profiles_hit_the_memo(self):
        kernels = list(build_suite())[:2]
        hits, misses = (telemetry.counter(f"cache.profile.{n}") for n in ("hits", "misses"))
        first = ProfilingLibrary(TrinityAPU(boost=BoostPolicy()), seed=41)
        profiles = first.profile_sweeps(kernels)
        before = (hits.value, misses.value)
        second = ProfilingLibrary(TrinityAPU(boost=BoostPolicy()), seed=41)
        assert second.profile_sweeps(kernels) == profiles
        runs = sum(len(sweep) for sweep in profiles)
        assert (hits.value, misses.value) == (before[0] + runs, before[1])

    def test_boosted_oracle_frontier_hits_the_memo(self):
        kernel = next(iter(build_suite()))
        hits = telemetry.counter("cache.oracle_frontier.hits")
        frontier = Oracle(TrinityAPU(boost=BoostPolicy())).true_frontier(kernel)
        before = hits.value
        assert Oracle(TrinityAPU(boost=BoostPolicy())).true_frontier(kernel) is frontier
        assert hits.value == before + 1
        assert Oracle(TrinityAPU()).true_frontier(kernel) is not frontier

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_truth_table_is_memoized_per_constants(self, backend):
        kernel = make_kernel(work_s=0.5137)
        a, b = create_backend(backend, seed=1), create_backend(backend, seed=2)
        table = a.true_table(kernel)
        assert b.true_table(kernel) is table
        for cfg, (power, perf) in table.items():
            assert power == a.true_total_power_w(kernel, cfg)
            assert perf == a.true_performance(kernel, cfg)


def _down_walk_is_monotone(trace) -> None:
    for (prev, _), (cfg, _) in zip(trace, trace[1:]):
        assert cfg.device is prev.device
        assert cfg.n_threads == prev.n_threads
        assert cfg.cpu_freq_ghz <= prev.cpu_freq_ghz
        assert cfg.gpu_freq_ghz <= prev.gpu_freq_ghz
        assert (cfg.cpu_freq_ghz, cfg.gpu_freq_ghz) != (
            prev.cpu_freq_ghz,
            prev.gpu_freq_ghz,
        )


def _at_floor(cfg) -> bool:
    d = cfg.descriptor
    if cfg.is_gpu:
        return (
            cfg.gpu_freq_ghz == d.secondary.min_freq_ghz
            and cfg.cpu_freq_ghz == d.host_freqs_ghz()[0]
        )
    return cfg.cpu_freq_ghz == d.primary.min_freq_ghz


class TestLimiterOnDescriptorBackends:
    @settings(max_examples=60, deadline=None)
    @given(
        backend=st.sampled_from(DESCRIPTOR_BACKENDS),
        policy=st.sampled_from(("limit", "limit_cpu_all_cores", "limit_gpu_with_headroom")),
        start_index=st.integers(min_value=0, max_value=10_000),
        cap=st.floats(min_value=0.5, max_value=60.0),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_walks_stay_in_space_and_descend(
        self, backend, policy, start_index, cap, seed
    ):
        apu = create_backend(backend, seed=seed)
        limiter = FrequencyLimiter(apu)
        kernel = make_kernel()
        if policy == "limit":
            configs = list(apu.config_space)
            start = configs[start_index % len(configs)]
            result = limiter.limit(kernel, start, cap)
        else:
            result = getattr(limiter, policy)(kernel, cap)
            start = result.trace[0][0]
        assert result.trace[0][0] == start
        for cfg, _ in result.trace:
            assert cfg in apu.config_space
        # The host is fixed on these machines: the headroom step is
        # empty, so every trace is one walk down.
        _down_walk_is_monotone(result.trace)
        assert result.final_config == result.trace[-1][0]
        assert result.met_cap == respects_cap(result.trace[-1][1], cap)
        assert result.met_cap or _at_floor(result.final_config)
        assert result.final_measurement.config == result.final_config

    @pytest.mark.parametrize("backend", DESCRIPTOR_BACKENDS)
    def test_policies_start_from_the_sample_configs(self, backend):
        apu = create_backend(backend, seed=0)
        primary, secondary = apu.descriptor.sample_configs()
        limiter = FrequencyLimiter(apu)
        cap = 1e6  # met at once
        assert limiter.limit_cpu_all_cores(make_kernel(), cap).trace[0][0] == primary
        gpu = limiter.limit_gpu_with_headroom(make_kernel(), cap)
        assert [cfg for cfg, _ in gpu.trace] == [secondary]

    def test_trinity_gpu_policy_starts_at_the_lowest_host(self):
        apu = TrinityAPU(seed=0)
        result = FrequencyLimiter(apu).limit_gpu_with_headroom(make_kernel(), 1e6)
        start = result.trace[0][0]
        assert start.is_gpu
        assert start.gpu_freq_ghz == apu.descriptor.secondary.max_freq_ghz
        assert start.cpu_freq_ghz == apu.descriptor.primary.min_freq_ghz
        # Headroom walks the whole host ladder up.
        assert result.final_config.cpu_freq_ghz == apu.descriptor.primary.max_freq_ghz


def _plan_machine(backend: str, plan: str):
    apu = create_backend(backend, seed=3)
    apu.inject_faults(FaultPlan.from_file(PLAN_DIR / plan))
    return apu


class TestFaultPlansOnEveryBackend:
    @pytest.mark.parametrize("plan", PLANS)
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_run_fails_only_with_sample_run_error(self, backend, plan):
        apu = _plan_machine(backend, plan)
        configs = list(apu.config_space)
        kernel = make_kernel()
        failures = substituted = 0
        for i in range(PLAN_RUNS):
            cfg = configs[i % len(configs)]
            try:
                m = apu.run(kernel, cfg)
            except SampleRunError:
                failures += 1
            else:
                assert m.config in apu.config_space
                substituted += m.config != cfg
        assert apu.fault_injector.runs_started == PLAN_RUNS
        if "run_failure" in {ev.kind for ev in apu.fault_injector.plan}:
            assert failures > 0
        if plan == "stuck_pstate.json":
            assert substituted > 0

    @pytest.mark.parametrize("plan", PLANS)
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_observe_fails_only_with_sample_run_error(self, backend, plan):
        apu = _plan_machine(backend, plan)
        configs = list(apu.config_space)
        ladder = [configs[i % len(configs)] for i in range(PLAN_RUNS)]
        readings = list(apu.observe(make_kernel(), ladder))
        assert [cfg for cfg, _, _ in readings] == ladder
        for cfg, power, reading in readings:
            if reading is None:
                assert math.isnan(power)
            else:
                assert apu.measurement(cfg, reading).config in apu.config_space

    @pytest.mark.parametrize("plan", PLANS)
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_profile_fails_only_with_sample_run_error(self, backend, plan):
        apu = _plan_machine(backend, plan)
        library = ProfilingLibrary(apu, seed=3)
        configs = list(apu.config_space)
        kernel = next(iter(build_suite()))
        for i in range(PLAN_RUNS):
            try:
                profile = library.profile(kernel, configs[i % len(configs)])
            except SampleRunError:
                continue
            assert profile.measurement.config in apu.config_space

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_no_pstate_event_returns_the_config_itself(self, backend):
        apu = create_backend(backend)
        injector = FaultInjector(
            FaultPlan(events=(FaultEvent(kind="power_dropout", start=0, duration=99),))
        )
        for cfg in apu.config_space:
            assert injector.begin_run(cfg).config is cfg

    @pytest.mark.parametrize("backend", DESCRIPTOR_BACKENDS)
    def test_cpu_pstate_event_skips_fixed_host_secondary_rows(self, backend):
        apu = create_backend(backend)
        injector = FaultInjector(
            FaultPlan(
                events=(
                    FaultEvent(
                        kind="pstate_stuck", start=0, duration=10_000, device="cpu"
                    ),
                )
            )
        )
        injected = telemetry.counter("faults.injected.pstate_stuck")
        for cfg in apu.config_space:
            before = injected.value
            ctx = injector.begin_run(cfg)
            assert injected.value - before == (0 if cfg.is_gpu else 1)
            if cfg.is_gpu:
                assert ctx.clean and ctx.config is cfg
            else:
                assert ctx.config.cpu_freq_ghz == apu.descriptor.primary.min_freq_ghz
                assert ctx.config.n_threads == cfg.n_threads
                assert ctx.config in apu.config_space


@pytest.mark.parametrize("backend", DESCRIPTOR_BACKENDS)
def test_run_loocv_evaluates_frequency_limiting_everywhere(backend):
    from repro.evaluation import run_loocv

    report = run_loocv(seed=0, backend=backend)
    methods = {r.method for r in report.records}
    assert methods == {"Model", "Model+FL", "CPU+FL", "GPU+FL"}
