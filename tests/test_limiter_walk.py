"""The frequency limiter's ladder walk against the step-by-step loop.

:class:`~repro.hardware.FrequencyLimiter` walks a memoized P-state
ladder; on a machine without a fault injector a whole cap sweep reads
its steps from one block of standard normals
(:meth:`AnalyticalBackend.noise_block`), and fault-injected machines
step through :meth:`observe`.  The settled measurement is built only
when asked.  These tests pin that it is an optimisation and nothing
more: against :class:`tests.limiter_reference.ReferenceLimiter` every
result, every generator state and every counter agrees, on every
backend, under full, exact and partial noise, boost, and each committed
fault plan.
"""

from __future__ import annotations

import itertools
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.faults import FaultEvent, FaultPlan
from repro.faults.errors import SampleRunError
from repro.hardware import (
    BoostPolicy,
    Configuration,
    FrequencyLimiter,
    NoiseModel,
    TrinityAPU,
)
from repro.hardware.backend import TRINITY_DESCRIPTOR, _lognormal, create_backend
from repro.hardware.counters import synthesize_counters
from repro.hardware.rapl import _ladder
from tests.conftest import make_kernel
from tests.limiter_reference import ReferenceLimiter
from tests.physics_reference import perturb_counters, perturb_power, perturb_time

PLAN_DIR = Path(__file__).parent / "fault_plans"
PLANS = (None,) + tuple(sorted(p.name for p in PLAN_DIR.glob("*.json")))
CONFIGS = tuple(TRINITY_DESCRIPTOR.config_space())
BACKENDS = ("trinity", "biglittle", "mpsoc")
SPACES = {name: tuple(create_backend(name).config_space) for name in BACKENDS}
#: Full, exact and partial noise ("scalar": the counter axis at zero).
NOISE = {
    "vector": NoiseModel(),
    "exact": NoiseModel.exact(),
    "scalar": NoiseModel(counter_rel=0.0),
    "no-time": NoiseModel(time_rel=0.0),
    "no-power": NoiseModel(power_rel=0.0),
}
POLICIES = ("limit", "limit_gpu_with_headroom", "limit_cpu_all_cores")
COUNTERS = (
    "cache.measurement_template.hits",
    "cache.measurement_template.misses",
    "faults.limiter.worst_case_reads",
    "faults.limiter.failed_runs",
)


def _machine(noise: str, plan: str | None, boost: bool, seed: int) -> TrinityAPU:
    apu = TrinityAPU(
        noise=NOISE[noise], seed=seed, boost=BoostPolicy() if boost else None
    )
    if plan is not None:
        apu.inject_faults(FaultPlan.from_file(PLAN_DIR / plan))
    return apu


def _call(limiter, policy: str, kernel, start: Configuration, cap: float, rng):
    if policy == "limit":
        return limiter.limit(kernel, start, cap, rng=rng)
    return getattr(limiter, policy)(kernel, cap, rng=rng)


def _same_float(a: float, b: float) -> bool:
    return type(a) is type(b) and (a == b or (math.isnan(a) and math.isnan(b)))


def assert_same_measurement(got, ref) -> None:
    assert got.config == ref.config
    for name in ("time_s", "cpu_plane_w", "nbgpu_plane_w"):
        assert _same_float(getattr(got, name), getattr(ref, name)), name
    assert list(got.counters) == list(ref.counters)
    for name, value in ref.counters.items():
        assert _same_float(got.counters[name], value), name


def _stream_state(apu: TrinityAPU, rng) -> dict:
    return (rng if rng is not None else apu._rng).bit_generator.state


def _counter_values() -> dict[str, int]:
    return {name: telemetry.counter(name).value for name in COUNTERS}


def _delta(before: dict[str, int]) -> dict[str, int]:
    after = _counter_values()
    return {k: after[k] - before[k] for k in COUNTERS}


def _forget_templates(apu: TrinityAPU, kernel) -> None:
    """Drop ``kernel``'s process-wide measurement templates."""
    for key in [key for key in apu._meas_cache if key[0] == kernel]:
        del apu._meas_cache[key]


class TestLadderWalkMatchesReference:
    @settings(max_examples=120, deadline=None)
    @given(
        noise=st.sampled_from(sorted(NOISE)),
        plan=st.sampled_from(PLANS),
        boost=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**16),
        pass_rng=st.booleans(),
        warmup=st.integers(min_value=0, max_value=300),
        walks=st.lists(
            st.tuples(
                st.sampled_from(POLICIES),
                st.sampled_from(CONFIGS),
                st.floats(min_value=5.0, max_value=80.0),
            ),
            min_size=1,
            max_size=20,
        ),
    )
    def test_results_and_stream_match(
        self, noise, plan, boost, seed, pass_rng, warmup, walks
    ):
        kernel = make_kernel()
        ref_apu, apu = (_machine(noise, plan, boost, seed) for _ in range(2))
        if plan is not None:
            # Advance both fault clocks into the plan's event windows.
            for machine in (ref_apu, apu):
                for i in range(warmup):
                    try:
                        machine.run(kernel, CONFIGS[i % len(CONFIGS)])
                    except SampleRunError:
                        pass
        ref_rng, rng = (
            (np.random.default_rng(seed), np.random.default_rng(seed))
            if pass_rng
            else (None, None)
        )
        reference, limiter = ReferenceLimiter(ref_apu), FrequencyLimiter(apu)
        pairs = []
        for policy, start, cap in walks:
            ref = _call(reference, policy, kernel, start, cap, ref_rng)
            got = _call(limiter, policy, kernel, start, cap, rng)
            assert got.trace == ref.trace
            assert got.final_config == ref.final_config
            assert got.met_cap == ref.met_cap
            assert _stream_state(apu, rng) == _stream_state(ref_apu, ref_rng)
            pairs.append((got, ref))
        # Settled measurements are built lazily; later walks must not
        # change what an earlier result reports.
        for got, ref in pairs:
            assert_same_measurement(got.final_measurement, ref.final_measurement)

    @pytest.mark.parametrize("noise", sorted(NOISE))
    def test_every_start_config(self, noise):
        kernel = make_kernel()
        ref_apu, apu = (_machine(noise, None, False, 3) for _ in range(2))
        for start, cap in itertools.product(CONFIGS, (8.0, 20.0, 35.0, 60.0)):
            ref = ReferenceLimiter(ref_apu).limit(kernel, start, cap)
            got = FrequencyLimiter(apu).limit(kernel, start, cap)
            assert got.trace == ref.trace
            assert got.final_config == ref.final_config
            assert got.met_cap == ref.met_cap
            assert_same_measurement(got.final_measurement, ref.final_measurement)
            assert _stream_state(apu, None) == _stream_state(ref_apu, None)


def _backend_machine(backend: str, noise: str, plan: str | None, boost: bool, seed: int):
    """A machine of ``backend``; boost exists on Trinity only."""
    if backend == "trinity":
        return _machine(noise, plan, boost, seed)
    apu = create_backend(backend, seed=seed, noise=NOISE[noise])
    if plan is not None:
        apu.inject_faults(FaultPlan.from_file(PLAN_DIR / plan))
    return apu


CAP_KINDS = ("below-floor", "above-start", "on-rung", "between")


def _cap(apu, kernel, start: Configuration, kind: str, frac: float) -> float:
    """A cap of ``kind`` for a walk from ``start``: below every rung's
    true power, above all of them, exactly one rung's true power (of the
    walk's own ladders, down and up), or anywhere in between."""
    rungs = _ladder(start, True) + _ladder(start, False)
    powers = [apu.true_total_power_w(kernel, cfg) for cfg in rungs]
    lo, hi = min(powers), max(powers)
    if kind == "below-floor":
        return lo * (0.2 + 0.75 * frac)
    if kind == "above-start":
        return hi * (1.01 + frac)
    if kind == "on-rung":
        return powers[min(int(frac * len(powers)), len(powers) - 1)]
    return lo + frac * (hi - lo)


kernels = st.builds(
    make_kernel,
    work_s=st.floats(min_value=0.01, max_value=5.0),
    parallel_fraction=st.floats(min_value=0.0, max_value=1.0),
    mem_fraction=st.floats(min_value=0.0, max_value=0.9),
    gpu_affinity=st.floats(min_value=0.1, max_value=20.0),
    activity=st.floats(min_value=0.1, max_value=2.0),
    gpu_activity=st.floats(min_value=0.1, max_value=2.0),
    dram_intensity=st.floats(min_value=0.0, max_value=1.0),
)


class TestSweepMatchesReference:
    """``limit_many`` against one reference walk per cap, in order, on
    each backend's own ladders.  Machines without a fault plan take the
    one-block sweep; fault-injected machines step through
    ``observe``."""

    @settings(max_examples=150, deadline=None)
    @given(
        backend=st.sampled_from(BACKENDS),
        noise=st.sampled_from(sorted(NOISE)),
        plan=st.sampled_from(PLANS),
        boost=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**16),
        pass_rng=st.booleans(),
        headroom=st.booleans(),
        warmup=st.integers(min_value=0, max_value=300),
        kernel=kernels,
        walks=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=10**6),
                st.sampled_from(CAP_KINDS),
                st.floats(min_value=0.0, max_value=1.0),
            ),
            min_size=1,
            max_size=16,
        ),
    )
    def test_configs_runs_stream_and_counters_match(
        self, backend, noise, plan, boost, seed, pass_rng, headroom, warmup,
        kernel, walks,
    ):
        space = SPACES[backend]
        ref_apu, apu = (
            _backend_machine(backend, noise, plan, boost, seed) for _ in range(2)
        )
        if plan is not None:
            # Advance both fault clocks into the plan's event windows.
            for machine in (ref_apu, apu):
                for i in range(warmup):
                    try:
                        machine.run(kernel, space[i % len(space)])
                    except SampleRunError:
                        pass
        starts = [space[i % len(space)] for i, _, _ in walks]
        caps = [
            _cap(ref_apu, kernel, start, kind, frac)
            for start, (_, kind, frac) in zip(starts, walks)
        ]
        ref_rng, rng = (
            (np.random.default_rng(seed), np.random.default_rng(seed))
            if pass_rng
            else (None, None)
        )

        _forget_templates(ref_apu, kernel)  # both sweeps start cold
        before = _counter_values()
        reference = ReferenceLimiter(ref_apu)
        refs = [
            reference.limit(kernel, start, cap, rng=ref_rng, headroom=headroom)
            for start, cap in zip(starts, caps)
        ]
        ref_delta = _delta(before)

        _forget_templates(apu, kernel)
        before = _counter_values()
        got = FrequencyLimiter(apu).limit_many(
            kernel, starts, caps, rng=rng, headroom=headroom
        )
        assert _delta(before) == ref_delta
        assert got == [(ref.final_config, len(ref.trace)) for ref in refs]
        assert _stream_state(apu, rng) == _stream_state(ref_apu, ref_rng)

    @pytest.mark.parametrize("noise", sorted(NOISE))
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_every_start_config(self, backend, noise):
        """One-cap sweeps return the reference's trace and settled
        measurement from every start, with and without headroom."""
        kernel = make_kernel(work_s=0.377)
        ref_apu, apu = (
            _backend_machine(backend, noise, None, False, 8) for _ in range(2)
        )
        limiter, reference = FrequencyLimiter(apu), ReferenceLimiter(ref_apu)
        cases = itertools.product(
            SPACES[backend],
            (("below-floor", 0.5), ("on-rung", 0.4), ("between", 0.7)),
            (False, True),
        )
        for start, (kind, frac), headroom in cases:
            cap = _cap(ref_apu, kernel, start, kind, frac)
            ref = reference.limit(kernel, start, cap, headroom=headroom)
            got = limiter._limit(kernel, start, cap, None, headroom=headroom)
            assert got.trace == ref.trace
            assert got.final_config == ref.final_config
            assert got.met_cap == ref.met_cap
            assert_same_measurement(got.final_measurement, ref.final_measurement)
            assert _stream_state(apu, None) == _stream_state(ref_apu, None)

    def test_caps_are_validated_before_any_run(self):
        apu = TrinityAPU(seed=0)
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        limiter = FrequencyLimiter(apu)
        with pytest.raises(ValueError, match="power_cap_w"):
            limiter.limit_many(
                make_kernel(), [limiter.cpu_start] * 2, [30.0, math.nan], rng=rng
            )
        assert rng.bit_generator.state == state


class TestTelemetryParity:
    @pytest.mark.parametrize("noise", sorted(NOISE))
    @pytest.mark.parametrize("faulty", [False, True])
    def test_counters_match_reference_loop(self, noise, faulty):
        """Cold then warm walks on one kernel move the template-cache
        and limiter-degradation counters exactly as the per-step loop
        does (one template read per observed step)."""
        kernel = make_kernel(work_s=1.2345)
        plan = FaultPlan(
            events=(
                FaultEvent(kind="power_dropout", start=0, duration=2),
                FaultEvent(kind="run_failure", start=3, duration=1),
            )
        )
        deltas = []
        for limiter_type in (ReferenceLimiter, FrequencyLimiter):
            apu = TrinityAPU(noise=NOISE[noise], seed=5)
            if faulty:
                apu.inject_faults(plan)
            _forget_templates(apu, kernel)
            before = _counter_values()
            limiter = limiter_type(apu)
            for _ in range(2):  # cold, then warm
                limiter.limit_gpu_with_headroom(kernel, 45.0)
                limiter.limit_cpu_all_cores(kernel, 25.0)
            after = _counter_values()
            deltas.append({k: after[k] - before[k] for k in COUNTERS})
        assert deltas[0] == deltas[1]
        assert deltas[1]["cache.measurement_template.hits"] > 0
        assert deltas[1]["cache.measurement_template.misses"] > 0
        if faulty:
            assert deltas[1]["faults.limiter.worst_case_reads"] > 0
            assert deltas[1]["faults.limiter.failed_runs"] > 0


class TestDrawIdentity:
    @pytest.mark.parametrize("axis", ["time_rel", "power_rel", "counter_rel"])
    def test_lognormal_helper_reproduces_generator(self, axis):
        """``_lognormal`` over ``standard_normal`` equals
        ``Generator.lognormal`` bit for bit and leaves the generator in
        the same state (it must use ``math.exp``: ``np.exp`` is not
        bit-identical to numpy's lognormal)."""
        rel = getattr(NoiseModel(), axis)
        mean = -0.5 * rel * rel
        ref, ours = np.random.default_rng(11), np.random.default_rng(11)
        expected = ref.lognormal(mean=mean, sigma=rel, size=50_000).tolist()
        expected.append(float(ref.lognormal(mean=mean, sigma=rel)))
        z = ours.standard_normal(50_001).tolist()
        assert [_lognormal(mean, rel, x) for x in z] == expected
        assert ours.bit_generator.state == ref.bit_generator.state

    def test_run_matches_per_axis_lognormal_draws(self):
        """The fused draw equals the per-axis reference draws: time, two
        power planes, then the counters."""
        kernel = make_kernel()
        apu = TrinityAPU(seed=0)
        noise = apu.noise
        for cfg in CONFIGS:
            fused, legacy = np.random.default_rng(9), np.random.default_rng(9)
            m = apu.run(kernel, cfg, rng=fused)
            pb = apu.true_power(kernel, cfg)
            assert m.time_s == perturb_time(noise, apu.true_time_s(kernel, cfg), legacy)
            assert m.cpu_plane_w == perturb_power(noise, pb.cpu_plane_w, legacy)
            assert m.nbgpu_plane_w == perturb_power(noise, pb.nbgpu_plane_w, legacy)
            assert dict(m.counters) == perturb_counters(
                noise, synthesize_counters(kernel, cfg), legacy
            )
            assert fused.bit_generator.state == legacy.bit_generator.state

    @pytest.mark.parametrize("noise", sorted(NOISE))
    def test_observe_step_equals_run(self, noise):
        kernel = make_kernel()
        a, b = TrinityAPU(noise=NOISE[noise], seed=4), TrinityAPU(noise=NOISE[noise], seed=4)
        for cfg, power, reading in a.observe(kernel, CONFIGS):
            m = b.run(kernel, cfg)
            assert power == m.total_power_w
            assert_same_measurement(a.measurement(cfg, reading), m)
        assert a._rng.bit_generator.state == b._rng.bit_generator.state


class TestCapValidation:
    @pytest.mark.parametrize("cap", [math.nan, math.inf, -math.inf, 0.0, -5.0])
    @pytest.mark.parametrize("policy", POLICIES)
    def test_rejects_non_finite_and_non_positive_caps(self, cap, policy):
        apu = TrinityAPU(seed=0)
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="power_cap_w"):
            _call(FrequencyLimiter(apu), policy, make_kernel(), CONFIGS[-1], cap, rng)
        assert rng.bit_generator.state == state  # rejected before any run
