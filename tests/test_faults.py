"""Chaos suite for the fault-injection & graceful-degradation layer.

Three layers of assurance:

* **unit** — fault plans validate, serialize, and replay
  deterministically; the injector's run clock, device scoping, P-state
  substitution, and sensor perturbations do exactly what
  ``docs/ROBUSTNESS.md`` says;
* **degradation** — each wired-in fallback fires and is visible in
  telemetry: runtime retries/failed invocations, corrupt-sample
  sanitization, stuck-P-state quarantine, limiter worst-case reads;
* **properties** (Hypothesis) — *any* valid fault plan leaves the
  pipeline crash-free; an empty plan is bit-identical to no plan;
  recoverable ``run_failure``-only plans never *improve* the reported
  timeline (monotone degradation).

The committed scenario files under ``tests/fault_plans/`` double as the
CI fault-matrix inputs; the LOOCV tests here replay each one end to end.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.telemetry as telemetry
from repro.core import OnlinePredictor, Scheduler, train_model
from repro.evaluation import records_digest, run_loocv
from repro.faults import (
    FALLBACK_CPU_PLANE_W,
    FALLBACK_NBGPU_PLANE_W,
    FALLBACK_TIME_S,
    FAULT_KINDS,
    FaultEvent,
    FaultInjector,
    FaultPlan,
    SampleRunError,
    conservative_measurement,
    measurement_is_finite,
    sanitize_measurement,
)
from repro.hardware import (
    FrequencyLimiter,
    NoiseModel,
    TrinityAPU,
    pstates,
)
from repro.profiling import ProfilingLibrary
from repro.profiling.sampler import PowerSampler
from repro.runtime import AdaptiveRuntime, Application
from repro.workloads import build_suite
from tests.conftest import make_kernel
from repro.hardware.backend import TRINITY_DESCRIPTOR, descriptor_for
from tests.conftest import cpu_config, gpu_config

CPU_SAMPLE, GPU_SAMPLE = TRINITY_DESCRIPTOR.sample_configs()

PLAN_DIR = Path(__file__).parent / "fault_plans"
CANNED_PLANS = sorted(PLAN_DIR.glob("*.json"))


def counter_value(name: str) -> int:
    return telemetry.counter(name).value


# ---------------------------------------------------------------------------
# Fault plans: validation, serialization, generators
# ---------------------------------------------------------------------------


class TestFaultEvent:
    def test_defaults_and_window(self):
        ev = FaultEvent(kind="power_dropout", start=5)
        assert ev.duration == 1
        assert ev.stop == 6
        assert not ev.active_at(4)
        assert ev.active_at(5)
        assert not ev.active_at(6)  # half-open window

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"kind": "meteor_strike", "start": 0},
            {"kind": "power_bias", "start": -1},
            {"kind": "power_bias", "start": 0, "duration": 0},
            {"kind": "power_bias", "start": 0, "device": "fpga"},
            {"kind": "power_bias", "start": 0, "magnitude": 0.0},
            {"kind": "power_bias", "start": 0, "magnitude": math.nan},
            {"kind": "pstate_stuck", "start": 0, "pstate_index": 6},
            {"kind": "pstate_stuck", "start": 0, "pstate_index": -1},
        ],
    )
    def test_validation_rejects(self, kwargs):
        with pytest.raises(ValueError):
            FaultEvent(**kwargs)


class TestFaultPlan:
    def test_empty_plan(self):
        plan = FaultPlan()
        assert plan.empty
        assert len(plan) == 0
        assert plan.horizon == 0
        assert plan.active_events(0) == ()

    def test_horizon_and_active_events(self):
        a = FaultEvent(kind="counter_nan", start=2, duration=3)
        b = FaultEvent(kind="power_bias", start=4, duration=10)
        plan = FaultPlan(events=(a, b))
        assert plan.horizon == 14
        assert plan.active_events(1) == ()
        assert plan.active_events(2) == (a,)
        assert plan.active_events(4) == (a, b)  # plan order preserved
        assert plan.active_events(13) == (b,)

    def test_file_round_trip(self, tmp_path):
        plan = FaultPlan.random(11, n_events=5, name="round-trip")
        path = plan.to_file(tmp_path / "plan.json")
        assert FaultPlan.from_file(path) == plan

    def test_from_dict_rejects_unknown_version(self):
        with pytest.raises(ValueError, match="version"):
            FaultPlan.from_dict({"version": 99, "events": []})

    def test_random_is_deterministic(self):
        assert FaultPlan.random(3) == FaultPlan.random(3)
        assert FaultPlan.random(3) != FaultPlan.random(4)

    def test_random_trinity_plans_are_unchanged(self):
        """Seeded plans keep their bytes: the digest of seeds 0-20 was
        computed before plans were sized from a descriptor."""
        digest = hashlib.sha256()
        for seed in range(21):
            plan = FaultPlan.random(seed)
            assert plan == FaultPlan.random(seed, descriptor=TRINITY_DESCRIPTOR)
            digest.update(json.dumps(plan.to_dict(), sort_keys=True).encode())
        assert digest.hexdigest() == (
            "0729f4efa0f6bf799e26c85ec0af6188d7407d519ca1db55673072b995d42be9"
        )

    @pytest.mark.parametrize("backend", ["biglittle", "mpsoc"])
    def test_random_plans_reach_every_rung_of_the_machine(self, backend):
        d = descriptor_for(backend)
        reached = {"cpu": set(), "gpu": set()}
        for seed in range(40):
            for ev in FaultPlan.random(seed, n_events=20, descriptor=d):
                if ev.device is not None:
                    reached[ev.device].add(ev.pstate_index)
        assert reached["gpu"] == set(range(len(d.secondary.freqs_ghz)))
        assert reached["cpu"] == set(range(len(d.primary.freqs_ghz)))

    def test_pstate_index_bound_is_the_deepest_registered_ladder(self):
        FaultEvent(kind="pstate_stuck", start=0, pstate_index=5)
        with pytest.raises(ValueError, match=r"\[0, 6\)"):
            FaultEvent(kind="pstate_stuck", start=0, pstate_index=6)

    def test_random_respects_kind_subset(self):
        plan = FaultPlan.random(0, n_events=20, kinds=("run_failure",))
        assert len(plan) == 20
        assert all(ev.kind == "run_failure" for ev in plan)
        with pytest.raises(ValueError):
            FaultPlan.random(0, kinds=("nope",))

    def test_canned_plans_load(self):
        assert len(CANNED_PLANS) == 3
        for path in CANNED_PLANS:
            plan = FaultPlan.from_file(path)
            assert not plan.empty
            # CI's fault matrix asserts every scheduled event fires
            # during LOOCV, so windows must sit well inside the run
            # clock's reach.
            assert plan.horizon < 500


# ---------------------------------------------------------------------------
# Injector mechanics
# ---------------------------------------------------------------------------

CPU_MAX = cpu_config(3.7, 4)
GPU_MAX = gpu_config(0.819, 3.7)


class TestInjector:
    def test_clock_advances_per_run(self):
        inj = FaultInjector(FaultPlan())
        assert inj.runs_started == 0
        inj.begin_run(CPU_MAX)
        inj.begin_run(GPU_MAX)
        assert inj.runs_started == 2

    def test_empty_plan_context_is_clean(self):
        ctx = FaultInjector(FaultPlan()).begin_run(CPU_MAX)
        assert ctx.clean
        assert ctx.config is CPU_MAX
        sentinel = object()
        assert ctx.apply(sentinel) is sentinel  # bit-identical fast path

    def test_run_failure_raises(self):
        plan = FaultPlan(events=(FaultEvent(kind="run_failure", start=0),))
        inj = FaultInjector(plan)
        with pytest.raises(SampleRunError):
            inj.begin_run(CPU_MAX)
        # Window passed: the next run is clean.
        assert inj.begin_run(CPU_MAX).clean

    def test_gpu_scoped_event_skips_cpu_runs(self):
        plan = FaultPlan(
            events=(FaultEvent(kind="run_failure", start=0, duration=2, device="gpu"),)
        )
        inj = FaultInjector(plan)
        assert inj.begin_run(CPU_MAX).clean  # not targeted
        with pytest.raises(SampleRunError):
            inj.begin_run(GPU_MAX)

    @pytest.mark.parametrize(
        "kind,index,requested,expected",
        [
            ("pstate_stuck", 0, CPU_MAX, cpu_config(1.4, 4)),
            ("thermal_throttle", 2, CPU_MAX, cpu_config(2.4, 4)),
            # Throttle never *raises* the frequency.
            ("thermal_throttle", 4, cpu_config(1.9, 2), cpu_config(1.9, 2)),
            # Unavailable state: governor falls back one state down.
            ("pstate_unavailable", 5, CPU_MAX, cpu_config(3.3, 4)),
            # ... and up at the ladder floor.
            ("pstate_unavailable", 0, cpu_config(1.4, 1), cpu_config(1.9, 1)),
        ],
    )
    def test_cpu_pstate_substitution(self, kind, index, requested, expected):
        plan = FaultPlan(
            events=(
                FaultEvent(kind=kind, start=0, device="cpu", pstate_index=index),
            )
        )
        ctx = FaultInjector(plan).begin_run(requested)
        assert ctx.config == expected
        assert ctx.requested == requested

    def test_gpu_pstate_stuck_targets_gpu_ladder(self):
        plan = FaultPlan(
            events=(
                FaultEvent(kind="pstate_stuck", start=0, device="gpu", pstate_index=0),
            )
        )
        ctx = FaultInjector(plan).begin_run(GPU_MAX)
        assert ctx.config == gpu_config(pstates.GPU_FREQS_GHZ[0], 3.7)

    def test_cpu_scoped_stuck_hits_gpu_host_frequency(self):
        plan = FaultPlan(
            events=(
                FaultEvent(kind="pstate_stuck", start=0, device="cpu", pstate_index=0),
            )
        )
        ctx = FaultInjector(plan).begin_run(GPU_MAX)
        assert ctx.config == gpu_config(0.819, pstates.CPU_FREQS_GHZ[0])

    def test_sensor_bias_scoped_to_plane(self, exact_apu, kernel):
        m = exact_apu.run(kernel, CPU_MAX)
        plan = FaultPlan(
            events=(
                FaultEvent(kind="power_bias", start=0, device="cpu", magnitude=2.0),
            )
        )
        perturbed = FaultInjector(plan).begin_run(CPU_MAX).apply(m)
        assert perturbed.cpu_plane_w == pytest.approx(2.0 * m.cpu_plane_w)
        assert perturbed.nbgpu_plane_w == m.nbgpu_plane_w

    def test_sensor_dropout_and_counter_faults(self, exact_apu, kernel):
        m = exact_apu.run(kernel, CPU_MAX)
        plan = FaultPlan(
            events=(
                FaultEvent(kind="power_dropout", start=0),
                FaultEvent(kind="counter_nan", start=0),
            )
        )
        perturbed = FaultInjector(plan).begin_run(CPU_MAX).apply(m)
        assert math.isnan(perturbed.cpu_plane_w)
        assert math.isnan(perturbed.nbgpu_plane_w)
        assert perturbed.counters and all(
            math.isnan(v) for v in perturbed.counters.values()
        )
        assert not measurement_is_finite(perturbed)

    def test_activation_counters(self):
        plan = FaultPlan(
            events=(FaultEvent(kind="counter_corrupt", start=0, duration=3),)
        )
        inj = FaultInjector(plan)
        before = counter_value("faults.injected.counter_corrupt")
        total_before = counter_value("faults.injected.total")
        for _ in range(5):
            inj.begin_run(CPU_MAX)
        assert counter_value("faults.injected.counter_corrupt") == before + 3
        assert counter_value("faults.injected.total") == total_before + 3


class TestMeasurementHygiene:
    def test_finite_measurement_passes_through(self, exact_apu, kernel):
        m = exact_apu.run(kernel, CPU_MAX)
        assert measurement_is_finite(m)
        assert sanitize_measurement(m) == m

    def test_sanitize_replaces_only_corrupt_fields(self, exact_apu, kernel):
        import dataclasses

        m = exact_apu.run(kernel, CPU_MAX)
        corrupt = dataclasses.replace(
            m,
            cpu_plane_w=math.nan,
            counters={**m.counters, "ipc": math.inf},
        )
        fixed = sanitize_measurement(corrupt)
        assert fixed.cpu_plane_w == FALLBACK_CPU_PLANE_W
        assert fixed.nbgpu_plane_w == m.nbgpu_plane_w  # untouched
        assert fixed.time_s == m.time_s
        assert fixed.counters["ipc"] == 0.0
        assert measurement_is_finite(fixed)

    def test_conservative_measurement_from_nothing(self):
        m = sanitize_measurement(None, CPU_MAX)
        assert m == conservative_measurement(CPU_MAX)
        assert m.time_s == FALLBACK_TIME_S
        assert m.nbgpu_plane_w == FALLBACK_NBGPU_PLANE_W
        assert measurement_is_finite(m)
        with pytest.raises(ValueError):
            sanitize_measurement(None)


# ---------------------------------------------------------------------------
# APU / profiling integration
# ---------------------------------------------------------------------------


class TestAPUIntegration:
    def test_inject_faults_accepts_plan_or_injector(self):
        apu = TrinityAPU(seed=0)
        inj = apu.inject_faults(FaultPlan(name="x"))
        assert isinstance(inj, FaultInjector)
        assert apu.fault_injector is inj
        same = FaultInjector(FaultPlan())
        assert apu.inject_faults(same) is same
        assert apu.inject_faults(None) is None
        assert apu.fault_injector is None

    def test_empty_plan_measurements_bit_identical(self, kernel):
        clean = TrinityAPU(seed=0)
        faulted = TrinityAPU(seed=0)
        faulted.inject_faults(FaultPlan(name="empty"))
        for cfg in (CPU_MAX, GPU_MAX, cpu_config(1.4, 1)):
            assert faulted.run(kernel, cfg) == clean.run(kernel, cfg)

    def test_dropout_reaches_apu_measurement(self, kernel):
        apu = TrinityAPU(seed=0)
        apu.inject_faults(
            FaultPlan(events=(FaultEvent(kind="power_dropout", start=0, duration=99),))
        )
        m = apu.run(kernel, CPU_MAX)
        assert math.isnan(m.total_power_w)

    def test_ground_truth_is_never_perturbed(self, kernel):
        apu = TrinityAPU(seed=0)
        clean_time = apu.true_time_s(kernel, CPU_MAX)
        apu.inject_faults(
            FaultPlan(events=(FaultEvent(kind="run_failure", start=0, duration=500),))
        )
        assert apu.true_time_s(kernel, CPU_MAX) == clean_time

    def test_profile_retry_consumes_run_clock(self, kernel):
        apu = TrinityAPU(seed=0)
        inj = apu.inject_faults(
            FaultPlan(events=(FaultEvent(kind="run_failure", start=0, duration=2),))
        )
        library = ProfilingLibrary(apu, seed=0)
        with pytest.raises(SampleRunError):
            library.profile(kernel, CPU_MAX, kernel_uid="k")
        with pytest.raises(SampleRunError):
            library.profile(kernel, CPU_MAX, kernel_uid="k")
        # Window passed: the third attempt succeeds.
        profile = library.profile(kernel, CPU_MAX, kernel_uid="k")
        assert profile.measurement.config == CPU_MAX
        assert inj.runs_started == 3


# ---------------------------------------------------------------------------
# Runtime degradation (retry / failed / corrupt samples / quarantine)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def suite():
    return build_suite()


@pytest.fixture(scope="module")
def lu_app(suite):
    return Application.from_suite(suite, "LU Small")


@pytest.fixture(scope="module")
def trained(suite):
    apu = TrinityAPU(seed=0)
    library = ProfilingLibrary(apu, seed=0)
    model = train_model(library, [k for k in suite if k.benchmark != "LU"])
    return model


def faulted_runtime(model, plan, **kwargs):
    """A runtime on a noiseless machine with ``plan`` injected.

    An exact noise model *and* a jitter-free power sampler make every
    profile a pure function of (kernel, configuration) — independent of
    the repetition count — so fault-free executions are bit-identical
    between a clean and a faulted run and the monotonicity properties
    below are exact, not statistical.
    """
    apu = TrinityAPU(noise=NoiseModel.exact(), seed=0)
    apu.inject_faults(plan)
    library = ProfilingLibrary(
        apu,
        sampler=PowerSampler(sample_noise_rel=0.0, fluctuation_rel=0.0),
        seed=0,
    )
    return AdaptiveRuntime(model, library, **kwargs)


class TestRuntimeDegradation:
    def test_transient_failure_is_retried(self, trained, lu_app):
        # Runs 0..1 are the samples; run 2 (first scheduled) fails twice.
        plan = FaultPlan(
            events=(FaultEvent(kind="run_failure", start=2, duration=2),)
        )
        runtime = faulted_runtime(trained, plan)
        retries_before = counter_value("faults.retries")
        trace = runtime.run(lu_app, 4, power_cap_w=100.0)
        assert counter_value("faults.retries") - retries_before == 2
        assert [e.phase for e in trace.executions] == [
            "sample-cpu",
            "sample-gpu",
            "scheduled",
            "scheduled",
        ]
        # The recovered invocation carries its backoff wait.
        clean = faulted_runtime(trained, FaultPlan()).run(
            lu_app, 4, power_cap_w=100.0
        )
        assert trace.executions[2].time_s > clean.executions[2].time_s
        assert trace.executions[2].power_w == clean.executions[2].power_w

    def test_exhausted_retries_record_failed_invocation(self, trained, lu_app):
        plan = FaultPlan(
            events=(FaultEvent(kind="run_failure", start=2, duration=50),)
        )
        runtime = faulted_runtime(trained, plan)
        failed_before = counter_value("faults.failed_invocations")
        trace = runtime.run(lu_app, 3, power_cap_w=100.0)
        failed = [e for e in trace.executions if e.phase == "failed"]
        assert failed  # at least the first scheduled invocation
        assert all(e.power_w == 0.0 for e in failed)
        assert all(e.time_s > 0.0 for e in failed)  # backoff is charged
        assert (
            counter_value("faults.failed_invocations") - failed_before
            == len(failed)
        )

    def test_corrupt_samples_fall_back_to_default_cluster(self, trained, lu_app):
        # Both sample runs report dropped-out power sensors.
        plan = FaultPlan(
            events=(FaultEvent(kind="power_dropout", start=0, duration=2),)
        )
        runtime = faulted_runtime(trained, plan)
        corrupt_before = counter_value("faults.corrupt_samples")
        trace = runtime.run(lu_app, 3, power_cap_w=100.0)
        assert counter_value("faults.corrupt_samples") - corrupt_before == 1
        assert len(trace) == 3
        kernel_uid = lu_app.kernels[0].uid
        prediction = runtime._predictions[kernel_uid]
        assert prediction.cluster == trained.default_cluster

    def test_exhausted_sample_retries_take_the_default_cluster(
        self, trained, suite
    ):
        # Runs 0-3 fail: the CPU sample run and all three retries, so
        # its anchor is the counter-less conservative stand-in, which
        # the tree cannot classify.
        apu = TrinityAPU(noise=NoiseModel.exact(), seed=0)
        apu.inject_faults(
            FaultPlan(
                events=(FaultEvent(kind="run_failure", start=0, duration=4),)
            )
        )
        predictor = OnlinePredictor(trained, ProfilingLibrary(apu, seed=0))
        fallbacks_before = counter_value("faults.sample_fallbacks")
        corrupt_before = counter_value("faults.corrupt_samples")
        prediction = predictor.predict(suite.get("LU/Small/LUDecomposition"))
        assert counter_value("faults.sample_fallbacks") - fallbacks_before == 1
        assert counter_value("faults.corrupt_samples") - corrupt_before == 1
        assert prediction.cluster == trained.default_cluster

    def test_stuck_pstate_quarantines_scheduled_config(self, trained, lu_app):
        # Every scheduled run executes at the CPU ladder floor regardless
        # of what the scheduler asked for.
        plan = FaultPlan(
            events=(
                FaultEvent(
                    kind="pstate_stuck",
                    start=2,
                    duration=1,
                    device="cpu",
                    pstate_index=0,
                ),
            )
        )
        runtime = faulted_runtime(trained, plan)
        stuck_before = counter_value("faults.stuck_executions")
        quarantined_before = counter_value("faults.quarantined_configs")
        trace = runtime.run(lu_app, 4, power_cap_w=100.0)
        assert counter_value("faults.stuck_executions") - stuck_before == 1
        assert (
            counter_value("faults.quarantined_configs") - quarantined_before
            == 1
        )
        stuck_exec = trace.executions[2]
        assert runtime.scheduler.quarantined  # requested config is out
        # The next invocation re-selected a non-quarantined config.
        assert trace.executions[3].config not in runtime.scheduler.quarantined
        assert stuck_exec.config not in runtime.scheduler.quarantined

    def test_quarantine_can_be_disabled(self, trained, lu_app):
        plan = FaultPlan(
            events=(
                FaultEvent(
                    kind="pstate_stuck",
                    start=2,
                    duration=1,
                    device="cpu",
                    pstate_index=0,
                ),
            )
        )
        runtime = faulted_runtime(trained, plan, quarantine_stuck=False)
        runtime.run(lu_app, 4, power_cap_w=100.0)
        assert not runtime.scheduler.quarantined


class TestSchedulerQuarantine:
    def test_quarantine_masks_selection(self, trained, suite):
        apu = TrinityAPU(noise=NoiseModel.exact(), seed=0)
        k = suite.get("LU/Small/LUDecomposition")
        pred = trained.predict_kernel(
            apu.run(k, CPU_SAMPLE), apu.run(k, GPU_SAMPLE)
        )
        scheduler = Scheduler()
        first = scheduler.select(pred, power_cap_w=40.0).config
        scheduler.quarantine(first)
        second = scheduler.select(pred, power_cap_w=40.0).config
        assert second != first
        assert first in scheduler.quarantined
        scheduler.clear_quarantine()
        assert scheduler.select(pred, power_cap_w=40.0).config == first

    def test_quarantining_everything_is_survivable(self, trained, suite):
        apu = TrinityAPU(noise=NoiseModel.exact(), seed=0)
        k = suite.get("LU/Small/LUDecomposition")
        pred = trained.predict_kernel(
            apu.run(k, CPU_SAMPLE), apu.run(k, GPU_SAMPLE)
        )
        scheduler = Scheduler()
        for cfg in apu.config_space:
            scheduler.quarantine(cfg)
        # A fully-quarantined space must still schedule *something*.
        decision = scheduler.select(pred, power_cap_w=40.0)
        assert decision.config in apu.config_space

    def test_quarantine_is_idempotent(self):
        scheduler = Scheduler()
        before = counter_value("faults.quarantined_configs")
        scheduler.quarantine(CPU_MAX)
        scheduler.quarantine(CPU_MAX)
        assert counter_value("faults.quarantined_configs") == before + 1
        assert scheduler.quarantined == frozenset({CPU_MAX})


# ---------------------------------------------------------------------------
# Limiter degradation
# ---------------------------------------------------------------------------


class TestLimiterDegradation:
    def test_dropout_walks_to_floor_as_worst_case(self):
        apu = TrinityAPU(noise=NoiseModel.exact(), seed=0)
        apu.inject_faults(
            FaultPlan(
                events=(FaultEvent(kind="power_dropout", start=0, duration=99),)
            )
        )
        reads_before = counter_value("faults.limiter.worst_case_reads")
        result = FrequencyLimiter(apu).limit(make_kernel(), CPU_MAX, 30.0)
        assert result.final_config == cpu_config(1.4, 4)  # floor
        assert not result.met_cap
        assert all(obs == math.inf for _, obs in result.trace)
        assert (
            counter_value("faults.limiter.worst_case_reads") - reads_before
            == len(result.trace)
        )

    def test_failed_final_run_yields_nan_placeholder(self):
        apu = TrinityAPU(noise=NoiseModel.exact(), seed=0)
        apu.inject_faults(
            FaultPlan(
                events=(FaultEvent(kind="run_failure", start=0, duration=99),)
            )
        )
        failed_before = counter_value("faults.limiter.failed_runs")
        result = FrequencyLimiter(apu).limit(make_kernel(), CPU_MAX, 30.0)
        assert not result.met_cap
        assert math.isnan(result.final_measurement.time_s)
        assert result.final_measurement.config == result.final_config
        assert (
            counter_value("faults.limiter.failed_runs") - failed_before
            == len(result.trace)
        )

    def test_transient_dropout_recovers(self):
        apu = TrinityAPU(noise=NoiseModel.exact(), seed=0)
        apu.inject_faults(
            FaultPlan(events=(FaultEvent(kind="power_dropout", start=0),))
        )
        result = FrequencyLimiter(apu).limit(make_kernel(), CPU_MAX, 100.0)
        # First reading drops out (inf) -> one step down; the second
        # reading is clean and meets the generous cap.
        assert result.met_cap
        assert result.trace[0][1] == math.inf
        assert math.isfinite(result.trace[-1][1])
        assert len(result.trace) == 2


# ---------------------------------------------------------------------------
# Hypothesis properties
# ---------------------------------------------------------------------------

fault_events = st.builds(
    FaultEvent,
    kind=st.sampled_from(FAULT_KINDS),
    start=st.integers(min_value=0, max_value=40),
    duration=st.integers(min_value=1, max_value=8),
    device=st.sampled_from([None, "cpu", "gpu"]),
    magnitude=st.floats(min_value=0.25, max_value=4.0),
    pstate_index=st.integers(min_value=0, max_value=5),
)

fault_plans = st.builds(
    FaultPlan,
    events=st.lists(fault_events, max_size=5).map(tuple),
    name=st.just("hypothesis"),
)

recoverable_failure_plans = st.builds(
    FaultPlan,
    events=st.lists(
        st.builds(
            FaultEvent,
            kind=st.just("run_failure"),
            start=st.integers(min_value=0, max_value=30),
            duration=st.integers(min_value=1, max_value=4),
        ),
        max_size=4,
    ).map(tuple),
    name=st.just("run-failures"),
)


class TestChaosProperties:
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(plan=fault_plans)
    def test_any_plan_leaves_runtime_crash_free(self, trained, lu_app, plan):
        runtime = faulted_runtime(trained, plan, frequency_limiter=True)
        trace = runtime.run(lu_app, 6, power_cap_w=40.0)
        assert len(trace) == 6 * len(lu_app)

    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(plan=recoverable_failure_plans)
    def test_recoverable_failures_degrade_monotonically(
        self, trained, lu_app, plan
    ):
        """run_failure-only plans with an ample retry budget reproduce
        the clean timeline exactly, except each recovered invocation is
        strictly slower (its backoff wait): faults never *improve* the
        reported schedule."""
        budget = sum(ev.duration for ev in plan) + 1
        clean = faulted_runtime(
            trained, FaultPlan(), retry_limit=budget, quarantine_stuck=False
        ).run(lu_app, 8, power_cap_w=100.0)
        faulted = faulted_runtime(
            trained, plan, retry_limit=budget, quarantine_stuck=False
        ).run(lu_app, 8, power_cap_w=100.0)
        assert len(faulted) == len(clean)
        for got, want in zip(faulted.executions, clean.executions):
            assert got.phase == want.phase
            assert got.config == want.config
            assert got.power_w == want.power_w
            assert got.time_s >= want.time_s
        assert faulted.total_time_s >= clean.total_time_s

    @settings(max_examples=30, deadline=None)
    @given(plan=fault_plans, data=st.data())
    def test_injector_never_invents_configs(self, plan, data):
        apu = TrinityAPU(seed=0)
        space = tuple(apu.config_space)
        inj = FaultInjector(plan)
        for _ in range(12):
            cfg = data.draw(st.sampled_from(space))
            try:
                ctx = inj.begin_run(cfg)
            except SampleRunError:
                continue
            assert ctx.config in space
            assert ctx.requested == cfg

    @settings(max_examples=30, deadline=None)
    @given(plan=fault_plans)
    def test_plan_round_trips_through_dict(self, plan):
        assert FaultPlan.from_dict(plan.to_dict()) == plan


# ---------------------------------------------------------------------------
# Full-pipeline chaos: LOOCV under the committed scenarios
# ---------------------------------------------------------------------------


class TestLOOCVUnderFaults:
    @pytest.mark.parametrize(
        "plan_path", CANNED_PLANS, ids=[p.stem for p in CANNED_PLANS]
    )
    def test_canned_plan_completes_with_visible_degradation(self, plan_path):
        plan = FaultPlan.from_file(plan_path)
        injected_before = counter_value("faults.injected.total")
        report = run_loocv(seed=0, fault_plan=plan_path)
        injected = counter_value("faults.injected.total") - injected_before
        assert len(report.records) == 5012
        # Every scheduled event's window is reached by the LOOCV run
        # clock, so at least one activation per event is guaranteed.
        assert injected >= len(plan.events)
        # Faults only touch measurements: the oracle columns are judged
        # on ground truth and stay exactly cap-compliant.
        from repro.constants import respects_cap

        assert all(
            respects_cap(r.oracle_power_w, r.power_cap_w)
            for r in report.records
        )

    def test_faulted_records_never_beat_oracle(self):
        plan = FaultPlan.from_file(CANNED_PLANS[0])
        report = run_loocv(seed=0, fault_plan=plan)
        eps = 1e-9
        for r in report.records:
            if r.under_limit:
                assert r.performance <= r.oracle_performance * (1.0 + eps)

    def test_fault_plan_forces_serial_execution(self):
        report = run_loocv(
            seed=0,
            fault_plan=FaultPlan(
                events=(FaultEvent(kind="counter_nan", start=0),)
            ),
            n_jobs=4,
        )
        assert report.timings.n_jobs == 1

    def test_empty_plan_digest_matches_clean(self):
        clean = run_loocv(seed=0)
        empty = run_loocv(seed=0, fault_plan=FaultPlan(name="empty"))
        assert records_digest(empty.records) == records_digest(clean.records)
