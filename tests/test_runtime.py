"""Tests for the application runtime (repro.runtime)."""

import dataclasses

import pytest

from repro.core import train_model
from repro.faults import FaultEvent, FaultPlan
from repro.hardware import NoiseModel, TrinityAPU
from repro.profiling import ProfilingLibrary
from repro.runtime import (
    AdaptiveRuntime,
    Application,
    ApplicationTrace,
    KernelExecution,
    OracleRuntime,
    StaticRuntime,
)
from repro.workloads import build_suite
from repro.hardware.backend import TRINITY_DESCRIPTOR
from tests.conftest import cpu_config

CPU_SAMPLE, GPU_SAMPLE = TRINITY_DESCRIPTOR.sample_configs()


@pytest.fixture(scope="module")
def suite():
    return build_suite()


@pytest.fixture(scope="module")
def app(suite):
    return Application.from_suite(suite, "LU Small")


@pytest.fixture(scope="module")
def comd_app(suite):
    return Application.from_suite(suite, "CoMD Small")


@pytest.fixture(scope="module")
def trained(suite):
    apu = TrinityAPU(seed=0)
    library = ProfilingLibrary(apu, seed=0)
    train = [k for k in suite if k.benchmark not in ("LU", "CoMD")]
    model = train_model(library, train)
    return apu, model


class TestApplication:
    def test_from_suite(self, suite):
        app = Application.from_suite(suite, "LULESH Small")
        assert len(app) == 20
        assert app.name == "LULESH Small"

    def test_validation(self, suite):
        k = suite.get("LU/Small/LUDecomposition")
        with pytest.raises(ValueError):
            Application(name="", kernels=(k,))
        with pytest.raises(ValueError):
            Application(name="x", kernels=())
        with pytest.raises(ValueError):
            Application(name="x", kernels=(k, k))


class TestTrace:
    def _exec(self, t=0, power=10.0, time=1.0, cap=20.0, uid="k"):
        return KernelExecution(
            timestep=t,
            kernel_uid=uid,
            config=cpu_config(1.4, 1),
            time_s=time,
            power_w=power,
            power_cap_w=cap,
            phase="scheduled",
        )

    def test_aggregates(self):
        trace = ApplicationTrace(application="a")
        trace.record(self._exec(power=10.0, time=2.0))
        trace.record(self._exec(t=1, power=30.0, time=1.0, cap=20.0))
        assert trace.total_time_s == pytest.approx(3.0)
        assert trace.total_energy_j == pytest.approx(50.0)
        assert trace.mean_power_w == pytest.approx(50.0 / 3.0)
        assert trace.violation_rate == pytest.approx(0.5)
        assert trace.timesteps() == 2

    def test_for_timestep_lookup(self):
        trace = ApplicationTrace(application="a")
        trace.record(self._exec(uid="x", time=1.0))
        trace.record(self._exec(uid="x", time=2.0, t=1))
        trace.record(self._exec(uid="y", time=4.0, t=1))
        assert [e.kernel_uid for e in trace.for_timestep(1)] == ["x", "y"]

    def test_empty_trace(self):
        trace = ApplicationTrace(application="a")
        assert trace.timesteps() == 0
        assert trace.violation_rate != trace.violation_rate  # NaN

    def test_summary(self):
        a = ApplicationTrace(application="a")
        a.record(self._exec(time=1.0))
        assert "timesteps" in a.summary()

    def test_render_timeline(self):
        trace = ApplicationTrace(application="demo")
        trace.record(self._exec(t=0, power=10.0, time=1.0, cap=20.0))
        trace.record(self._exec(t=1, power=30.0, time=0.5, cap=20.0))
        text = trace.render_timeline(width=20)
        assert "demo timeline" in text
        assert "t0" in text and "t1" in text
        assert "!" in text  # the over-cap timestep is flagged
        assert "#" in text  # CPU time marker

    def test_render_timeline_empty(self):
        trace = ApplicationTrace(application="empty")
        assert "(empty trace)" in trace.render_timeline()


class TestAdaptiveRuntime:
    def test_sample_protocol_then_scheduled(self, trained, app):
        apu, model = trained
        runtime = AdaptiveRuntime(model, ProfilingLibrary(apu, seed=5))
        trace = runtime.run(app, n_timesteps=4, power_cap_w=22.0)
        phases = [e.phase for e in trace.executions]
        # One kernel in LU Small: timestep order is sample, sample, sched...
        assert phases == ["sample-cpu", "sample-gpu", "scheduled", "scheduled"]
        assert trace.executions[0].config == CPU_SAMPLE
        assert trace.executions[1].config == GPU_SAMPLE

    def test_scheduled_configs_respect_cap_mostly(self, trained, app):
        apu, model = trained
        runtime = AdaptiveRuntime(model, ProfilingLibrary(apu, seed=6))
        trace = runtime.run(app, n_timesteps=10, power_cap_w=22.0)
        scheduled = [e for e in trace.executions if e.phase == "scheduled"]
        under = sum(e.under_cap for e in scheduled)
        assert under / len(scheduled) >= 0.7

    def test_dynamic_cap_changes_selection(self, trained, app):
        apu, model = trained

        def caps(t):
            return 14.0 if t % 2 == 0 else 30.0

        runtime = AdaptiveRuntime(model, ProfilingLibrary(apu, seed=7))
        trace = runtime.run(app, n_timesteps=8, power_cap_w=caps)
        scheduled = [e for e in trace.executions if e.phase == "scheduled"]
        low = {e.config for e in scheduled if e.power_cap_w == 14.0}
        high = {e.config for e in scheduled if e.power_cap_w == 30.0}
        assert low != high  # the runtime adapts to the cap

    def test_prediction_cached_once_per_kernel(self, trained, comd_app):
        apu, model = trained
        runtime = AdaptiveRuntime(model, ProfilingLibrary(apu, seed=8))
        runtime.run(comd_app, n_timesteps=5, power_cap_w=25.0)
        assert len(runtime._predictions) == len(comd_app)

    def test_multi_kernel_app_executes_all_kernels(self, trained, comd_app):
        apu, model = trained
        runtime = AdaptiveRuntime(model, ProfilingLibrary(apu, seed=9))
        trace = runtime.run(comd_app, n_timesteps=3, power_cap_w=25.0)
        assert len(trace) == 3 * len(comd_app)
        assert {e.kernel_uid for e in trace.executions} == {
            k.uid for k in comd_app.kernels
        }

    def test_context_differentiation(self, trained, suite):
        """Paper §VI: the same kernel invoked from two contexts is
        sampled and scheduled independently."""
        apu, model = trained
        base = suite.get("LU/Small/LUDecomposition")
        app = Application(
            name="two-contexts",
            kernels=tuple(
                dataclasses.replace(base, name=f"{base.name}@{context}")
                for context in ("solve", "refine")
            ),
        )
        runtime = AdaptiveRuntime(model, ProfilingLibrary(apu, seed=21))
        runtime.run(app, n_timesteps=3, power_cap_w=22.0)
        db = runtime.library.database
        assert db.iterations("LU/Small/LUDecomposition@solve") == 3
        assert db.iterations("LU/Small/LUDecomposition@refine") == 3
        assert len(runtime._predictions) == 2

    def test_risk_averse_mode(self, trained, app):
        apu, model = trained
        runtime = AdaptiveRuntime(
            model, ProfilingLibrary(apu, seed=10), risk_averse=True
        )
        trace = runtime.run(app, n_timesteps=5, power_cap_w=20.0)
        assert len(trace) == 5

    def test_frequency_limiter_mode_improves_compliance(self, trained, app):
        """Model+FL at application level: fewer over-cap invocations
        than the plain model runtime at a tight cap."""
        apu, model = trained
        cap = 18.0

        def violation_rate(fl):
            runtime = AdaptiveRuntime(
                model,
                ProfilingLibrary(apu, seed=30 + fl),
                frequency_limiter=bool(fl),
            )
            trace = runtime.run(app, n_timesteps=10, power_cap_w=cap)
            scheduled = [e for e in trace.executions if e.phase == "scheduled"]
            return sum(not e.under_cap for e in scheduled) / len(scheduled)

        assert violation_rate(1) <= violation_rate(0)

    def test_frequency_limiter_caches_per_cap(self, trained, app):
        apu, model = trained
        runtime = AdaptiveRuntime(
            model, ProfilingLibrary(apu, seed=33), frequency_limiter=True
        )
        runtime.run(app, n_timesteps=6, power_cap_w=18.0)
        # One limited entry per (kernel, cap).
        assert len(runtime._limited) == len(app)

    def test_frequency_limiter_honours_an_outside_quarantine(
        self, trained, comd_app
    ):
        """A refinement is not reused once its configuration is
        quarantined, whoever quarantined it."""
        apu, model = trained
        runtime = AdaptiveRuntime(
            model, ProfilingLibrary(apu, seed=5), frequency_limiter=True
        )
        first = runtime.run(comd_app, n_timesteps=4, power_cap_w=20.0)
        uid = comd_app.kernels[0].uid
        stale = [
            e.config
            for e in first.executions
            if e.kernel_uid == uid and e.phase == "scheduled"
        ][-1]
        runtime.scheduler.quarantine(stale)
        after = runtime.run(comd_app, n_timesteps=2, power_cap_w=20.0)
        scheduled = [e for e in after.executions if e.phase == "scheduled"]
        assert len(scheduled) == 2 * len(comd_app)
        assert stale not in {e.config for e in scheduled}

    def test_invalid_arguments(self, trained, app):
        apu, model = trained
        runtime = AdaptiveRuntime(model, ProfilingLibrary(apu, seed=11))
        with pytest.raises(ValueError):
            runtime.run(app, n_timesteps=0, power_cap_w=20.0)
        with pytest.raises(ValueError):
            runtime.run(app, n_timesteps=2, power_cap_w=-5.0)


class TestScheduledSelection:
    """Each scheduled invocation answers from the kernel's one cached
    sweep table; the answers must equal ``Scheduler.select`` on the
    live scheduler, quarantine included."""

    @staticmethod
    def _checked(runtime):
        """Wrap ``runtime._select`` to compare every answer with
        ``Scheduler.select`` made at the same moment."""
        select = runtime._select
        answers = []

        def checked(kernel, cap):
            expected = runtime.scheduler.select(
                runtime._prediction_for(kernel), cap,
                risk_averse=runtime.risk_averse,
            ).config
            got = select(kernel, cap)
            answers.append((kernel.uid, cap, got, expected))
            return got

        runtime._select = checked
        return answers

    @staticmethod
    def _caps(t):
        return 28.0 if t < 5 else 16.0

    @pytest.mark.parametrize("risk_averse", [False, True])
    def test_ten_timesteps_of_comd_equal_select(
        self, trained, comd_app, risk_averse
    ):
        apu, model = trained
        runtime = AdaptiveRuntime(
            model, ProfilingLibrary(apu, seed=12), risk_averse=risk_averse
        )
        answers = self._checked(runtime)
        trace = runtime.run(comd_app, 10, self._caps)
        assert len(answers) == 8 * len(comd_app)
        assert all(got == expected for _, _, got, expected in answers)
        scheduled = [e.config for e in trace.executions if e.phase == "scheduled"]
        assert scheduled == [got for _, _, got, _ in answers]
        assert len(runtime._indexes) == len(comd_app)

    def test_quarantine_rebuilds_the_table(self, trained, comd_app):
        _, model = trained
        apu = TrinityAPU(noise=NoiseModel.exact(), seed=0)
        # The first scheduled timestep (runs 14-20: two sample timesteps
        # of seven kernels come first) executes at the CPU ladder floor.
        apu.inject_faults(FaultPlan(events=(FaultEvent(
            kind="pstate_stuck", start=14, duration=7,
            device="cpu", pstate_index=0,
        ),)))
        runtime = AdaptiveRuntime(model, ProfilingLibrary(apu, seed=13))
        answers = self._checked(runtime)
        runtime.run(comd_app, 10, 20.0)
        stuck = runtime.scheduler.quarantined
        assert stuck
        assert all(got == expected for _, _, got, expected in answers)
        assert not {got for _, _, got, _ in answers[len(comd_app):]} & stuck

        # A quarantine made from outside the runtime is honoured too.
        outside = answers[-1][2]
        runtime.scheduler.quarantine(outside)
        del answers[:]
        runtime.run(comd_app, 2, 20.0)
        assert all(got == expected for _, _, got, expected in answers)
        assert outside not in {got for _, _, got, _ in answers}


class TestBaselines:
    def test_static_runtime_never_changes_config(self, trained, app):
        apu, _ = trained
        cfg = cpu_config(3.7, 4)
        runtime = StaticRuntime(ProfilingLibrary(apu, seed=12), cfg)
        trace = runtime.run(app, n_timesteps=4, power_cap_w=20.0)
        assert all(e.config == cfg for e in trace.executions)
        assert all(e.phase == "static" for e in trace.executions)

    def test_oracle_runtime_beats_adaptive_or_ties(self, trained, app):
        apu, model = trained
        cap = 22.0
        adaptive = AdaptiveRuntime(model, ProfilingLibrary(apu, seed=13)).run(
            app, 10, cap
        )
        oracle = OracleRuntime(ProfilingLibrary(apu, seed=14)).run(app, 10, cap)
        # Oracle wall time is no worse than adaptive's (small tolerance
        # for measurement noise and the adaptive run's sample overhead).
        assert oracle.total_time_s <= adaptive.total_time_s * 1.05

    def test_adaptive_beats_static_under_cap(self, trained, app):
        """The headline application-level claim: adapting device and
        configuration under a cap beats a cap-blind static CPU run."""
        apu, model = trained
        cap = 22.0
        adaptive = AdaptiveRuntime(model, ProfilingLibrary(apu, seed=15)).run(
            app, 12, cap
        )
        static = StaticRuntime(
            ProfilingLibrary(apu, seed=16), cpu_config(1.4, 4)
        ).run(app, 12, cap)
        assert static.total_time_s / adaptive.total_time_s > 1.2
