"""The adaptive runtime: whole applications under (dynamic) power caps.

The paper positions its profiling library as "a foundation for dynamic
scheduling" (Section III-D) and notes that predicted Pareto frontiers
make the system "adaptable to dynamic power constraints" (Section
III-C).  :class:`AdaptiveRuntime` realizes that runtime:

* **timestep loop** — each timestep invokes every application kernel
  once, in order (Section III-A's sequential-kernel assumption);
* **online protocol** — a kernel's first invocation runs on the CPU
  sample configuration, its second on the GPU sample configuration
  (Table II); both are ordinary application work whose time and energy
  are charged to the run (Section IV-C).  After the second invocation
  the kernel is classified and its whole-space prediction cached;
* **scheduling** — from the third invocation on, the kernel runs on the
  configuration the scheduler picks from its cached prediction for the
  *current* cap.  Cap changes between timesteps cost one frontier
  lookup per kernel — no new measurements;
* **re-sampling on input change** — Section VI observes the system
  "does not automatically differentiate between invocations of the same
  kernel with distinct data inputs"; our kernels are keyed by
  (benchmark, input, name), so a changed input is a new kernel uid and
  automatically re-enters the sample protocol.

Baselines for comparison: :class:`StaticRuntime` (one fixed
configuration for everything) and :class:`OracleRuntime` (ground-truth
best configuration per kernel per cap).
"""

from __future__ import annotations

import logging
from typing import Callable

from repro.constants import respects_cap
from repro.core.model import AdaptiveModel
from repro.core.predictor import KernelPrediction, classifiable_anchors
from repro.core.scheduler import Scheduler
from repro.faults import SampleRunError
from repro.hardware.config import Configuration
from repro.hardware.rapl import FrequencyLimiter
from repro.methods.oracle import Oracle
from repro.profiling.library import ProfilingLibrary
from repro.profiling.records import KernelProfile
from repro.runtime.application import Application
from repro.runtime.trace import ApplicationTrace, KernelExecution
from repro.telemetry import counter, get_logger, log_event, trace_span
from repro.workloads.kernel import Kernel

__all__ = ["AdaptiveRuntime", "StaticRuntime", "OracleRuntime", "CapSchedule"]

_log = get_logger(__name__)

# Runtime-level accounting (docs/OBSERVABILITY.md): one invocation per
# kernel execution in the timestep loop; violations judge measured power
# against the timestep's cap with the shared CAP_EPSILON tolerance.
_INVOCATIONS = counter("runtime.invocations")
_CAP_VIOLATIONS = counter("runtime.cap_violations")

# Degradation accounting (docs/ROBUSTNESS.md): retries after failed
# invocations, invocations abandoned after the retry budget, and
# executions whose reported P-state differed from the requested one.
# Sanitized sample pairs are counted by ``classifiable_anchors``.
_RETRIES = counter("faults.retries")
_FAILED_INVOCATIONS = counter("faults.failed_invocations")
_STUCK_EXECUTIONS = counter("faults.stuck_executions")

#: Default retry budget and capped-exponential-backoff shape for failed
#: kernel invocations (simulated wall-clock seconds, charged to the
#: application trace).
DEFAULT_RETRY_LIMIT: int = 3
DEFAULT_BACKOFF_BASE_S: float = 0.01
DEFAULT_BACKOFF_CAP_S: float = 0.08

#: A power cap per timestep: constant, or a function of the timestep.
CapSchedule = float | Callable[[int], float]


def _cap_at(cap: CapSchedule, timestep: int) -> float:
    value = cap(timestep) if callable(cap) else cap
    if value <= 0:
        raise ValueError(f"power cap at timestep {timestep} must be positive")
    return float(value)


class AdaptiveRuntime:
    """Model-driven application runtime (the paper's system, end to end).

    Parameters
    ----------
    model:
        A trained :class:`AdaptiveModel` (train it without the
        application's benchmark for honest evaluation).
    library:
        Profiling library executing and recording every invocation.
    scheduler:
        Selection policy (defaults to maximize-performance).
    risk_averse:
        Use prediction-confidence bounds when scheduling (Section VI).
    frequency_limiter:
        Combine the model with RAPL-style frequency limiting — the
        paper's winning ``Model+FL`` method (Section V-A) at application
        level.  After the model commits a kernel to a device/thread
        configuration, the limiter walks frequency down if measured
        power still violates the cap; the refined configuration is
        remembered per (kernel, cap) so the limiter's step-down runs
        pay off across timesteps.
    retry_limit, backoff_base_s, backoff_cap_s:
        Graceful-degradation knobs for failed invocations (injected
        :class:`repro.faults.SampleRunError`): up to ``retry_limit``
        retries with capped exponential backoff, the wait charged to
        the trace; an invocation that exhausts the budget is recorded
        with ``phase="failed"`` and zero power.
    quarantine_stuck:
        When a *scheduled* execution reports a different P-state than
        requested (stuck/throttled hardware), quarantine the requested
        configuration in the scheduler so later selections re-select
        from the surviving frontier.
    """

    def __init__(
        self,
        model: AdaptiveModel,
        library: ProfilingLibrary,
        *,
        scheduler: Scheduler | None = None,
        risk_averse: bool = False,
        frequency_limiter: bool = False,
        retry_limit: int = DEFAULT_RETRY_LIMIT,
        backoff_base_s: float = DEFAULT_BACKOFF_BASE_S,
        backoff_cap_s: float = DEFAULT_BACKOFF_CAP_S,
        quarantine_stuck: bool = True,
    ) -> None:
        if retry_limit < 0:
            raise ValueError("retry_limit must be >= 0")
        if backoff_base_s < 0 or backoff_cap_s < 0:
            raise ValueError("backoff durations must be >= 0")
        self.model = model
        self.library = library
        self.scheduler = scheduler if scheduler is not None else Scheduler()
        self.risk_averse = risk_averse
        self.retry_limit = retry_limit
        self.backoff_base_s = backoff_base_s
        self.backoff_cap_s = backoff_cap_s
        self.quarantine_stuck = quarantine_stuck
        self._predictions: dict[str, KernelPrediction] = {}
        # Per kernel uid: (quarantine set at build, its sweep table's index).
        self._indexes: dict[str, tuple] = {}
        self._samples = library.apu.descriptor.sample_configs()
        self._limiter = (
            FrequencyLimiter(library.apu) if frequency_limiter else None
        )
        # (kernel uid, cap) -> (the scheduler's pick, its refinement).
        self._limited: dict[
            tuple[str, float], tuple[Configuration, Configuration]
        ] = {}

    def run(
        self,
        application: Application,
        n_timesteps: int,
        power_cap_w: CapSchedule,
    ) -> ApplicationTrace:
        """Execute ``n_timesteps`` of the application under the cap
        schedule and return the full trace."""
        if n_timesteps < 1:
            raise ValueError("n_timesteps must be >= 1")
        trace = ApplicationTrace(application=application.name)
        for t in range(n_timesteps):
            cap = _cap_at(power_cap_w, t)
            for kernel in application.kernels:
                trace.record(self._invoke(kernel, t, cap))
        return trace

    def _invoke(self, kernel: Kernel, timestep: int, cap: float) -> KernelExecution:
        seen = self.library.database.iterations(kernel.uid)
        if seen == 0:
            cfg, phase = self._samples[0], "sample-cpu"
        elif seen == 1:
            cfg, phase = self._samples[1], "sample-gpu"
        else:
            cfg, phase = self._select(kernel, cap), "scheduled"
            if self._limiter is not None:
                # A refinement is reused while the scheduler still picks
                # the configuration it started from and its result is
                # not quarantined; otherwise the limiter walks again.
                key = (kernel.uid, cap)
                start, final = self._limited.get(key, (None, None))
                if start != cfg or final in self.scheduler.quarantined:
                    final = self._limiter.limit(kernel, cfg, cap).final_config
                    self._limited[key] = (cfg, final)
                cfg = final
        profile, wait_s = self._profile_with_retry(kernel, cfg)
        if profile is None:
            # Retry budget exhausted: record the lost invocation (zero
            # work, backoff time charged) and move on — the application
            # keeps running.
            _FAILED_INVOCATIONS.inc()
            log_event(
                _log,
                logging.WARNING,
                "runtime-invocation-failed",
                kernel=kernel.uid,
                timestep=timestep,
                phase=phase,
                config=cfg.label(),
                retries=self.retry_limit,
                wait_s=round(wait_s, 4),
            )
            return KernelExecution(
                timestep=timestep,
                kernel_uid=kernel.uid,
                config=cfg,
                time_s=wait_s,
                power_w=0.0,
                power_cap_w=cap,
                phase="failed",
            )
        m = profile.measurement
        executed = m.config
        if executed != cfg:
            # The hardware reports a different P-state than requested:
            # stuck or thermally throttled.
            self._note_stuck(kernel, cfg, executed, phase)
        _INVOCATIONS.inc()
        if not respects_cap(m.total_power_w, cap):
            _CAP_VIOLATIONS.inc()
            log_event(
                _log,
                logging.DEBUG,
                "runtime-cap-violation",
                kernel=kernel.uid,
                timestep=timestep,
                phase=phase,
                cap_w=round(cap, 3),
                power_w=round(m.total_power_w, 3),
                config=executed.label(),
            )
        return KernelExecution(
            timestep=timestep,
            kernel_uid=kernel.uid,
            config=executed,
            time_s=m.time_s + wait_s,
            power_w=m.total_power_w,
            power_cap_w=cap,
            phase=phase,
        )

    def _profile_with_retry(
        self, kernel: Kernel, cfg: Configuration
    ) -> tuple[KernelProfile | None, float]:
        """Profile once, retrying failed runs with capped exponential
        backoff.  Returns ``(profile, backoff seconds waited)``;
        ``profile`` is ``None`` when the retry budget is exhausted."""
        try:
            return self.library.profile(kernel, cfg), 0.0
        except SampleRunError:
            pass
        wait_s = 0.0
        with trace_span("online/degraded"):
            for attempt in range(self.retry_limit):
                _RETRIES.inc()
                wait_s += min(
                    self.backoff_base_s * (2.0**attempt), self.backoff_cap_s
                )
                try:
                    return self.library.profile(kernel, cfg), wait_s
                except SampleRunError:
                    continue
        return None, wait_s

    def _note_stuck(
        self,
        kernel: Kernel,
        requested: Configuration,
        executed: Configuration,
        phase: str,
    ) -> None:
        """Degrade after a stuck/throttled execution: count it and, for
        scheduled work, quarantine the configuration so the scheduler
        re-selects from the surviving frontier next invocation."""
        _STUCK_EXECUTIONS.inc()
        if phase != "scheduled" or not self.quarantine_stuck:
            return
        with trace_span("online/degraded"):
            self.scheduler.quarantine(requested)
            log_event(
                _log,
                logging.WARNING,
                "runtime-pstate-stuck",
                kernel=kernel.uid,
                requested=requested.label(),
                executed=executed.label(),
            )

    def _select(self, kernel: Kernel, cap: float) -> Configuration:
        """``Scheduler.select``'s choice as one ``decide_batch`` lookup in
        the kernel's sweep table, rebuilt when the quarantine set changes."""
        from repro.server.engine import DecisionIndex, decide_batch

        quarantined = self.scheduler.quarantined
        built = self._indexes.get(kernel.uid)
        if built is None or built[0] != quarantined:
            prediction = self._prediction_for(kernel)
            table = self.scheduler.sweep_table(
                prediction, risk_averse=self.risk_averse
            )
            built = self._indexes[kernel.uid] = (
                quarantined,
                DecisionIndex({kernel.uid: prediction}, {kernel.uid: table}),
            )
        return decide_batch(
            self.scheduler, self._predictions, [kernel.uid], [cap], index=built[1]
        ).config(0)

    def _prediction_for(self, kernel: Kernel) -> KernelPrediction:
        if kernel.uid not in self._predictions:
            history = self.library.database.for_kernel(kernel.uid)
            # The first two recorded profiles are the sample runs, in
            # protocol order.  Match by configuration when possible; a
            # P-state fault during sampling substitutes the executed
            # configuration, in which case fall back to record order.
            cpu_sample, gpu_sample = self._samples
            cpu_m = next(
                (p.measurement for p in history if p.config == cpu_sample),
                history[0].measurement,
            )
            gpu_m = next(
                (p.measurement for p in history if p.config == gpu_sample),
                history[1].measurement,
            )
            cpu_m, gpu_m, cluster = classifiable_anchors(
                self.model,
                cpu_m,
                gpu_m,
                kernel_uid=kernel.uid,
                event="runtime-corrupt-samples",
            )
            self._predictions[kernel.uid] = self.model.predict_kernel(
                cpu_m,
                gpu_m,
                kernel_uid=kernel.uid,
                with_uncertainty=self.risk_averse,
                cluster=cluster,
            )
        return self._predictions[kernel.uid]


class StaticRuntime:
    """Baseline: every kernel on one fixed configuration, cap-blind."""

    def __init__(self, library: ProfilingLibrary, config: Configuration) -> None:
        self.library = library
        self.config = config

    def run(
        self,
        application: Application,
        n_timesteps: int,
        power_cap_w: CapSchedule,
    ) -> ApplicationTrace:
        if n_timesteps < 1:
            raise ValueError("n_timesteps must be >= 1")
        trace = ApplicationTrace(application=application.name)
        for t in range(n_timesteps):
            cap = _cap_at(power_cap_w, t)
            for kernel in application.kernels:
                m = self.library.profile(kernel, self.config).measurement
                trace.record(
                    KernelExecution(
                        timestep=t,
                        kernel_uid=kernel.uid,
                        config=self.config,
                        time_s=m.time_s,
                        power_w=m.total_power_w,
                        power_cap_w=cap,
                        phase="static",
                    )
                )
        return trace


class OracleRuntime:
    """Baseline: ground-truth best configuration per kernel per cap."""

    def __init__(self, library: ProfilingLibrary) -> None:
        self.library = library
        self._oracle = Oracle(library.apu)

    def run(
        self,
        application: Application,
        n_timesteps: int,
        power_cap_w: CapSchedule,
    ) -> ApplicationTrace:
        if n_timesteps < 1:
            raise ValueError("n_timesteps must be >= 1")
        trace = ApplicationTrace(application=application.name)
        for t in range(n_timesteps):
            cap = _cap_at(power_cap_w, t)
            for kernel in application.kernels:
                cfg = self._oracle.decide(kernel, cap).config
                m = self.library.profile(kernel, cfg).measurement
                trace.record(
                    KernelExecution(
                        timestep=t,
                        kernel_uid=kernel.uid,
                        config=cfg,
                        time_s=m.time_s,
                        power_w=m.total_power_w,
                        power_cap_w=cap,
                        phase="oracle",
                    )
                )
        return trace
