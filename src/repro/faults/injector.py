"""The fault injector: deterministic perturbation of measurement paths.

A :class:`FaultInjector` owns a :class:`~repro.faults.plan.FaultPlan`
and a thread-safe *measured-run clock*.  Measurement paths
(:meth:`repro.hardware.backend.AnalyticalBackend.run`,
:meth:`repro.profiling.library.ProfilingLibrary.profile`) call
:meth:`FaultInjector.begin_run` once per execution; the injector
advances the clock, resolves which plan events cover the run, and
returns a :class:`RunContext` describing

* the configuration the hardware *actually* executes (P-state faults:
  stuck, unavailable, thermally throttled, resolved on the
  configuration's own machine ladders), and
* the sensor faults to apply to the resulting readings
  (:meth:`RunContext.apply`: power dropout/bias, counter NaN/corruption).

``run_failure`` events abort the run by raising
:class:`~repro.faults.errors.SampleRunError` instead.

The injector never touches ground truth: oracle baselines and the
evaluation harness keep judging on the machine's ``true_table``, which
is exactly what lets the chaos suite assert that injected faults never
*improve* reported results.

Every event activation increments ``faults.injected.total`` and
``faults.injected.<kind>`` in the telemetry registry, so a scenario's
telemetry.json shows at least as many injections as scheduled events
whose windows were reached.
"""

from __future__ import annotations

import math
import threading
from dataclasses import replace
from typing import Mapping

from repro.faults.errors import SampleRunError
from repro.faults.plan import (
    PSTATE_FAULT_KINDS,
    SENSOR_FAULT_KINDS,
    FaultEvent,
    FaultPlan,
)
from repro.hardware.config import Configuration
from repro.telemetry import counter

__all__ = [
    "FaultInjector",
    "RunContext",
    "conservative_measurement",
    "measurement_is_finite",
    "sanitize_measurement",
]

_INJECTED_TOTAL = counter("faults.injected.total")
_INJECTED_BY_KIND = {
    kind: counter(f"faults.injected.{kind}") for kind in (
        "power_dropout",
        "power_bias",
        "counter_nan",
        "counter_corrupt",
        "pstate_stuck",
        "pstate_unavailable",
        "thermal_throttle",
        "run_failure",
    )
}

#: Conservative fallback readings used when a sample measurement is
#: missing or corrupt beyond repair: a slow, mid-power observation that
#: biases downstream predictions toward caution rather than optimism.
FALLBACK_TIME_S: float = 1.0
FALLBACK_CPU_PLANE_W: float = 12.0
FALLBACK_NBGPU_PLANE_W: float = 8.0


def _event_targets_run(event: FaultEvent, cfg) -> bool:
    """Whether an event's device scope covers a run on ``cfg``."""
    if event.device is None:
        return True
    if event.device == "cpu":
        # Every configuration has a primary (CPU) frequency domain —
        # secondary rows carry the host's P-state — but a P-state fault
        # cannot move a host the machine keeps fixed.
        return not (
            cfg.is_gpu
            and event.kind in PSTATE_FAULT_KINDS
            and len(_host_ladder(cfg)) == 1
        )
    return cfg.is_gpu


def _host_ladder(cfg) -> tuple[float, ...]:
    """The rungs ``cfg.cpu_freq_ghz`` may take on its own machine."""
    d = cfg.descriptor
    return d.host_freqs_ghz() if cfg.is_gpu else d.primary.freqs_ghz


def _rung(freqs: tuple[float, ...], f: float) -> int:
    for i, g in enumerate(freqs):
        if abs(g - f) < 1e-9:
            return i
    raise ValueError(f"{f} GHz is not on the ladder {freqs}")


def _substitute_pstates(cfg, events: tuple[FaultEvent, ...]):
    """The configuration the hardware executes under P-state faults.

    P-states resolve on the configuration's own ladders, and the result
    is rebuilt by its own descriptor; with no P-state event ``cfg`` comes
    back untouched.  Events apply in plan order.  ``device`` scoping:
    ``"cpu"`` targets the primary ladder (the host's for secondary
    rows), ``"gpu"`` the secondary ladder of secondary rows, ``None``
    the run's own block.  Indices are clamped to the targeted ladder.
    """
    if not events:
        return cfg
    ladders = {"cpu_freq_ghz": _host_ladder(cfg)}
    if cfg.is_gpu:
        ladders["gpu_freq_ghz"] = cfg.descriptor.secondary.freqs_ghz
    index = {axis: _rung(freqs, getattr(cfg, axis)) for axis, freqs in ladders.items()}
    for ev in events:
        target_gpu = ev.device == "gpu" or (ev.device is None and cfg.is_gpu)
        axis = "gpu_freq_ghz" if target_gpu else "cpu_freq_ghz"
        if axis not in index:
            continue  # primary-block run: no secondary ladder to perturb
        depth = len(ladders[axis])
        idx = min(ev.pstate_index, depth - 1)
        index[axis] = _apply_pstate_fault(ev.kind, index[axis], idx, depth)
    return cfg.replace(**{axis: ladders[axis][i] for axis, i in index.items()})


def _apply_pstate_fault(kind: str, current: int, idx: int, depth: int) -> int:
    if kind == "pstate_stuck":
        return idx
    if kind == "thermal_throttle":
        return min(current, idx)
    # pstate_unavailable: the requested state cannot be entered; the
    # governor falls back to the next lower state (next higher at the
    # ladder floor).
    if current == idx:
        return current - 1 if current > 0 else min(current + 1, depth - 1)
    return current


class RunContext:
    """Resolved faults of one measured run (returned by
    :meth:`FaultInjector.begin_run`).

    Attributes
    ----------
    config:
        Configuration the hardware actually executes (equals the
        requested one unless a P-state fault intervened).
    requested:
        The configuration the caller asked for.
    """

    __slots__ = ("config", "requested", "_sensor_events")

    def __init__(
        self,
        config: Configuration,
        requested: Configuration,
        sensor_events: tuple[FaultEvent, ...],
    ) -> None:
        self.config = config
        self.requested = requested
        self._sensor_events = sensor_events

    @property
    def clean(self) -> bool:
        """Whether this run is entirely unaffected by the plan."""
        return self.config is self.requested and not self._sensor_events

    def apply(self, measurement):
        """Perturb a completed measurement with this run's sensor faults.

        Returns the measurement unchanged (same object) when no sensor
        event covers the run — the empty-plan path is bit-identical.
        """
        if not self._sensor_events:
            return measurement
        cpu_w = measurement.cpu_plane_w
        nbgpu_w = measurement.nbgpu_plane_w
        counters: Mapping[str, float] = measurement.counters
        for ev in self._sensor_events:
            on_cpu_plane = ev.device in (None, "cpu")
            on_gpu_plane = ev.device in (None, "gpu")
            if ev.kind == "power_dropout":
                if on_cpu_plane:
                    cpu_w = math.nan
                if on_gpu_plane:
                    nbgpu_w = math.nan
            elif ev.kind == "power_bias":
                if on_cpu_plane:
                    cpu_w *= ev.magnitude
                if on_gpu_plane:
                    nbgpu_w *= ev.magnitude
            elif ev.kind == "counter_nan":
                counters = {name: math.nan for name in counters}
            elif ev.kind == "counter_corrupt":
                counters = {
                    name: value * ev.magnitude for name, value in counters.items()
                }
        return replace(
            measurement,
            cpu_plane_w=cpu_w,
            nbgpu_plane_w=nbgpu_w,
            counters=counters,
        )


class FaultInjector:
    """Stateful executor of a :class:`FaultPlan` over the run clock.

    Thread-safe: the clock advances under a lock, so concurrent
    measurement paths each observe a unique run index.  (Concurrency
    still makes *which* run draws which index nondeterministic — fault
    replays should run serially, which :func:`repro.evaluation.run_loocv`
    enforces when a plan is active.)
    """

    def __init__(self, plan: FaultPlan) -> None:
        if not isinstance(plan, FaultPlan):
            raise TypeError(f"expected FaultPlan, got {type(plan).__name__}")
        self.plan = plan
        self._lock = threading.Lock()
        self._runs = 0

    @property
    def runs_started(self) -> int:
        """Measured runs begun so far (the clock's current value)."""
        return self._runs

    def begin_run(self, cfg: Configuration) -> RunContext:
        """Advance the run clock and resolve this run's faults.

        Raises :class:`SampleRunError` if an active ``run_failure``
        event covers the run; otherwise returns the :class:`RunContext`
        whose :attr:`~RunContext.config` the caller must execute and
        whose :meth:`~RunContext.apply` it must pass the readings
        through.
        """
        with self._lock:
            run_index = self._runs
            self._runs += 1
        if self.plan.empty:
            return RunContext(cfg, cfg, ())
        active = [
            ev
            for ev in self.plan.active_events(run_index)
            if _event_targets_run(ev, cfg)
        ]
        if not active:
            return RunContext(cfg, cfg, ())
        for ev in active:
            _INJECTED_TOTAL.inc()
            _INJECTED_BY_KIND[ev.kind].inc()
        if any(ev.kind == "run_failure" for ev in active):
            raise SampleRunError(
                f"injected run failure at run {run_index} on {cfg.label()} "
                f"(plan {self.plan.name!r})"
            )
        executed = _substitute_pstates(
            cfg, tuple(ev for ev in active if ev.kind in PSTATE_FAULT_KINDS)
        )
        sensor = tuple(ev for ev in active if ev.kind in SENSOR_FAULT_KINDS)
        if executed == cfg:
            executed = cfg  # preserve identity for the clean fast path
        return RunContext(executed, cfg, sensor)


# -- measurement hygiene ----------------------------------------------------


def measurement_is_finite(measurement) -> bool:
    """Whether every field a consumer might trust is finite and usable
    (positive time, finite non-negative powers, finite counters)."""
    return (
        math.isfinite(measurement.time_s)
        and measurement.time_s > 0
        and math.isfinite(measurement.cpu_plane_w)
        and math.isfinite(measurement.nbgpu_plane_w)
        and all(math.isfinite(v) for v in measurement.counters.values())
    )


def sanitize_measurement(measurement, config: Configuration | None = None):
    """A finite stand-in for a corrupt (or missing) measurement.

    Non-finite fields are replaced by the conservative fallback
    readings; finite fields pass through untouched.  ``measurement`` may
    be ``None`` (a run that never succeeded), in which case ``config``
    names the configuration of the synthesized observation.
    """
    if measurement is None:
        if config is None:
            raise ValueError("config is required to synthesize a measurement")
        return conservative_measurement(config)
    time_s = (
        measurement.time_s
        if math.isfinite(measurement.time_s) and measurement.time_s > 0
        else FALLBACK_TIME_S
    )
    cpu_w = (
        measurement.cpu_plane_w
        if math.isfinite(measurement.cpu_plane_w)
        else FALLBACK_CPU_PLANE_W
    )
    nbgpu_w = (
        measurement.nbgpu_plane_w
        if math.isfinite(measurement.nbgpu_plane_w)
        else FALLBACK_NBGPU_PLANE_W
    )
    counters = {
        name: (value if math.isfinite(value) else 0.0)
        for name, value in measurement.counters.items()
    }
    return replace(
        measurement,
        time_s=time_s,
        cpu_plane_w=cpu_w,
        nbgpu_plane_w=nbgpu_w,
        counters=counters,
    )


def conservative_measurement(config: Configuration):
    """A wholly synthetic conservative observation at ``config``."""
    from repro.hardware.apu import Measurement

    return Measurement(
        config=config,
        time_s=FALLBACK_TIME_S,
        cpu_plane_w=FALLBACK_CPU_PLANE_W,
        nbgpu_plane_w=FALLBACK_NBGPU_PLANE_W,
        counters={},
    )
