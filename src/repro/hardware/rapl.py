"""RAPL-style hardware frequency limiting (simulated).

The paper compares its model against "state-of-the-practice" power
limiting based on Intel RAPL (Section V-A).  RAPL enforces a power cap by
dynamically lowering the processor frequency.  The paper's Trinity test
system has no RAPL, so the authors *simulated* frequency limiting on both
the CPU and GPU — and so do we, with the same semantics:

* the limiter observes **measured** power (noisy, like real RAPL energy
  counters) and steps the controlled device's P-state down until the cap
  is met or the lowest P-state is reached;
* it can only change *frequency* — never the device or the thread count.
  That limitation is precisely why frequency limiting alone fails on
  kernels like LU Small (Section V-D): meeting some caps requires
  switching device or dropping cores;
* for GPU configurations, once the GPU P-state is settled and headroom
  remains, the host CPU frequency is raised as far as the cap allows
  (the paper's GPU+FL refinement); conversely if the GPU floor still
  violates the cap, the host CPU is stepped down too.

The walks are built from each configuration's own descriptor, so the
limiter runs on every backend: there the primary block plays the CPU
and the secondary block the GPU.  Only Trinity's space varies the host
of a secondary-block run, so elsewhere those walks stay on the
secondary ladder.

A method walks a kernel's whole cap sweep in one
:meth:`FrequencyLimiter.limit_many` pass (on a clean machine, on one
block of noise); the one-cap methods are one-cap sweeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, partial

import numpy as np

from repro.constants import respects_cap
from repro.hardware.backend import (
    HardwareBackend,
    Measurement,
    characteristics_of,
)
from repro.hardware.config import Configuration
from repro.telemetry import counter

__all__ = ["FrequencyLimiter", "LimiterResult"]

# Degradation accounting (docs/ROBUSTNESS.md): control-loop readings
# the limiter had to treat as worst-case because the sensor dropped out
# (non-finite power) or the run failed outright.
_WORST_CASE_READS = counter("faults.limiter.worst_case_reads")
_FAILED_RUNS = counter("faults.limiter.failed_runs")


@dataclass(frozen=True)
class LimiterResult:
    """Outcome of a frequency-limiting control episode.

    Attributes
    ----------
    final_config:
        Configuration the limiter settled on.
    met_cap:
        Whether the final *observed* power is within the cap (shared
        :data:`repro.constants.CAP_EPSILON` tolerance).  Worst-case
        reads never count as meeting the cap.
    trace:
        Every (configuration, observed total power) the limiter
        visited, in order — useful for inspecting convergence.
        Observed power is ``inf`` for a dropped-out or failed reading
        (the worst-case assumption the controller acted on).
    final_measurement:
        The measurement taken at the final configuration.  When that
        run failed outright (injected fault), a placeholder with NaN
        readings at the final configuration.
    """

    final_config: Configuration
    met_cap: bool
    trace: tuple[tuple[Configuration, float], ...] = ()
    final_measurement: Measurement | None = field(default=None, repr=False, compare=False)


def _failed(cfg: Configuration) -> Measurement:
    """Placeholder for a final run that produced no measurement."""
    return Measurement(
        config=cfg,
        time_s=math.nan,
        cpu_plane_w=math.nan,
        nbgpu_plane_w=math.nan,
        counters={},
    )


def _below(freqs: tuple[float, ...], f: float) -> list[float]:
    """Rungs of ascending ``freqs`` strictly below ``f``, descending."""
    return [g for g in reversed(freqs) if g < f - 1e-9]


@cache
def _ladder(start, down: bool) -> tuple:
    """The configurations a walk from ``start`` measures, in order.

    Built from the configuration's own descriptor, visiting only rungs
    of its space (each step is the space's own instance, so the memo
    caches hit by identity).  Going down: ``start`` itself, then every lower
    P-state — the primary ladder at ``start``'s unit count on a
    primary-block run; on a secondary-block run the secondary ladder
    first, then the host ladder (which only Trinity's space varies).
    Going up (the headroom refinement, from an already-measured
    ``start``): every higher host rung.  The path never depends on the
    noise, only where the walk stops does, so it is memoized
    process-wide.
    """
    d = start.descriptor
    host = d.host_freqs_ghz() if start.is_gpu else d.primary.freqs_ghz
    f = start.cpu_freq_ghz
    if not down:
        return tuple(
            start.replace(cpu_freq_ghz=h) for h in host if h > f + 1e-9
        )
    steps = [start]
    if start.is_gpu:
        steps += [
            start.replace(gpu_freq_ghz=g)
            for g in _below(d.secondary.freqs_ghz, start.gpu_freq_ghz)
        ]
    return tuple(steps) + tuple(
        steps[-1].replace(cpu_freq_ghz=h) for h in _below(host, f)
    )


def _walk(steps, power_cap_w: float, trace: list, settled, *, down: bool):
    """Measure a ladder's ``(config, power, reading)`` ``steps`` in
    turn, appending to ``trace``.

    Going down the walk stops at the first cap-compliant reading and
    settles on the last step visited; going up it stops at the first
    violating reading and settles on the last compliant step (or keeps
    ``settled``).  Returns the settled ``(config, reading)``.

    Real RAPL firmware cannot crash because an energy counter glitched
    — a dropped-out sensor (non-finite power) or a failed run reads as
    ``inf``, the worst case, so the controller steps down (or backs
    off) instead of silently accepting an unknown draw.
    """
    for cfg, power, reading in steps:
        if reading is None:
            _FAILED_RUNS.inc()
            power = math.inf
        elif not math.isfinite(power):
            _WORST_CASE_READS.inc()
            power = math.inf
        trace.append((cfg, power))
        ok = respects_cap(power, power_cap_w)
        if down or ok:
            settled = cfg, reading
        if ok == down:
            break
    return settled


class FrequencyLimiter:
    """Closed-loop P-state controller enforcing a power cap.

    Parameters
    ----------
    apu:
        The machine to control (any backend).  The limiter only ever
        sees *measurements*: a whole cap sweep through one
        :meth:`HardwareBackend.noise_block` on a clean machine, else
        step by step through :meth:`HardwareBackend.observe`.
    """

    def __init__(self, apu: HardwareBackend) -> None:
        self.apu = apu
        d = apu.descriptor
        primary, secondary = d.sample_configs()
        #: CPU+FL's and GPU+FL's starts (see their policies below).
        self.cpu_start = primary
        self.gpu_start = secondary.replace(cpu_freq_ghz=d.host_freqs_ghz()[0])

    def _sweep(self, kernel, starts, caps, rng, headroom: bool):
        """``[(config, reading, met_cap, trace)]`` per cap, and the
        function turning a settled reading into its measurement."""
        if len(starts) != len(caps):
            raise ValueError(f"{len(starts)} starts for {len(caps)} caps")
        for cap in caps:
            if not (math.isfinite(cap) and cap > 0):
                raise ValueError(f"power_cap_w must be positive and finite, got {cap}")
        chars = characteristics_of(kernel)
        downs = [_ladder(start, True) for start in starts]
        steps = sum(map(len, downs))
        if headroom:
            steps += len(caps) * len(self.apu.descriptor.host_freqs_ghz())
        block = self.apu.noise_block(chars, rng=rng, steps=steps)
        if block is None:
            observe, measurement = partial(self.apu.observe, chars, rng=rng), self.apu.measurement
        else:
            observe, measurement = partial(map, block.read), block.measurement
        results = []
        try:
            for ladder, cap in zip(downs, caps):
                trace: list[tuple[Configuration, float]] = []
                settled = _walk(observe(ladder), cap, trace, None, down=True)
                met_cap = respects_cap(trace[-1][1], cap)
                if headroom and met_cap:
                    # Exploit headroom: raise the host frequency while
                    # under the cap.  A worst-case read observes as inf,
                    # so the step-up backs off like a genuine violation.
                    up = _ladder(settled[0], False)
                    settled = _walk(observe(up), cap, trace, settled, down=False)
                results.append((*settled, met_cap, trace))
        finally:
            if block is not None:
                block.close()
        return results, measurement

    def limit_many(
        self,
        kernel: object,
        starts,
        caps,
        *,
        rng: np.random.Generator | None = None,
        headroom: bool = False,
    ) -> list[tuple[Configuration, int]]:
        """Walk cap ``caps[i]`` from ``starts[i]`` for each ``i`` in
        order, as :meth:`limit` would (with ``headroom``, as
        :meth:`limit_gpu_with_headroom` would) with the stream left
        where those walks leave it.  Returns ``(settled configuration,
        measured runs)`` per cap.  Raises :class:`ValueError` before any
        run unless the caps are positive and finite, one per start.
        """
        results, _ = self._sweep(kernel, starts, caps, rng, headroom)
        return [(cfg, len(trace)) for cfg, _, _, trace in results]

    def _limit(
        self,
        kernel: object,
        start: Configuration,
        power_cap_w: float,
        rng: np.random.Generator | None,
        *,
        headroom: bool,
    ) -> LimiterResult:
        """A one-cap sweep as a :class:`LimiterResult`."""
        results, measurement = self._sweep(
            kernel, (start,), (power_cap_w,), rng, headroom
        )
        [(cfg, reading, met_cap, trace)] = results
        final = _failed(cfg) if reading is None else measurement(cfg, reading)
        return LimiterResult(cfg, met_cap, tuple(trace), final)

    def limit(
        self,
        kernel: object,
        start: Configuration,
        power_cap_w: float,
        *,
        rng: np.random.Generator | None = None,
    ) -> LimiterResult:
        """Run the control loop from ``start`` until the cap is met or no
        further frequency reduction is possible.

        On primary-block (CPU) configurations only the primary P-state
        is lowered (the unit count is outside RAPL's authority).  On
        secondary-block (GPU) configurations the secondary P-state is
        lowered first; if the cap is still violated at its floor, the
        host P-state is lowered as well, where the machine varies it.
        Raises :class:`ValueError` unless ``power_cap_w`` is positive
        and finite.
        """
        return self._limit(kernel, start, power_cap_w, rng, headroom=False)

    def limit_gpu_with_headroom(
        self,
        kernel: object,
        power_cap_w: float,
        *,
        rng: np.random.Generator | None = None,
    ) -> LimiterResult:
        """The paper's GPU+FL policy (Section V-A).

        Start from the secondary sample configuration (GPU at maximum
        frequency) with the host at its lowest rung; lower the GPU
        P-state until the cap is met; then, if headroom remains, raise
        the host frequency as far as possible without violating the cap
        (a no-op on machines with a fixed host).
        """
        return self._limit(kernel, self.gpu_start, power_cap_w, rng, headroom=True)

    def limit_cpu_all_cores(
        self,
        kernel: object,
        power_cap_w: float,
        *,
        rng: np.random.Generator | None = None,
    ) -> LimiterResult:
        """The paper's CPU+FL policy (Section V-A): the primary sample
        configuration (all cores at maximum frequency, GPU at minimum),
        CPU P-state lowered to meet the cap."""
        return self.limit(kernel, self.cpu_start, power_cap_w, rng=rng)
