"""Step-by-step reference for :class:`repro.hardware.FrequencyLimiter`.

The limiter walks a memoized P-state ladder, and on a clean machine a
whole cap sweep on one block of noise drawn ahead from the stream.  This
module keeps the straightforward control loop it replaced — one full
``run`` per step, the next P-state derived from the current one on the
configuration's own descriptor ladders — as the oracle the limiter must
reproduce bit for bit on every backend: same trace, same settled
configuration and measurement, same generator state afterwards, same
telemetry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.constants import respects_cap
from repro.faults.errors import SampleRunError
from repro.hardware.backend import Measurement
from repro.hardware.config import Configuration
from repro.telemetry import counter

_WORST_CASE_READS = counter("faults.limiter.worst_case_reads")
_FAILED_RUNS = counter("faults.limiter.failed_runs")


@dataclass(frozen=True)
class ReferenceResult:
    final_config: Configuration
    final_measurement: Measurement
    met_cap: bool
    trace: tuple[tuple[Configuration, float], ...]


def _host_ladder(cfg):
    """The ladder the limiter moves ``cfg``'s host frequency along: the
    primary ladder on a CPU row, the host rungs on a GPU row."""
    d = cfg.descriptor
    return d.host_freqs_ghz() if cfg.is_gpu else d.primary.freqs_ghz


def _rung(ladder, f) -> int:
    return min(range(len(ladder)), key=lambda i: abs(ladder[i] - f))


def _step_cpu(cfg, delta: int):
    ladder = _host_ladder(cfg)
    i = _rung(ladder, cfg.cpu_freq_ghz) + delta
    if not 0 <= i < len(ladder):
        return None
    return cfg.replace(cpu_freq_ghz=ladder[i])


def _step_down_gpu(cfg):
    ladder = cfg.descriptor.secondary.freqs_ghz
    i = _rung(ladder, cfg.gpu_freq_ghz)
    if i == 0:
        return None
    return cfg.replace(gpu_freq_ghz=ladder[i - 1])


class ReferenceLimiter:
    """The per-step control loop, with the public limiter's policies."""

    def __init__(self, apu) -> None:
        self.apu = apu

    def _observe(self, kernel, cfg, rng):
        try:
            m = self.apu.run(kernel, cfg, rng=rng)
        except SampleRunError:
            _FAILED_RUNS.inc()
            return None, math.inf
        power = m.total_power_w
        if not math.isfinite(power):
            _WORST_CASE_READS.inc()
            return m, math.inf
        return m, power

    @staticmethod
    def _final_measurement(m, cfg):
        if m is not None:
            return m
        return Measurement(
            config=cfg,
            time_s=math.nan,
            cpu_plane_w=math.nan,
            nbgpu_plane_w=math.nan,
            counters={},
        )

    def limit(self, kernel, start, power_cap_w, *, rng=None, headroom=False):
        trace = []
        cfg = start
        m, observed = self._observe(kernel, cfg, rng)
        trace.append((cfg, observed))
        while not respects_cap(observed, power_cap_w):
            if cfg.is_gpu:
                nxt = _step_down_gpu(cfg) or _step_cpu(cfg, -1)
            else:
                nxt = _step_cpu(cfg, -1)
            if nxt is None:
                break
            cfg = nxt
            m, observed = self._observe(kernel, cfg, rng)
            trace.append((cfg, observed))
        met_cap = respects_cap(observed, power_cap_w)
        final = self._final_measurement(m, cfg)
        if headroom and met_cap:
            while True:
                nxt = _step_cpu(cfg, +1)
                if nxt is None:
                    break
                m_next, observed = self._observe(kernel, nxt, rng)
                trace.append((nxt, observed))
                if not respects_cap(observed, power_cap_w):
                    break
                cfg, final = nxt, m_next
        return ReferenceResult(
            final_config=cfg,
            final_measurement=final,
            met_cap=met_cap,
            trace=tuple(trace),
        )

    def limit_gpu_with_headroom(self, kernel, power_cap_w, *, rng=None):
        d = self.apu.descriptor
        start = d.sample_configs()[1].replace(cpu_freq_ghz=d.host_freqs_ghz()[0])
        return self.limit(kernel, start, power_cap_w, rng=rng, headroom=True)

    def limit_cpu_all_cores(self, kernel, power_cap_w, *, rng=None):
        start = self.apu.descriptor.sample_configs()[0]
        return self.limit(kernel, start, power_cap_w, rng=rng)
