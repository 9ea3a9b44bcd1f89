"""Step-by-step reference for :class:`repro.hardware.FrequencyLimiter`.

The limiter walks a memoized P-state ladder through
:meth:`TrinityAPU.observe`, which draws only what each step's total
power needs.  This module keeps the straightforward control loop it
replaced — one full :meth:`TrinityAPU.run` per step, the next P-state
derived from the current one — as the oracle the ladder walk must
reproduce bit for bit: same trace, same settled configuration and
measurement, same generator state afterwards, same telemetry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.constants import respects_cap
from repro.faults.errors import SampleRunError
from repro.hardware import pstates
from repro.hardware.apu import Measurement
from repro.hardware.config import Configuration, Device
from repro.telemetry import counter
from tests.conftest import cpu_config, gpu_config

_WORST_CASE_READS = counter("faults.limiter.worst_case_reads")
_FAILED_RUNS = counter("faults.limiter.failed_runs")


@dataclass(frozen=True)
class ReferenceResult:
    final_config: Configuration
    final_measurement: Measurement
    met_cap: bool
    trace: tuple[tuple[Configuration, float], ...]


def _step_down_cpu(cfg):
    i = pstates.CPU_FREQS_GHZ.index(cfg.cpu_freq_ghz)
    if i == 0:
        return None
    f = pstates.CPU_FREQS_GHZ[i - 1]
    if cfg.device is Device.CPU:
        return cpu_config(f, cfg.n_threads)
    return gpu_config(cfg.gpu_freq_ghz, f)


def _step_up_cpu(cfg):
    i = pstates.CPU_FREQS_GHZ.index(cfg.cpu_freq_ghz)
    if i == len(pstates.CPU_FREQS_GHZ) - 1:
        return None
    f = pstates.CPU_FREQS_GHZ[i + 1]
    if cfg.device is Device.CPU:
        return cpu_config(f, cfg.n_threads)
    return gpu_config(cfg.gpu_freq_ghz, f)


def _step_down_gpu(cfg):
    i = pstates.GPU_FREQS_GHZ.index(cfg.gpu_freq_ghz)
    if i == 0:
        return None
    return gpu_config(pstates.GPU_FREQS_GHZ[i - 1], cfg.cpu_freq_ghz)


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

    def limit(self, kernel, start, power_cap_w, *, rng=None):
        trace = []
        cfg = start
        m, observed = self._observe(kernel, cfg, rng)
        trace.append((cfg, observed))
        while not respects_cap(observed, power_cap_w):
            if cfg.device is Device.GPU:
                nxt = _step_down_gpu(cfg) or _step_down_cpu(cfg)
            else:
                nxt = _step_down_cpu(cfg)
            if nxt is None:
                break
            cfg = nxt
            m, observed = self._observe(kernel, cfg, rng)
            trace.append((cfg, observed))
        return ReferenceResult(
            final_config=cfg,
            final_measurement=self._final_measurement(m, cfg),
            met_cap=respects_cap(observed, power_cap_w),
            trace=tuple(trace),
        )

    def limit_gpu_with_headroom(self, kernel, power_cap_w, *, rng=None):
        start = gpu_config(pstates.GPU_MAX_FREQ_GHZ, pstates.CPU_MIN_FREQ_GHZ)
        result = self.limit(kernel, start, power_cap_w, rng=rng)
        if not result.met_cap:
            return result
        trace = list(result.trace)
        cfg, m = result.final_config, result.final_measurement
        while True:
            nxt = _step_up_cpu(cfg)
            if nxt is None:
                break
            m_next, observed = self._observe(kernel, nxt, rng)
            trace.append((nxt, observed))
            if not respects_cap(observed, power_cap_w):
                break
            cfg, m = nxt, m_next
        return ReferenceResult(
            final_config=cfg, final_measurement=m, met_cap=True, trace=tuple(trace)
        )

    def limit_cpu_all_cores(self, kernel, power_cap_w, *, rng=None):
        start = cpu_config(pstates.CPU_MAX_FREQ_GHZ, pstates.N_CORES)
        return self.limit(kernel, start, power_cap_w, rng=rng)
