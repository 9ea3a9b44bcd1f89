"""State-of-the-practice baselines: CPU+FL and GPU+FL.

Paper Section V-A: RAPL-style frequency limiting, simulated on both
devices (the test system has no RAPL):

* **CPU+FL** — "we enable all available cores, set the GPU to minimum
  frequency, and let the frequency limiter set CPU P-states in response
  to power constraints."
* **GPU+FL** — "we initially set CPU frequency to its minimum and GPU
  frequency to its maximum during kernel execution, then let the
  frequency limiter control GPU P-states in response to power
  constraints.  If there is power headroom after setting the GPU
  P-state, we increase the CPU frequency as much as is possible without
  violating the power constraint."

Neither baseline can change device or core count — the structural
limitation the paper's model overcomes.
"""

from __future__ import annotations

from itertools import repeat

import numpy as np

from repro.hardware.backend import HardwareBackend
from repro.hardware.rapl import FrequencyLimiter
from repro.methods.base import MethodDecision, PowerLimitMethod

__all__ = ["CpuFrequencyLimiting", "GpuFrequencyLimiting"]


class _FrequencyLimiting(PowerLimitMethod):
    """A baseline that starts every cap at one configuration and lets
    the limiter walk its frequency: a kernel's whole cap sweep is one
    :meth:`FrequencyLimiter.limit_many` pass on the method's stream."""

    #: Whether the policy raises the host into headroom (GPU+FL).
    headroom = False

    def __init__(
        self, apu: HardwareBackend, *, seed: int | np.random.SeedSequence = 0
    ) -> None:
        self.limiter = FrequencyLimiter(apu)
        self._rng = np.random.default_rng(seed)

    def decide_many(self, kernel, power_caps_w) -> list[MethodDecision]:
        start = self.limiter.gpu_start if self.headroom else self.limiter.cpu_start
        sweep = self.limiter.limit_many(
            kernel, [start] * len(power_caps_w), power_caps_w,
            rng=self._rng, headroom=self.headroom,
        )
        return list(map(tuple.__new__, repeat(MethodDecision), sweep))


class CpuFrequencyLimiting(_FrequencyLimiting):
    """The paper's ``CPU+FL`` baseline: all cores on, CPU P-state
    limited to the cap."""

    name = "CPU+FL"


class GpuFrequencyLimiting(_FrequencyLimiting):
    """The paper's ``GPU+FL`` baseline: GPU maxed then limited; host CPU
    raised into headroom."""

    name = "GPU+FL"
    headroom = True
