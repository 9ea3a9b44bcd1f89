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

import numpy as np

from repro.hardware.backend import HardwareBackend
from repro.hardware.rapl import FrequencyLimiter
from repro.methods.base import MethodDecision, PowerLimitMethod

__all__ = ["CpuFrequencyLimiting", "GpuFrequencyLimiting"]


class CpuFrequencyLimiting(PowerLimitMethod):
    """The paper's ``CPU+FL`` baseline."""

    name = "CPU+FL"

    def __init__(
        self, apu: HardwareBackend, *, seed: int | np.random.SeedSequence = 0
    ) -> None:
        self.limiter = FrequencyLimiter(apu)
        self._rng = np.random.default_rng(seed)

    def decide(self, kernel, power_cap_w: float) -> MethodDecision:
        """All cores on, CPU P-state limited to the cap."""
        result = self.limiter.limit_cpu_all_cores(
            kernel, power_cap_w, rng=self._rng
        )
        return MethodDecision(
            config=result.final_config, online_runs=len(result.trace)
        )


class GpuFrequencyLimiting(PowerLimitMethod):
    """The paper's ``GPU+FL`` baseline."""

    name = "GPU+FL"

    def __init__(
        self, apu: HardwareBackend, *, seed: int | np.random.SeedSequence = 0
    ) -> None:
        self.limiter = FrequencyLimiter(apu)
        self._rng = np.random.default_rng(seed)

    def decide(self, kernel, power_cap_w: float) -> MethodDecision:
        """GPU maxed then limited; host CPU raised into headroom."""
        result = self.limiter.limit_gpu_with_headroom(
            kernel, power_cap_w, rng=self._rng
        )
        return MethodDecision(
            config=result.final_config, online_runs=len(result.trace)
        )
