"""The simulated Trinity APU: the paper's machine as an analytical backend.

:class:`TrinityAPU` is one :class:`~repro.hardware.backend.AnalyticalBackend`
among several: a descriptor (:data:`~repro.hardware.backend.TRINITY_DESCRIPTOR`),
the two physics hooks over :mod:`~repro.hardware.kernelmodel` and
:mod:`~repro.hardware.power`, and the vectorized
:func:`~repro.hardware.batch.batch_true_rate_power`.  The base class
supplies both views of the machine:

* ``true_time_s`` / ``true_power`` — deterministic ground truth,
  available only to the **oracle** used as the evaluation baseline
  (Section V-B of the paper);
* ``run`` — a *measured* execution: ground truth perturbed by the
  machine's :class:`~repro.hardware.noise.NoiseModel`.  This is the
  only interface the modeling pipeline uses, mirroring how the paper's
  system sees silicon solely through PAPI counters and the on-chip
  power estimator.

Measurements report the two power domains separately (CPU cores;
northbridge + GPU), just like the Trinity system-management
microcontroller.  Opportunistic boost (Section VI) is Trinity physics:
the hooks apply it.
"""

from __future__ import annotations

import numpy as np

from repro.hardware import pstates
from repro.hardware.backend import (
    TRINITY_DESCRIPTOR,
    AnalyticalBackend,
    Measurement,
    characteristics_of,
    register_backend,
)
from repro.hardware.batch import batch_true_rate_power
from repro.hardware.config import Configuration, Device
from repro.hardware.kernelmodel import (
    KernelCharacteristics,
    amdahl_speedup,
    memory_bandwidth_factor,
    true_time_s,
)
from repro.hardware.noise import NoiseModel
from repro.hardware.power import PowerBreakdown, PowerModelConstants, power_w
from repro.hardware.thermal import BoostPolicy

# Measurement moved to repro.hardware.backend with the interface
# extraction; re-exported here for compatibility.
__all__ = ["Measurement", "TrinityAPU"]


class TrinityAPU(AnalyticalBackend):
    """Simulated AMD Trinity A10-5800K APU (registered as ``"trinity"``).

    Parameters
    ----------
    noise:
        Measurement-noise model; defaults to realistic small noise.  Use
        :meth:`NoiseModel.exact` for deterministic measurements.
    power_constants:
        Power-model calibration constants (defaults match the paper's
        published power ranges).
    seed:
        Seed for the machine's internal measurement-noise stream.
    boost:
        Optional opportunistic-overclocking capability (paper Section
        VI; off by default, matching the paper's evaluated machine).
        When enabled, CPU configurations at the top software P-state
        boost toward the policy's frequency whenever thermal headroom
        allows.
    """

    name = "trinity"
    #: Static machine description (ladders, samples, design rows).
    descriptor = TRINITY_DESCRIPTOR

    def __init__(
        self,
        *,
        noise: NoiseModel | None = None,
        power_constants: PowerModelConstants | None = None,
        seed: int = 0,
        boost: BoostPolicy | None = None,
    ) -> None:
        super().__init__(
            TRINITY_DESCRIPTOR,
            power_constants if power_constants is not None else PowerModelConstants(),
            noise=noise,
            seed=seed,
        )
        self.boost = boost

    # -- physics hooks, with opportunistic boost (Section VI extension) -------

    def _boost_applies(self, cfg: Configuration) -> bool:
        return (
            self.boost is not None
            and cfg.device is Device.CPU
            and abs(cfg.cpu_freq_ghz - pstates.CPU_MAX_FREQ_GHZ) < 1e-9
        )

    def _boost_outcome(self, chars: KernelCharacteristics, cfg: Configuration):
        base_power = power_w(chars, cfg, self.power_constants).total_w
        # Frequency-sensitive share of runtime at the top P-state.
        compute = (1.0 - chars.mem_fraction) / amdahl_speedup(
            cfg.n_threads, chars.parallel_fraction
        )
        memory = chars.mem_fraction / memory_bandwidth_factor(cfg.n_threads)
        compute_fraction = compute / (compute + memory) if compute + memory else 0.0
        return self.boost.evaluate(base_power, cfg.n_threads, compute_fraction)

    def _model_time_s(self, chars: KernelCharacteristics, cfg: Configuration) -> float:
        t = true_time_s(chars, cfg)
        if self._boost_applies(cfg):
            t *= self._boost_outcome(chars, cfg).time_scale
        return t

    def _model_power(
        self, chars: KernelCharacteristics, cfg: Configuration
    ) -> PowerBreakdown:
        pb = power_w(chars, cfg, self.power_constants)
        if self._boost_applies(cfg):
            delta = self._boost_outcome(chars, cfg).power_delta_w
            pb = PowerBreakdown(
                cpu_plane_w=pb.cpu_plane_w + delta,
                nbgpu_plane_w=pb.nbgpu_plane_w,
            )
        return pb

    # -- batch evaluation ------------------------------------------------------

    def batch_rate_power(
        self,
        kernel: object,
        is_gpu: np.ndarray,
        cpu_freq_ghz: np.ndarray,
        n_threads: np.ndarray,
        gpu_freq_ghz: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized ground truth via :mod:`repro.hardware.batch`
        (bit-identical to the scalar calls; boost is not modeled on the
        batch path)."""
        return batch_true_rate_power(
            characteristics_of(kernel),
            is_gpu,
            cpu_freq_ghz,
            n_threads,
            gpu_freq_ghz,
            self.power_constants,
        )


register_backend(
    "trinity",
    lambda *, seed=0, noise=None: TrinityAPU(seed=seed, noise=noise),
    TRINITY_DESCRIPTOR,
)
