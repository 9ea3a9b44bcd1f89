"""The simulated Trinity APU: the paper's machine as an analytical backend.

:class:`TrinityAPU` is one :class:`~repro.hardware.backend.AnalyticalBackend`
among several: a descriptor (:data:`~repro.hardware.backend.TRINITY_DESCRIPTOR`)
and one physics hook over :func:`trinity_physics`, the timing model of
:mod:`~repro.hardware.kernelmodel` and the power model of
:mod:`~repro.hardware.power` evaluated over configuration arrays.  The
base class supplies both views of the machine:

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
the hook applies it.
"""

from __future__ import annotations

import numpy as np

from repro.hardware import pstates
from repro.hardware.backend import (
    TRINITY_DESCRIPTOR,
    AnalyticalBackend,
    Measurement,
    register_backend,
)
from repro.hardware.kernelmodel import (
    KernelCharacteristics,
    amdahl_speedup,
    memory_bandwidth_factor,
)
from repro.hardware.noise import NoiseModel
from repro.hardware.power import PowerModelConstants
from repro.hardware.thermal import BoostPolicy

# Measurement moved to repro.hardware.backend with the interface
# extraction; re-exported here for compatibility.
__all__ = ["Measurement", "TrinityAPU", "trinity_physics"]


def trinity_physics(
    k: KernelCharacteristics,
    c: PowerModelConstants,
    is_gpu: np.ndarray,
    cpu_freq_ghz: np.ndarray,
    n_threads: np.ndarray,
    gpu_freq_ghz: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Trinity's ground truth without boost: ``(time_s, CPU plane W,
    NB+GPU plane W)`` per configuration row.

    Rows mirror the configuration fields (``is_gpu`` is the device
    mask).  Both device branches are computed elementwise and joined on
    the mask.  The voltage curves are read as their affine coefficients,
    since rows only ever hold ladder frequencies.
    """
    # Timing: Amdahl x roofline on the CPU, offload + launch on the GPU.
    s = cpu_freq_ghz / pstates.CPU_MAX_FREQ_GHZ
    compute = (1.0 - k.mem_fraction) / (
        amdahl_speedup(n_threads, k.parallel_fraction) * s
    )
    memory = k.mem_fraction / memory_bandwidth_factor(n_threads)
    t_cpu = k.work_s * (compute + memory)
    fg = gpu_freq_ghz / pstates.GPU_MAX_FREQ_GHZ
    device = (k.work_s / k.gpu_affinity) * (
        (1.0 - k.gpu_mem_fraction) / fg + k.gpu_mem_fraction
    )
    launch = k.launch_overhead_s * (pstates.CPU_MAX_FREQ_GHZ / cpu_freq_ghz)
    t = np.where(is_gpu, device + launch, t_cpu)

    # CPU plane: one shared voltage plane; a GPU run keeps one host
    # thread busy at a reduced activity.  Vector-dense kernels switch
    # more silicon per cycle.
    v = pstates._CPU_V0 + pstates._CPU_V1 * cpu_freq_ghz
    static = c.cpu_static_base + c.cpu_static_v2 * v * v
    act = np.where(
        is_gpu, c.host_activity, k.activity * (1.0 + 0.25 * k.vector_fraction)
    )
    n_active = np.where(is_gpu, 1.0, n_threads)
    cpu_plane = static + n_active * c.cpu_dyn_per_core * act * cpu_freq_ghz * v * v

    # NB+GPU plane: DRAM traffic grows with delivered CPU bandwidth; the
    # GPU's wide SIMD units drive the shared controller harder.
    traffic = np.where(
        is_gpu,
        min(c.gpu_traffic_scale, 2.0),
        memory_bandwidth_factor(n_threads)
        / memory_bandwidth_factor(pstates.N_CORES),
    )
    dram = c.dram_max_w * k.dram_intensity * traffic
    vg = pstates._GPU_V0 + pstates._GPU_V1 * gpu_freq_ghz
    gpu_static = c.gpu_static_base + c.gpu_static_v2 * vg * vg
    busy_compute = (1.0 - k.gpu_mem_fraction) / fg
    busy = busy_compute / (busy_compute + k.gpu_mem_fraction)
    gpu_dynamic = c.gpu_dyn * k.gpu_activity * gpu_freq_ghz * vg * vg * busy
    gpu = np.where(is_gpu, gpu_static + gpu_dynamic, c.gpu_idle_w)
    return t, cpu_plane, c.nb_static + dram + gpu


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

    # -- physics, with opportunistic boost (Section VI extension) -----------

    def _physics(self, chars, is_gpu, cpu_freq_ghz, n_threads, gpu_freq_ghz):
        t, cpu_w, nbgpu_w = trinity_physics(
            chars,
            self.power_constants,
            is_gpu,
            cpu_freq_ghz,
            n_threads,
            gpu_freq_ghz,
        )
        if self.boost is None:
            return t, cpu_w, nbgpu_w
        top = ~is_gpu & (np.abs(cpu_freq_ghz - pstates.CPU_MAX_FREQ_GHZ) < 1e-9)
        for i in np.flatnonzero(top).tolist():
            n = int(n_threads[i])
            # Frequency-sensitive share of runtime at the top P-state.
            compute = (1.0 - chars.mem_fraction) / amdahl_speedup(
                n, chars.parallel_fraction
            )
            memory = chars.mem_fraction / memory_bandwidth_factor(n)
            outcome = self.boost.evaluate(
                float(cpu_w[i] + nbgpu_w[i]),
                n,
                compute / (compute + memory) if compute + memory else 0.0,
            )
            t[i] *= outcome.time_scale
            cpu_w[i] += outcome.power_delta_w
        return t, cpu_w, nbgpu_w


register_backend(
    "trinity",
    lambda *, seed=0, noise=None: TrinityAPU(seed=seed, noise=noise),
    TRINITY_DESCRIPTOR,
)
