"""Two-plane ground-truth power model for the simulated Trinity APU.

The Trinity APU exposes two measurable power domains (Section III-B of
the paper): the **CPU cores** plane and the **northbridge + GPU** plane.
The model gives the ground-truth average power draw of each plane while
a given kernel executes on a given configuration:

CPU plane::

    P_cpu = S0 + S1 * V(f_set)^2                      shared static/leakage
          + n_active * C_dyn * act * f * V(f_set)^2   per-core dynamic

where ``V(f_set)`` is the voltage implied by the *fastest* active compute
unit — all CUs share one voltage plane (Section IV-A), so even a
low-frequency thread pays the plane voltage.  When the kernel runs on the
GPU, one host thread runs driver code at a reduced activity factor.

Northbridge + GPU plane::

    P_nbgpu = NB0 + P_dram + P_gpu
    P_dram  = D * dram_intensity * traffic_rate       memory-controller power
    P_gpu   = idle                                    (CPU-device configs)
            | G0 + G1 * Vg^2 + G_dyn * act_g * fg * Vg^2 * busy(fg)

The ``busy(fg)`` factor — the share of GPU device time spent computing
rather than stalled on memory — makes memory-bound GPU kernels draw
nearly flat power across GPU P-states, reproducing the paper's
observation (Table I) that a 2x GPU frequency step can cost only ~1 W.

:func:`repro.hardware.apu.trinity_physics` evaluates this model, with
the timing model, over configuration arrays; this module holds its
calibration constants and the per-plane record every machine reports.

Constants were calibrated against the paper's published observations:
CPU floor ~12.5 W, 4-thread 2.4 GHz ~24 W, GPU-active floor ~24 W, and a
kernel-to-kernel spread reaching >50 W at the hot end (Section III-B
reports best-configuration powers from 19 W to 55 W).  Calibration is
enforced by ``tests/test_hardware_power.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["PowerModelConstants", "PowerBreakdown"]


@dataclass(frozen=True)
class PowerModelConstants:
    """Calibration constants of the power model (watts-scale factors).

    The defaults reproduce the paper's observed power ranges; tests pin
    them.  Constructing a custom instance lets experiments explore other
    machines (e.g. the power-model ablation benchmark).
    """

    cpu_static_base: float = 3.0
    cpu_static_v2: float = 2.0
    cpu_dyn_per_core: float = 1.5
    host_activity: float = 0.25
    nb_static: float = 2.5
    dram_max_w: float = 3.0
    gpu_idle_w: float = 1.5
    gpu_static_base: float = 4.0
    gpu_static_v2: float = 6.0
    gpu_dyn: float = 25.0
    gpu_traffic_scale: float = 1.5


@dataclass(frozen=True)
class PowerBreakdown:
    """Per-plane ground-truth power for one (kernel, configuration)."""

    cpu_plane_w: float
    nbgpu_plane_w: float

    @property
    def total_w(self) -> float:
        """Whole-chip power: both planes summed (watts)."""
        return self.cpu_plane_w + self.nbgpu_plane_w
