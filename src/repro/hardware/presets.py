"""Named machine presets.

The paper's offline stage "is conducted only once to characterize a new
system" (Section III) — the model is machine-specific by design.  These
presets make that concrete: each returns a Trinity-class machine with a
different power calibration, standing in for distinct parts or platform
generations (the paper's introduction points at Kaveri, Trinity's
successor).  They share P-state tables and vary only the power
constants — exactly the kind of difference that invalidates a
transplanted model (see ``benchmarks/test_bench_cross_machine.py``).

Machines are selected by name through the backend registry
(:func:`repro.hardware.backend.create_backend`); these presets are
calibration variants of its ``trinity`` entry.
"""

from __future__ import annotations

from repro.hardware.apu import TrinityAPU
from repro.hardware.noise import NoiseModel
from repro.hardware.power import PowerModelConstants

__all__ = ["trinity", "leaky_apu"]


def trinity(*, seed: int = 0, noise: NoiseModel | None = None) -> TrinityAPU:
    """The paper's machine: the calibrated A10-5800K model (default)."""
    return TrinityAPU(seed=seed, noise=noise)


def leaky_apu(*, seed: int = 0, noise: NoiseModel | None = None) -> TrinityAPU:
    """A hot-binned part: high leakage (static power) with the same
    dynamic behaviour — voltage-dependent terms dominate, squeezing the
    usable range under tight caps."""
    constants = PowerModelConstants(
        cpu_static_base=6.0,
        cpu_static_v2=4.5,
        nb_static=4.0,
        gpu_idle_w=3.0,
        gpu_static_base=7.0,
        gpu_static_v2=9.0,
    )
    return TrinityAPU(seed=seed, noise=noise, power_constants=constants)
