"""Simulated AMD Trinity APU — the hardware substrate.

The paper's experiments ran on a physical AMD A10-5800K "Trinity" APU
with an on-chip power-estimating microcontroller.  This subpackage
replaces that silicon with an analytical simulator (see DESIGN.md §2 and
§4 for the substitution argument):

* :mod:`~repro.hardware.pstates` — CPU/GPU P-state tables and voltage
  curves;
* :mod:`~repro.hardware.config` — :class:`Configuration`, the one
  configuration record of every machine (device × frequencies ×
  units);
* :mod:`~repro.hardware.kernelmodel` — latent kernel characteristics and
  the ground-truth timing model (Amdahl × roofline on the CPU, offload +
  launch overhead on the GPU);
* :mod:`~repro.hardware.power` — two-plane power model (CPU cores;
  northbridge + GPU) with a shared CPU voltage plane: its constants and
  per-plane record;
* :mod:`~repro.hardware.counters` — performance-counter synthesis;
* :mod:`~repro.hardware.noise` — measurement-noise models;
* :mod:`~repro.hardware.backend` — the machine interface and its one
  implementation, ``AnalyticalBackend``, separating oracle-only ground
  truth from noisy measurements, and the descriptors that build and
  enumerate each machine's configurations (Trinity's 42 points);
* :mod:`~repro.hardware.apu` — :class:`TrinityAPU`, the paper's machine
  as one such backend, and ``trinity_physics``, the one array
  evaluation of its timing and power models;
* :mod:`~repro.hardware.rapl` — RAPL-style frequency limiting on any
  backend.
"""

from repro.hardware.apu import Measurement, TrinityAPU
from repro.hardware.config import Configuration, Device
from repro.hardware.counters import COUNTER_NAMES, synthesize_counters
from repro.hardware.kernelmodel import KernelCharacteristics
from repro.hardware.noise import NoiseModel
from repro.hardware.power import PowerBreakdown, PowerModelConstants
from repro.hardware.pstates import (
    CPU_FREQS_GHZ,
    CPU_MAX_FREQ_GHZ,
    CPU_MIN_FREQ_GHZ,
    GPU_FREQS_GHZ,
    GPU_MAX_FREQ_GHZ,
    GPU_MIN_FREQ_GHZ,
    N_CORES,
)
from repro.hardware.rapl import FrequencyLimiter, LimiterResult
from repro.hardware.thermal import BoostOutcome, BoostPolicy, ThermalModel

__all__ = [
    "BoostOutcome",
    "BoostPolicy",
    "COUNTER_NAMES",
    "ThermalModel",
    "CPU_FREQS_GHZ",
    "CPU_MAX_FREQ_GHZ",
    "CPU_MIN_FREQ_GHZ",
    "Configuration",
    "Device",
    "FrequencyLimiter",
    "GPU_FREQS_GHZ",
    "GPU_MAX_FREQ_GHZ",
    "GPU_MIN_FREQ_GHZ",
    "KernelCharacteristics",
    "LimiterResult",
    "Measurement",
    "N_CORES",
    "NoiseModel",
    "PowerBreakdown",
    "PowerModelConstants",
    "TrinityAPU",
    "synthesize_counters",
]
