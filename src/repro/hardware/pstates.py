"""P-state ladders and voltage curves of the simulated Trinity APU (data
only: :data:`~repro.hardware.backend.TRINITY_DESCRIPTOR` builds the
machine's blocks, and validates configurations, from it).

The paper's test machine is an AMD A10-5800K "Trinity" APU (Section IV-A):

* two dual-core PileDriver compute units sharing one voltage plane — the
  CU running at the highest frequency sets the voltage for the whole
  plane;
* six software-visible CPU P-states from 1.4 to 3.7 GHz (opportunistic
  boost states above 3.7 GHz are excluded, as in the paper);
* a GPU on a separate power plane with three effective P-states at
  311, 649, and 819 MHz.

Voltage curves are affine in frequency, a standard first-order
approximation of published voltage/frequency tables; the exact values
only need to produce power *orderings and spreads* similar to the
paper's measurements (Table I), which the calibration tests in
``tests/test_hardware_power.py`` pin down.
"""

from __future__ import annotations

__all__ = [
    "CPU_FREQS_GHZ",
    "CPU_MAX_FREQ_GHZ",
    "CPU_MIN_FREQ_GHZ",
    "GPU_FREQS_GHZ",
    "GPU_MAX_FREQ_GHZ",
    "GPU_MIN_FREQ_GHZ",
    "N_CORES",
]

#: Software-visible CPU P-state frequencies (GHz), ascending.
CPU_FREQS_GHZ: tuple[float, ...] = (1.4, 1.9, 2.4, 2.9, 3.3, 3.7)

#: Effective GPU P-state frequencies (GHz), ascending (311/649/819 MHz).
GPU_FREQS_GHZ: tuple[float, ...] = (0.311, 0.649, 0.819)

CPU_MIN_FREQ_GHZ: float = CPU_FREQS_GHZ[0]
CPU_MAX_FREQ_GHZ: float = CPU_FREQS_GHZ[-1]
GPU_MIN_FREQ_GHZ: float = GPU_FREQS_GHZ[0]
GPU_MAX_FREQ_GHZ: float = GPU_FREQS_GHZ[-1]

#: Four CPU cores (two dual-core PileDriver modules).
N_CORES: int = 4

# Affine voltage/frequency curves (volts as a function of GHz), read by
# the Trinity descriptor's blocks and the array physics.  The CPU
# compute units share a voltage plane, so the curve takes the *maximum*
# frequency across active CUs (Section IV-A); the GPU has its own plane.
_CPU_V0, _CPU_V1 = 0.70, 0.16
_GPU_V0, _GPU_V1 = 0.80, 0.45
