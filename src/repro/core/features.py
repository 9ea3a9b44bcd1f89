"""Design matrices over the machine configuration space.

The paper's regression models take "the configuration variables
(frequency, number of cores, etc.) and their first-order interactions
(i.e. frequency * cores)" as regressors (Section III-B).  Per device
those are:

* CPU configurations — CPU frequency, thread count, and
  frequency x threads;
* GPU configurations — GPU frequency, host CPU frequency, and
  GPU frequency x host frequency (the host term captures launch/driver
  overhead, Table I).

All variables are normalized to their machine maxima so coefficients
are comparable across features and numerically well scaled.
"""

from __future__ import annotations

import numpy as np


__all__ = [
    "CPU_FEATURE_NAMES",
    "CPU_POWER_FEATURE_NAMES",
    "GPU_FEATURE_NAMES",
    "GPU_POWER_FEATURE_NAMES",
    "design_row",
    "power_design_row",
]

#: Regressor names for CPU-device performance models.
CPU_FEATURE_NAMES: tuple[str, ...] = ("cpu_freq", "threads", "cpu_freq*threads")

#: Regressor names for GPU-device performance models.
GPU_FEATURE_NAMES: tuple[str, ...] = ("gpu_freq", "host_freq", "gpu_freq*host_freq")

#: Regressor names for CPU-device power models (voltage-aware).
CPU_POWER_FEATURE_NAMES: tuple[str, ...] = (
    "cpu_freq",
    "threads",
    "cpu_freq*threads",
    "v_sq",
    "threads*freq*v_sq",
)

#: Regressor names for GPU-device power models (voltage-aware).
GPU_POWER_FEATURE_NAMES: tuple[str, ...] = (
    "gpu_freq",
    "host_freq",
    "gpu_freq*host_freq",
    "gpu_v_sq",
    "gpu_freq*gpu_v_sq",
    "host_freq*host_v_sq",
)


def design_row(cfg) -> np.ndarray:
    """The regressor vector of one configuration (device-specific), from
    its backend descriptor.  Every backend's rows follow the same
    width/normalization convention — that shared convention is what
    makes regression coefficients portable across backends
    (:mod:`repro.evaluation.transfer`)."""
    return cfg.descriptor.perf_row(cfg)


def power_design_row(cfg) -> np.ndarray:
    """The regressor vector for *power* models.

    Power is physically linear in voltage-squared terms (static leakage
    ~ :math:`V^2`, per-core dynamic ~ :math:`n f V^2`), and the
    machine's voltage/frequency curves are known offline machine
    characterization — so the power design includes them alongside the
    raw configuration variables.  This is still the paper's "linear
    model over configuration variables and first-order interactions";
    the variables are simply expressed in the units power is linear in.
    """
    return cfg.descriptor.power_row(cfg)
