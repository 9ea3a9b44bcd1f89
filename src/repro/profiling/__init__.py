"""Profiling substrate — instrumented measurement of kernel executions.

Reproduces the paper's integrated profiling library (Section III-D):
1 kHz on-chip power sampling with trapezoidal energy integration
(:mod:`~repro.profiling.sampler`), per-kernel profile records and a
runtime-accessible measurement history (:mod:`~repro.profiling.records`),
the instrumentation layer itself (:mod:`~repro.profiling.library`), the
profile-once shared characterization store
(:mod:`~repro.profiling.store`).
"""

from repro.profiling.library import COUNTER_READ_OVERHEAD_S, ProfilingLibrary
from repro.profiling.records import KernelProfile, ProfileDatabase
from repro.profiling.sampler import PowerSampler, SampledPower
from repro.profiling.store import CharacterizationStore, suite_fingerprint

__all__ = [
    "COUNTER_READ_OVERHEAD_S",
    "CharacterizationStore",
    "KernelProfile",
    "PowerSampler",
    "ProfileDatabase",
    "ProfilingLibrary",
    "SampledPower",
    "suite_fingerprint",
]
