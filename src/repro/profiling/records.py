"""Profile records and the measurement history database.

The paper's profiling library records "samples of performance counters
and power measurements to resident data structures, which are written to
disk after the application completes", and exposes "a history of
performance and power measurements ... to the application or runtime,
which facilitates online selections of device and configuration"
(Section III-D).  :class:`KernelProfile` is one such record;
:class:`ProfileDatabase` is the resident history.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.hardware.apu import Measurement
from repro.hardware.config import Configuration

__all__ = ["KernelProfile", "ProfileDatabase"]


@dataclass(frozen=True)
class KernelProfile:
    """One profiled kernel execution.

    Attributes
    ----------
    kernel_uid:
        Unique id of the profiled kernel
        (:attr:`repro.workloads.Kernel.uid`).
    measurement:
        The measured execution (time, per-plane power, counters).
    iteration:
        Sequence number of this invocation of the kernel within the
        application run (the paper's online stage acts on iterations 1
        and 2 — the sample-configuration runs).
    sampling_overhead_s:
        Extra wall time attributable to the 1 kHz power sampling.
    """

    kernel_uid: str
    measurement: Measurement
    iteration: int = 0
    sampling_overhead_s: float = 0.0

    def __post_init__(self) -> None:
        if not self.kernel_uid:
            raise ValueError("kernel_uid must be non-empty")
        if self.iteration < 0:
            raise ValueError("iteration must be non-negative")
        if self.sampling_overhead_s < 0:
            raise ValueError("sampling_overhead_s must be non-negative")

    @property
    def config(self) -> Configuration:
        """The configuration the profiled execution ran on."""
        return self.measurement.config


class ProfileDatabase:
    """In-memory history of kernel profiles, queryable by kernel and
    configuration.

    Insertion order is preserved; iteration numbers are assigned
    automatically per kernel (0, 1, 2, ...), matching how a runtime
    counts invocations.
    """

    def __init__(self) -> None:
        self._profiles: list[KernelProfile] = []
        self._iteration_count: dict[str, int] = {}

    def __len__(self) -> int:
        return len(self._profiles)

    def __iter__(self) -> Iterator[KernelProfile]:
        return iter(self._profiles)

    def record(
        self,
        kernel_uid: str,
        measurement: Measurement,
        *,
        sampling_overhead_s: float = 0.0,
    ) -> KernelProfile:
        """Append a profile, assigning the kernel's next iteration number."""
        it = self._iteration_count.get(kernel_uid, 0)
        profile = KernelProfile(
            kernel_uid=kernel_uid,
            measurement=measurement,
            iteration=it,
            sampling_overhead_s=sampling_overhead_s,
        )
        self._profiles.append(profile)
        self._iteration_count[kernel_uid] = it + 1
        return profile

    def for_kernel(self, kernel_uid: str) -> list[KernelProfile]:
        """All profiles of one kernel, in recording order."""
        return [p for p in self._profiles if p.kernel_uid == kernel_uid]

    def iterations(self, kernel_uid: str) -> int:
        """How many times a kernel has been profiled."""
        return self._iteration_count.get(kernel_uid, 0)
