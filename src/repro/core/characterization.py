"""Per-kernel characterization data assembled from profiles.

The offline stage characterizes each training kernel by profiling it on
every configuration (paper Section III-B).  A
:class:`KernelCharacterization` bundles those measurements with the
derived views the pipeline needs: the kernel's Pareto frontier and its
sample-configuration anchors (Table II).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.core.frontier import ParetoFrontier
from repro.hardware.apu import Measurement
from repro.hardware.config import Configuration
from repro.profiling.library import ProfilingLibrary

__all__ = ["KernelCharacterization", "characterize_kernels"]


@dataclass(frozen=True)
class KernelCharacterization:
    """All measured data the offline stage holds for one kernel.

    Attributes
    ----------
    kernel_uid:
        The kernel's unique id.
    measurements:
        One measurement per configuration (the exhaustive offline
        profiling pass).
    """

    kernel_uid: str
    measurements: Mapping[Configuration, Measurement]

    def __post_init__(self) -> None:
        if not self.measurements:
            raise ValueError("characterization needs at least one measurement")
        # Table II anchors of the machine the measurements came from.
        samples = next(iter(self.measurements)).descriptor.sample_configs()
        object.__setattr__(self, "_samples", samples)
        for sample in samples:
            if sample not in self.measurements:
                raise ValueError(
                    f"characterization of {self.kernel_uid} is missing the "
                    f"sample configuration {sample.label()}"
                )

    @property
    def cpu_sample(self) -> Measurement:
        """Measurement at the primary-device sample configuration
        (Table II)."""
        return self.measurements[self._samples[0]]

    @property
    def gpu_sample(self) -> Measurement:
        """Measurement at the secondary-device sample configuration
        (Table II)."""
        return self.measurements[self._samples[1]]

    def frontier(self) -> ParetoFrontier:
        """The kernel's measured power-performance Pareto frontier."""
        return ParetoFrontier.from_measurements(list(self.measurements.values()))


def characterize_kernels(
    library: ProfilingLibrary, kernels: Sequence
) -> list[KernelCharacterization]:
    """Profile kernels on every configuration, as one batch, and
    assemble their characterizations (the offline data-collection
    step)."""
    return [
        KernelCharacterization(
            kernel_uid=profiles[0].kernel_uid,
            measurements={p.config: p.measurement for p in profiles},
        )
        for profiles in library.profile_sweeps(kernels)
    ]
