"""Kernel and benchmark identity types.

A :class:`Kernel` is one computational kernel of one benchmark at one
input size — the unit the paper profiles, clusters, and schedules
(Section III).  The paper evaluates 36 distinct kernels; running
benchmarks with multiple inputs yields 65 benchmark/input *combinations*
(Section IV-B), and our suite reproduces both counts exactly
(:mod:`repro.workloads.suite`).

The latent :class:`~repro.hardware.kernelmodel.KernelCharacteristics`
attached to each kernel are ground truth for the simulator only; the
modeling pipeline never reads them.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hardware.kernelmodel import KernelCharacteristics

__all__ = ["Kernel"]


@dataclass(frozen=True)
class Kernel:
    """One (benchmark, input size, kernel) combination.

    Attributes
    ----------
    name:
        Kernel name within its benchmark (e.g. ``CalcFBHourglassForce``).
    benchmark:
        Benchmark the kernel belongs to (``LULESH``, ``CoMD``, ``SMC``,
        ``LU``).
    input_size:
        Input-size label (``Small``, ``Large``, ...).  The paper treats
        the same kernel under different inputs as distinct modeling
        targets (Section VI discusses automating this distinction).
    characteristics:
        Latent ground-truth properties driving the simulator.
    time_weight:
        This kernel's share of its benchmark/input combination's total
        runtime; method comparisons are weighted by it (Section V-D).
        Weights within one group sum to 1.
    """

    name: str
    benchmark: str
    input_size: str
    characteristics: KernelCharacteristics
    time_weight: float = 1.0

    def __post_init__(self) -> None:
        if not self.name or not self.benchmark or not self.input_size:
            raise ValueError("name, benchmark, and input_size must be non-empty")
        if not 0.0 < self.time_weight <= 1.0:
            raise ValueError(f"time_weight={self.time_weight} outside (0, 1]")

    @property
    def uid(self) -> str:
        """Globally unique id, e.g. ``LULESH/Small/CalcFBHourglassForce``."""
        return f"{self.benchmark}/{self.input_size}/{self.name}"

    @property
    def group(self) -> str:
        """Reporting group — the benchmark/input combination label used by
        the paper's per-benchmark figures (e.g. ``LULESH Small``)."""
        return f"{self.benchmark} {self.input_size}"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.uid
