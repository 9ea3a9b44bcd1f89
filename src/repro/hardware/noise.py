"""Measurement-noise models.

Real measurements are imperfect: the paper integrates an on-chip power
estimate sampled at 1 kHz (Section IV-C, overhead < 10 %), and run-to-run
timing varies with OS noise.  The simulator separates *ground truth*
(deterministic, used by the oracle) from *measurements* (noisy, the only
thing the modeling pipeline may see).

Noise is multiplicative log-normal — strictly positive, unbiased at
first order, with configurable relative magnitude.  A machine's
measurement path draws it from an explicit
:class:`numpy.random.Generator`, one standard normal per reading of
each nonzero axis, so every experiment in this package is reproducible
from a seed.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["NoiseModel"]


@dataclass(frozen=True)
class NoiseModel:
    """Relative noise magnitudes applied to measured quantities.

    Attributes
    ----------
    time_rel:
        Relative standard deviation of execution-time measurements.
    power_rel:
        Relative standard deviation of integrated power estimates.
    counter_rel:
        Relative standard deviation of normalized counter metrics.
    """

    time_rel: float = 0.015
    power_rel: float = 0.02
    counter_rel: float = 0.03

    def __post_init__(self) -> None:
        for name in ("time_rel", "power_rel", "counter_rel"):
            v = getattr(self, name)
            if not 0.0 <= v < 0.5:
                raise ValueError(f"{name}={v} must be in [0, 0.5)")

    @property
    def lognormals(self) -> tuple:
        """Lognormal ``(mean, sigma)`` of each axis — time, power,
        counters — or ``None`` for a zero axis, which draws nothing."""
        return tuple(
            (-0.5 * rel * rel, rel) if rel > 0.0 else None
            for rel in (self.time_rel, self.power_rel, self.counter_rel)
        )

    @staticmethod
    def exact() -> "NoiseModel":
        """A noise-free model (measurements equal ground truth)."""
        return NoiseModel(time_rel=0.0, power_rel=0.0, counter_rel=0.0)
