"""Simulated 1 kHz on-chip power sampling and energy integration.

The paper's power measurement method "involves sampling and accumulating
an on-chip power estimate at 1 kHz, which incurs overhead of less than
10% in all cases" (Section IV-C); per-kernel average power is obtained by
integrating the estimates over time (Section III-B).

:class:`PowerSampler` reproduces that pipeline: the ground-truth mean
power is turned into a fluctuating trace (first-order autoregressive
around the mean, modelling phase behaviour within a kernel), sampled at
the configured rate, perturbed per-sample, and integrated with the
trapezoidal rule.  The result is an *estimate* of average power whose
error shrinks with kernel duration — short kernels genuinely are harder
to measure, on silicon and here.

One execution's power planes share its duration and therefore its
sample grid, so :meth:`PowerSampler.sample` takes every plane of a run
at once: one block of standard-normal draws, one AR(1) filter pass over
the plane rows, and one time grid.  The draws are consumed in the order
of sampling the planes one after another (per plane: the initial
fluctuation, the innovations, the per-sample noise), so the fused pass
is bit-identical to per-plane sampling from the same generator.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
from scipy.signal import lfilter

__all__ = ["PowerSampler", "SampledPower"]


@dataclass(frozen=True)
class SampledPower:
    """Result of integrating one sampled power trace.

    Attributes
    ----------
    mean_power_w:
        Trapezoidal average of the sampled trace (the estimate).
    energy_j:
        Integrated energy over the execution.
    n_samples:
        Number of samples taken (>= 2; short kernels still get the
        endpoints).
    overhead_s:
        Time added to the kernel's execution by the sampling activity.
    """

    mean_power_w: float
    energy_j: float
    n_samples: int
    overhead_s: float


def _check_positive(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and positive, got {value!r}")


@dataclass(frozen=True)
class PowerSampler:
    """A periodic power sampler with per-sample noise and overhead.

    Parameters
    ----------
    rate_hz:
        Sampling rate (paper: 1 kHz).
    sample_noise_rel:
        Relative standard deviation of each individual sample.
    fluctuation_rel:
        Relative magnitude of the slow power fluctuation around the mean
        (AR(1) with coefficient ``ar_coeff``).
    ar_coeff:
        Autocorrelation of successive fluctuation values, in ``[0, 1)``.
    overhead_per_sample_s:
        Execution-time cost of taking one sample (keeps total overhead
        below the paper's 10 % bound at 1 kHz for microsecond costs).
    """

    rate_hz: float = 1000.0
    sample_noise_rel: float = 0.01
    fluctuation_rel: float = 0.03
    ar_coeff: float = 0.9
    overhead_per_sample_s: float = 5e-6

    def __post_init__(self) -> None:
        if self.rate_hz <= 0:
            raise ValueError("rate_hz must be positive")
        if not 0 <= self.ar_coeff < 1:
            raise ValueError("ar_coeff must be in [0, 1)")
        for name in ("sample_noise_rel", "fluctuation_rel"):
            if not 0 <= getattr(self, name) < 0.5:
                raise ValueError(f"{name} must be in [0, 0.5)")
        if self.overhead_per_sample_s < 0:
            raise ValueError("overhead_per_sample_s must be non-negative")

    def sample(
        self,
        true_mean_w: float | Sequence[float],
        duration_s: float,
        rng: np.random.Generator,
    ) -> SampledPower | tuple[SampledPower, ...]:
        """Sample a kernel execution of ``duration_s`` seconds whose
        ground-truth average power is ``true_mean_w``.

        ``true_mean_w`` is one plane's mean power, or a sequence of
        plane means sampled over the same execution; the result is the
        integrated estimate, or a tuple with one estimate per plane.
        At least two samples (start and finish of the kernel, as the
        paper records) are always taken.
        """
        scalar = np.ndim(true_mean_w) == 0
        means = [true_mean_w] if scalar else list(true_mean_w)
        if not means:
            raise ValueError("true_mean_w must name at least one plane")
        for mean in means:
            _check_positive("true_mean_w", mean)
        _check_positive("duration_s", duration_s)

        n = max(2, int(round(duration_s * self.rate_hz)) + 1)
        planes = len(means)
        # Row p: plane p's [initial fluctuation, n - 1 innovations,
        # n per-sample noises].  Scaling a standard normal reproduces
        # Generator.normal(scale=...) up to the sign of zero, which
        # never reaches a result: every value enters as 1 + value.
        z = rng.standard_normal(2 * n * planes).reshape(planes, 2 * n)
        # AR(1) fluctuation around the mean, variance-normalized so the
        # marginal std is fluctuation_rel regardless of ar_coeff:
        # fluct[i] = ar * fluct[i-1] + innovations[i-1] as an IIR filter,
        # seeded so fluct[1] = innovations[0] + ar * fluct[0].
        ar = self.ar_coeff
        innov_std = self.fluctuation_rel * math.sqrt(1.0 - ar**2)
        trace = np.empty((planes, n))
        trace[:, 0] = self.fluctuation_rel * z[:, 0]
        trace[:, 1:] = lfilter(
            [1.0], [1.0, -ar], innov_std * z[:, 1:n], zi=ar * trace[:, :1]
        )[0]
        trace += 1.0
        trace *= np.array(means, dtype=np.float64)[:, None]
        noise = self.sample_noise_rel * z[:, n:]
        noise += 1.0
        trace *= noise
        np.maximum(trace, 0.0, out=trace)

        # The grid np.linspace(0, duration_s, n) builds, and the terms
        # np.trapezoid sums; each row is reduced on its own so the
        # pairwise summation matches integrating that plane alone.
        times = np.arange(n, dtype=np.float64) * (duration_s / (n - 1))
        times[-1] = duration_s
        terms = trace[:, 1:] + trace[:, :-1]
        terms *= times[1:] - times[:-1]
        terms /= 2.0
        overhead_s = n * self.overhead_per_sample_s
        results = []
        for row in terms:
            energy = float(np.add.reduce(row))
            results.append(
                SampledPower(
                    mean_power_w=energy / duration_s,
                    energy_j=energy,
                    n_samples=n,
                    overhead_s=overhead_s,
                )
            )
        return results[0] if scalar else tuple(results)
