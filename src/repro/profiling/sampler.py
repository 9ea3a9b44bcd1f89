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

:meth:`PowerSampler.sample` integrates a batch of runs.  Each run makes
one ``standard_normal`` call on its own generator (per plane: initial
fluctuation, ``n - 1`` innovations, ``n`` sample noises; then any draws
the caller asks for).  Runs are bucketed by ``n`` and zero-padded, so a
bucket is one AR(1) ``lfilter`` call and one set of elementwise and
trapezoid-term operations.  The filter is causal, so padding never
reaches a run's samples, and each plane of each run is summed by its own
``np.add.reduce`` over exactly its terms, so estimates are bit-identical
to sampling run by run and plane by plane.

``scipy.signal`` is imported on the first call to :meth:`PowerSampler.sample`,
not with this module: importing it pulls in ``scipy.stats`` and costs
about 1.5 s, and most processes that import :mod:`repro` (searches, fleet
allocation, served decisions, CLI commands over a warm store) never
sample a run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["PowerSampler", "SampledPower", "SampledRuns"]

#: A bucket's longest run relative to its shortest, and its element budget.
_BUCKET_SPREAD, _BUCKET_ELEMENTS = 1.125, 1 << 18


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


@dataclass(frozen=True)
class SampledRuns:
    """:class:`SampledPower` of a batch as arrays (row = run, column =
    plane), plus each run's draws that followed the sampler's."""

    mean_power_w: np.ndarray
    energy_j: np.ndarray
    n_samples: np.ndarray
    overhead_s: np.ndarray
    extra: tuple[np.ndarray, ...]


def _check_positive(name: str, values: np.ndarray) -> None:
    bad = values[~(np.isfinite(values) & (values > 0))]
    if bad.size:
        raise ValueError(f"{name} must be finite and positive, got {float(bad[0])!r}")


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

    def sample(self, true_mean_w, duration_s, rng, *, extra_draws=0):
        """Sample kernel executions of ``duration_s`` seconds whose
        ground-truth average power is ``true_mean_w``.

        One run: ``true_mean_w`` is one plane's mean or a sequence of
        plane means, ``rng`` the run's generator; the result is the
        estimate, or a tuple with one per plane.  A batch:
        ``duration_s`` is a 1-D array, ``true_mean_w`` a ``(runs,
        planes)`` array and ``rng`` one generator per run; the result's
        ``extra`` holds ``extra_draws`` (a count, or one per run) more
        standard normals from each run's stream.  At least two samples
        (start and finish of the kernel, as the paper records) are
        always taken.
        """
        # Not at module level: see the module docstring.
        from scipy.signal import lfilter

        one_run = np.ndim(duration_s) == 0
        if one_run:
            scalar = np.ndim(true_mean_w) == 0
            true_mean_w = [[true_mean_w] if scalar else list(true_mean_w)]
            duration_s, rng = [duration_s], [rng]
        means = np.array(true_mean_w, dtype=np.float64)
        durations = np.array(duration_s, dtype=np.float64)
        if means.ndim != 2 or not means.size or not len(means) == len(durations):
            raise ValueError("true_mean_w must name one or more planes per run")
        if len(rng) != len(durations):
            raise ValueError("rng must hold one generator per run")
        runs, planes = means.shape
        _check_positive("true_mean_w", means)
        _check_positive("duration_s", durations)

        n = np.maximum(2, np.rint(durations * self.rate_hz).astype(np.int64) + 1)
        n_list = n.tolist()
        widths = (planes * 2 * n + np.asarray(extra_draws, dtype=np.int64)).tolist()
        ar = self.ar_coeff
        innov_std = self.fluctuation_rel * math.sqrt(1.0 - ar**2)
        energy = np.empty((runs, planes))
        extra: list = [None] * runs
        order = np.argsort(n, kind="stable")
        sorted_n = n[order]
        start = 0
        while start < runs:
            # A bucket: the next runs by length, up to _BUCKET_SPREAD
            # times the shortest and within the element budget.
            longest = int(sorted_n[start] * _BUCKET_SPREAD)
            stop = min(
                int(np.searchsorted(sorted_n, longest, side="right")),
                start + max(1, _BUCKET_ELEMENTS // (planes * 2 * longest)),
            )
            rows = order[start:stop].tolist()
            length, start = int(sorted_n[stop - 1]), stop

            # Row r, plane p: [initial fluctuation, n - 1 innovations]
            # and [n per-sample noises], each zero-padded to ``length``.
            # Scaling a standard normal reproduces
            # Generator.normal(scale=...) up to the sign of zero, which
            # never reaches a result: every value enters as 1 + value.
            z = np.zeros((len(rows), planes, 2, length))
            for r, i in enumerate(rows):
                k = planes * 2 * n_list[i]
                draws = rng[i].standard_normal(widths[i])
                z[r, ..., : n_list[i]] = draws[:k].reshape(planes, 2, n_list[i])
                extra[i] = draws[k:].copy()  # a view would keep all draws alive

            # AR(1) fluctuation around the mean, variance-normalized so
            # the marginal std is fluctuation_rel regardless of ar_coeff:
            # fluct[i] = ar * fluct[i-1] + innovations[i-1] as an IIR
            # filter, seeded so fluct[1] = innovations[0] + ar * fluct[0].
            trace = np.empty((len(rows), planes, length))
            trace[..., 0] = self.fluctuation_rel * z[:, :, 0, 0]
            trace[..., 1:] = lfilter(
                [1.0], [1.0, -ar], innov_std * z[:, :, 0, 1:], zi=ar * trace[..., :1]
            )[0]
            trace += 1.0
            trace *= means[rows][:, :, None]
            noise = self.sample_noise_rel * z[:, :, 1]
            noise += 1.0
            trace *= noise
            np.maximum(trace, 0.0, out=trace)

            # The grid np.linspace(0, duration_s, n) builds, and the
            # terms np.trapezoid sums, of every run in the bucket.
            times = np.arange(length, dtype=np.float64) * (
                durations[rows] / (n[rows] - 1)
            )[:, None]
            times[np.arange(len(rows)), n[rows] - 1] = durations[rows]
            terms = trace[..., 1:] + trace[..., :-1]
            terms *= (times[:, 1:] - times[:, :-1])[:, None, :]
            terms /= 2.0
            for r, i in enumerate(rows):
                for p in range(planes):
                    energy[i, p] = np.add.reduce(terms[r, p, : n_list[i] - 1])

        mean, overhead = energy / durations[:, None], n * self.overhead_per_sample_s
        if not one_run:
            return SampledRuns(mean, energy, n, overhead, tuple(extra))
        results = tuple(
            SampledPower(m, e, n_list[0], float(overhead[0]))
            for m, e in zip(mean[0].tolist(), energy[0].tolist())
        )
        return results[0] if scalar else results
