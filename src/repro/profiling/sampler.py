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
the caller asks for).  Runs are bucketed by ``n``, longest first, and
zero-padded.  In a group of buckets every plane's AR(1) fluctuation
steps through time together: slices of ``_STEP_ROWS`` steps are copied
into a time-major buffer, where one step of every running sequence is
one multiply and one add, each rounded as ``scipy.signal.lfilter``
rounds it; once fewer than ``_VECTOR_MIN`` are running, they finish in
Python floats.  Each bucket is then one set of elementwise and
trapezoid-term operations, and each run's planes are summed by one
``np.add.reduce`` over exactly their terms, so estimates are
bit-identical to sampling run by run and plane by plane
(``tests/profile_reference.py``).
"""

from __future__ import annotations

import itertools
import math
import struct
from array import array
from dataclasses import dataclass

import numpy as np

__all__ = ["PowerSampler", "SampledPower", "SampledRuns"]

#: A bucket's longest run relative to its shortest, and its element budget.
_BUCKET_SPREAD, _BUCKET_ELEMENTS = 1.125, 1 << 18
#: Fluctuation samples of the buckets whose recursions step together.
_GROUP_SAMPLES = 1 << 21
#: Time steps copied into the time-major buffer at a time.
_STEP_ROWS = 128
#: Fewest running sequences worth a vector step; fewer finish in floats.
_VECTOR_MIN = 16


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
        order = np.argsort(-n, kind="stable").tolist()
        lengths = [n_list[i] for i in order]
        groups = _groups(lengths, planes)
        # One store for every group's draws: a later group's padding holds
        # an earlier group's finite values, which reach no result.
        samples = max(sum((b - a) * lengths[a] for a, b in g) for g in groups)
        store = np.zeros(2 * planes * samples)
        for group in groups:
            buckets, offset = [], 0
            for start, stop in group:
                rows, length = order[start:stop], lengths[start]
                size = len(rows) * planes * 2 * length
                z = store[offset : offset + size].reshape(len(rows), planes, 2, length)
                offset += size
                # Row r, plane p: [initial fluctuation, n - 1 innovations]
                # and [n per-sample noises], each padded to ``length``.
                for r, i in enumerate(rows):
                    k = planes * 2 * n_list[i]
                    draws = rng[i].standard_normal(widths[i])
                    z[r, ..., : n_list[i]] = draws[:k].reshape(planes, 2, n_list[i])
                    extra[i] = draws[k:].copy()  # a view would keep all draws alive
                # 1 + the sample noise, while the draws are in cache.
                # Scaling a standard normal reproduces
                # Generator.normal(scale=...) up to the sign of zero, which
                # never reaches a result: every value enters as 1 + value.
                noise = z[:, :, 1]
                noise *= self.sample_noise_rel
                noise += 1.0
                buckets.append((rows, z))

            # 1 + the AR(1) fluctuation around the mean, variance-normalized
            # so the marginal std is fluctuation_rel regardless of ar_coeff.
            _one_plus_ar1(
                [z[:, :, 0].reshape(-1, z.shape[-1]) for _, z in buckets],
                [n_list[i] for rows, _ in buckets for i in rows for _ in range(planes)],
                ar,
                self.fluctuation_rel,
                innov_std,
            )

            for rows, z in buckets:
                trace = z[:, :, 0]
                trace *= means[rows][:, :, None]
                trace *= z[:, :, 1]
                np.maximum(trace, 0.0, out=trace)
                # The grid np.linspace(0, duration_s, n) builds, and the
                # terms np.trapezoid sums, of every run in the bucket (its
                # steps halved first, which is exact).
                times = np.arange(z.shape[-1], dtype=np.float64) * (
                    durations[rows] / (n[rows] - 1)
                )[:, None]
                times[np.arange(len(rows)), n[rows] - 1] = durations[rows]
                half_steps = times[:, 1:] - times[:, :-1]
                half_steps /= 2.0
                terms = trace[..., 1:] + trace[..., :-1]
                terms *= half_steps[:, None, :]
                for r, i in enumerate(rows):
                    energy[i] = np.add.reduce(terms[r, :, : n_list[i] - 1], axis=-1)

        mean, overhead = energy / durations[:, None], n * self.overhead_per_sample_s
        if not one_run:
            return SampledRuns(mean, energy, n, overhead, tuple(extra))
        results = tuple(
            SampledPower(m, e, n_list[0], float(overhead[0]))
            for m, e in zip(mean[0].tolist(), energy[0].tolist())
        )
        return results[0] if scalar else results


def _groups(lengths: list[int], planes: int) -> list[list[tuple[int, int]]]:
    """Bucket runs with sample counts ``lengths`` (longest first) into
    ``(start, stop)`` spans, each down to 1 / ``_BUCKET_SPREAD`` of its
    first run and within ``_BUCKET_ELEMENTS`` draws, and group the buckets
    until a group holds ``_GROUP_SAMPLES`` fluctuation samples."""
    groups, samples, start = [[]], 0, 0
    while start < len(lengths):
        longest, stop = lengths[start], start + 1
        last = min(len(lengths), start + max(1, _BUCKET_ELEMENTS // (planes * 2 * longest)))
        while stop < last and lengths[stop] * _BUCKET_SPREAD >= longest:
            stop += 1
        if samples >= _GROUP_SAMPLES:
            groups, samples = groups + [[]], 0
        groups[-1].append((start, stop))
        samples, start = samples + (stop - start) * planes * longest, stop
    return groups


def _one_plus_ar1(blocks, lengths, ar, first_scale, scale) -> None:
    """Overwrite each row ``z`` of ``blocks`` -- ``(rows, steps)`` arrays
    of standard normals, rows longest first across blocks, ``lengths``
    their own step counts -- by 1 + ``y``, where ``y[0] = first_scale *
    z[0]`` and ``y[t] = ar * y[t-1] + scale * z[t]``, each product and sum
    rounded on its own as ``lfilter`` rounds them (see the module
    docstring).  Steps past a row's length are left finite."""
    mul, add = np.multiply, np.add
    cols = list(itertools.accumulate((len(block) for block in blocks), initial=0))
    split = lengths[_VECTOR_MIN - 1] if len(lengths) >= _VECTOR_MIN else 0
    stops = [min(block.shape[1], split) for block in blocks]
    # Rows 1.. of the buffer hold a slice of steps; row 0, the step before.
    buffer, product = np.zeros((_STEP_ROWS + 1, cols[-1])), np.empty(cols[-1])
    active = len(blocks)
    for t0 in range(0, split, _STEP_ROWS):
        t1 = min(t0 + _STEP_ROWS, split)
        while stops[active - 1] <= t0:
            active -= 1
        spans = [(block, cols[b], cols[b + 1], min(t1, stops[b]) - t0)
                 for b, block in enumerate(blocks[:active])]
        for block, lo, hi, steps in spans:
            mul(block[:, t0 : t0 + steps].T, scale, out=buffer[1 : 1 + steps, lo:hi])
        width = cols[active]
        prev, rows = buffer[0, :width], buffer[1 : 1 + t1 - t0, :width]
        if t0 == 0:
            for block, lo, hi, _ in spans:
                mul(block[:, 0], first_scale, out=buffer[1, lo:hi])
            prev, rows = rows[0], rows[1:]
        step = product[:width]
        for row in rows:
            mul(prev, ar, out=step)
            add(step, row, out=row)
            prev = row
        for block, lo, hi, steps in spans:
            add(buffer[1 : 1 + steps, lo:hi].T, 1.0, out=block[:, t0 : t0 + steps])
        buffer[0, :width] = buffer[t1 - t0, :width]
    if not split:  # too few sequences to step: the first step, as above
        for b, block in enumerate(blocks):
            mul(block[:, 0], first_scale, out=buffer[0, cols[b] : cols[b + 1]])
            add(buffer[0, cols[b] : cols[b + 1]], 1.0, out=block[:, 0])
        split = 1

    for b, block in enumerate(blocks):
        for j, row in enumerate(block):
            length = lengths[cols[b] + j]
            if length <= split:
                return
            # Python floats round each product and sum as numpy does; array
            # and struct move the values faster than tolist and a list.
            y, xs = float(buffer[0, cols[b] + j]), array("d")
            xs.frombytes((scale * row[split:length]).tobytes())
            ys = struct.pack(f"{len(xs)}d", *[y := ar * y + x for x in xs])
            add(np.frombuffer(ys), 1.0, out=row[split:length])
