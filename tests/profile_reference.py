"""Per-plane, per-run reference for :class:`repro.profiling.ProfilingLibrary`.

The library profiles a whole characterization sweep as one batch: one
draw call per run, power sampled for every run and plane in bucketed
array passes, and noise streams derived in one vectorized step.  This
module keeps the straightforward code those replaced, as the oracle
they must reproduce bit for bit:

* :class:`ReferencePowerSampler` integrates each plane from its own
  ``Generator.normal`` draws, ``np.linspace`` grid and ``np.trapezoid``;
* :func:`reference_run_rng` builds each run's generator from a fresh
  :class:`numpy.random.SeedSequence`;
* :class:`ReferenceProfilingLibrary` uses both, profiles one run at a
  time (synthesizing counters and drawing each noise axis through the
  per-axis reference of :mod:`tests.physics_reference`), and sweeps
  run by run.
"""

from __future__ import annotations

from dataclasses import asdict

import numpy as np
from scipy.signal import lfilter

from repro.hardware.apu import Measurement
from repro.hardware.config import Configuration
from repro.hardware.counters import synthesize_counters
from repro.profiling import library as library_module
from repro.profiling.library import COUNTER_READ_OVERHEAD_S, ProfilingLibrary, _run_key
from repro.profiling.records import KernelProfile
from repro.profiling.sampler import PowerSampler, SampledPower
from tests.physics_reference import perturb_counters, perturb_time


class ReferencePowerSampler(PowerSampler):
    """A :class:`PowerSampler` that samples plane after plane."""

    def sample(self, true_mean_w, duration_s, rng):
        if np.ndim(true_mean_w) == 0:
            return self._sample_plane(true_mean_w, duration_s, rng)
        return tuple(self._sample_plane(m, duration_s, rng) for m in true_mean_w)

    def _sample_plane(
        self, true_mean_w: float, duration_s: float, rng: np.random.Generator
    ) -> SampledPower:
        if true_mean_w <= 0:
            raise ValueError("true_mean_w must be positive")
        if duration_s <= 0:
            raise ValueError("duration_s must be positive")

        n = max(2, int(round(duration_s * self.rate_hz)) + 1)
        innov_std = self.fluctuation_rel * np.sqrt(1.0 - self.ar_coeff**2)
        fluct = np.empty(n)
        fluct[0] = rng.normal(scale=self.fluctuation_rel)
        innovations = rng.normal(scale=innov_std, size=n - 1)
        fluct[1:] = lfilter(
            [1.0],
            [1.0, -self.ar_coeff],
            innovations,
            zi=np.array([self.ar_coeff * fluct[0]]),
        )[0]
        trace = true_mean_w * (1.0 + fluct)
        trace *= 1.0 + rng.normal(scale=self.sample_noise_rel, size=n)
        trace = np.maximum(trace, 0.0)

        times = np.linspace(0.0, duration_s, n)
        energy = float(np.trapezoid(trace, times))
        return SampledPower(
            mean_power_w=energy / duration_s,
            energy_j=energy,
            n_samples=n,
            overhead_s=n * self.overhead_per_sample_s,
        )


def reference_run_rng(
    base_entropy, kernel_uid: str, config: Configuration, repetition: int
) -> np.random.Generator:
    """A run's noise stream straight from numpy's ``SeedSequence``."""
    key = _run_key(kernel_uid, config, repetition)
    words = [int.from_bytes(key[i : i + 4], "little") for i in range(0, 16, 4)]
    return np.random.default_rng(np.random.SeedSequence(list(base_entropy) + words))


class ReferenceProfilingLibrary(ProfilingLibrary):
    """:class:`ProfilingLibrary` with per-plane sampling, one
    ``SeedSequence`` per run and a sweep of single profiles."""

    def __init__(self, apu, *, sampler: PowerSampler | None = None, seed=0) -> None:
        sampler = sampler if sampler is not None else PowerSampler()
        super().__init__(apu, sampler=ReferencePowerSampler(**asdict(sampler)), seed=seed)

    def _run_rng(self, kernel_uid, config, repetition):
        return reference_run_rng(self._base_entropy, kernel_uid, config, repetition)

    def profile(self, kernel, config, *, kernel_uid=None) -> KernelProfile:
        uid = self._uid(kernel, kernel_uid)
        repetition = self._rep_counts.get((uid, config), 0)
        self._rep_counts[(uid, config)] = repetition + 1

        chars = kernel if not hasattr(kernel, "characteristics") else (
            kernel.characteristics
        )

        fctx = None
        if self.apu.fault_injector is not None:
            fctx = self.apu.fault_injector.begin_run(config)
        exec_config = config if fctx is None else fctx.config

        memo_key = None
        if fctx is None or fctx.clean:
            memo_key = (
                self.apu.power_constants,
                self.apu.boost,
                self.apu.noise,
                self.sampler,
                self._base_entropy,
                uid,
                chars,
                config,
                repetition,
            )
            cached = library_module._PROFILE_CACHE.get(memo_key)
            if cached is not None:
                library_module._PROFILE_HITS.inc()
                measurement, sampling_overhead = cached
                return self.database.record(
                    uid, measurement, sampling_overhead_s=sampling_overhead
                )
            library_module._PROFILE_MISSES.inc()

        rng = self._run_rng(uid, config, repetition)
        true_t = self.apu.true_time_s(kernel, exec_config)
        true_pb = self.apu.true_power(kernel, exec_config)

        cpu_sp, nbgpu_sp = self.sampler.sample(
            (true_pb.cpu_plane_w, true_pb.nbgpu_plane_w), true_t, rng
        )
        sampling_overhead = cpu_sp.overhead_s + COUNTER_READ_OVERHEAD_S

        noisy_t = perturb_time(self.apu.noise, true_t, rng)
        measured_t = noisy_t + sampling_overhead

        counters = perturb_counters(
            self.apu.noise, synthesize_counters(chars, exec_config), rng
        )
        measurement = Measurement(
            config=exec_config,
            time_s=measured_t,
            cpu_plane_w=cpu_sp.mean_power_w,
            nbgpu_plane_w=nbgpu_sp.mean_power_w,
            counters=counters,
        )
        if fctx is not None:
            measurement = fctx.apply(measurement)
        if memo_key is not None:
            library_module._PROFILE_CACHE[memo_key] = (measurement, sampling_overhead)
        return self.database.record(
            uid, measurement, sampling_overhead_s=sampling_overhead
        )

    def profile_all_configs(self, kernel):
        return [self.profile(kernel, cfg) for cfg in self.apu.config_space]

    def profile_sweeps(self, kernels):
        return [self.profile_all_configs(kernel) for kernel in kernels]
