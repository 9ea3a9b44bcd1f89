"""The simulated Trinity APU: the facade tying timing, power, and
counters together.

:class:`TrinityAPU` exposes two views of the machine:

* :meth:`TrinityAPU.true_time_s` / :meth:`TrinityAPU.true_power` —
  deterministic ground truth, available only to the **oracle** used as
  the evaluation baseline (Section V-B of the paper);
* :meth:`TrinityAPU.run` — a *measured* execution: ground truth
  perturbed by the machine's :class:`~repro.hardware.noise.NoiseModel`.
  This is the only interface the modeling pipeline uses, mirroring how
  the paper's system sees silicon solely through PAPI counters and the
  on-chip power estimator.

Measurements report the two power domains separately (CPU cores;
northbridge + GPU), just like the Trinity system-management
microcontroller.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator

import numpy as np

from repro.faults.errors import SampleRunError
from repro.hardware import pstates
from repro.hardware.backend import (
    TRINITY_DESCRIPTOR,
    HardwareBackend,
    Measurement,
    characteristics_of,
    register_backend,
)
from repro.hardware.batch import batch_true_rate_power
from repro.hardware.config import Configuration, ConfigSpace, Device
from repro.hardware.counters import synthesize_counters
from repro.hardware.kernelmodel import (
    KernelCharacteristics,
    amdahl_speedup,
    memory_bandwidth_factor,
    true_time_s,
)
from repro.hardware.noise import NoiseModel
from repro.hardware.power import PowerBreakdown, PowerModelConstants, power_w
from repro.hardware.thermal import BoostPolicy
from repro.telemetry import counter, gauge

# Measurement moved to repro.hardware.backend with the interface
# extraction; re-exported here for compatibility.
__all__ = ["Measurement", "TrinityAPU"]


# Process-wide ground-truth caches.  With boost off, ground truth is a
# pure function of (characteristics, config) given the power constants,
# and the noisy-measurement template additionally depends only on the
# noise model — so every TrinityAPU with equal constants shares one set
# of memo dicts.  run_loocv and the evaluation harness build fresh
# machines constantly (fresh noise streams, same physics); sharing keeps
# repeated runs from re-deriving identical truths.  Keyspace is bounded:
# kernels-in-process x 42 configurations.
_TRUTH_CACHES: dict[PowerModelConstants, tuple[dict, dict, dict]] = {}
_TRUTH_TABLE_CACHES: dict[PowerModelConstants, dict] = {}
_TEMPLATE_CACHES: dict[tuple[PowerModelConstants, NoiseModel], dict] = {}

# Hit/miss accounting for the two memo families this module owns (see
# docs/OBSERVABILITY.md).  Instruments are fetched once here; their
# .inc() is a flag check when telemetry is disabled.
_TT_HITS = counter("cache.truth_table.hits")
_TT_MISSES = counter("cache.truth_table.misses")
_TT_SIZE = gauge("cache.truth_table.size")
_TPL_HITS = counter("cache.measurement_template.hits")
_TPL_MISSES = counter("cache.measurement_template.misses")
_TPL_SIZE = gauge("cache.measurement_template.size")


def _truth_caches(
    constants: PowerModelConstants,
) -> tuple[dict, dict, dict]:
    caches = _TRUTH_CACHES.get(constants)
    if caches is None:
        caches = ({}, {}, {})
        _TRUTH_CACHES[constants] = caches
    return caches


def _template_cache(
    constants: PowerModelConstants, noise: NoiseModel
) -> dict:
    cache = _TEMPLATE_CACHES.get((constants, noise))
    if cache is None:
        cache = {}
        _TEMPLATE_CACHES[(constants, noise)] = cache
    return cache


def _lognormal(mean: float, sigma: float, z: float) -> float:
    """A ``Generator.lognormal(mean, sigma)`` draw rebuilt from the
    standard-normal draw ``z`` it would have consumed.

    numpy computes the lognormal as libm ``exp(mean + sigma * z)``;
    ``math.exp`` calls the same libm routine, so the result is
    bit-identical.  ``np.exp`` is *not*: its SIMD implementation differs
    in the last ulp on some inputs.
    """
    return math.exp(mean + sigma * z)


class TrinityAPU(HardwareBackend):
    """Simulated AMD Trinity A10-5800K APU (registered as ``"trinity"``).

    Parameters
    ----------
    noise:
        Measurement-noise model; defaults to realistic small noise.  Use
        :meth:`NoiseModel.exact` for deterministic measurements.
    power_constants:
        Power-model calibration constants (defaults match the paper's
        published power ranges).
    seed:
        Seed for the machine's internal measurement-noise stream.
    boost:
        Optional opportunistic-overclocking capability (paper Section
        VI; off by default, matching the paper's evaluated machine).
        When enabled, CPU configurations at the top software P-state
        boost toward the policy's frequency whenever thermal headroom
        allows.
    """

    name = "trinity"
    #: Static machine description (ladders, samples, design rows).
    descriptor = TRINITY_DESCRIPTOR

    def __init__(
        self,
        *,
        noise: NoiseModel | None = None,
        power_constants: PowerModelConstants | None = None,
        seed: int = 0,
        boost: BoostPolicy | None = None,
    ) -> None:
        self.noise = noise if noise is not None else NoiseModel()
        self.power_constants = (
            power_constants if power_constants is not None else PowerModelConstants()
        )
        self.boost = boost
        self.config_space = ConfigSpace()
        self._rng = np.random.default_rng(seed)
        # Optional fault injector (repro.faults): when attached, every
        # measured run passes through it — ground truth is unaffected.
        self.fault_injector = None
        # Ground truth is a pure function of (characteristics, config)
        # when boost is off, and the evaluation protocol revisits the
        # same pairs constantly (oracle frontiers, limiter traces), so
        # memoize it — process-wide, shared by every machine with equal
        # power constants.  Boost may carry thermal state, so it
        # bypasses the caches.
        self._time_cache: dict[tuple[KernelCharacteristics, Configuration], float]
        self._power_cache: dict[
            tuple[KernelCharacteristics, Configuration], PowerBreakdown
        ]
        self._time_cache, self._power_cache, self._counter_cache = _truth_caches(
            self.power_constants
        )
        # Fused measurement templates: (counter names, true time, true
        # cpu_w, true nbgpu_w, true counter values) per (characteristics,
        # config).  Lets :meth:`run` and :meth:`observe` replace three
        # cache lookups and four RNG calls with one lookup and one
        # standard-normal draw.  Only valid when every noise axis is
        # nonzero (a zero axis skips its draw in the scalar path, so the
        # fused draw would desynchronize the stream) — ``_noise_mode``
        # records which regime applies.
        self._meas_cache: dict[
            tuple[KernelCharacteristics, Configuration],
            tuple[tuple[str, ...], float, float, float, tuple[float, ...]],
        ] = _template_cache(self.power_constants, self.noise)
        rels = (self.noise.time_rel, self.noise.power_rel, self.noise.counter_rel)
        if all(r > 0.0 for r in rels):
            self._noise_mode = "vector"
        elif all(r == 0.0 for r in rels):
            self._noise_mode = "exact"
        else:
            self._noise_mode = "scalar"
        # Lognormal parameters of each noise axis, precomputed exactly as
        # NoiseModel._scale computes them (python-float arithmetic).
        self._ln_time = (-0.5 * rels[0] * rels[0], rels[0])
        self._ln_power = (-0.5 * rels[1] * rels[1], rels[1])
        self._ln_counter = (-0.5 * rels[2] * rels[2], rels[2])

    # -- opportunistic boost (Section VI extension) ----------------------------

    def _boost_applies(self, cfg: Configuration) -> bool:
        return (
            self.boost is not None
            and cfg.device is Device.CPU
            and abs(cfg.cpu_freq_ghz - pstates.CPU_MAX_FREQ_GHZ) < 1e-9
        )

    def _boost_outcome(self, chars: KernelCharacteristics, cfg: Configuration):
        base_power = power_w(chars, cfg, self.power_constants).total_w
        # Frequency-sensitive share of runtime at the top P-state.
        compute = (1.0 - chars.mem_fraction) / amdahl_speedup(
            cfg.n_threads, chars.parallel_fraction
        )
        memory = chars.mem_fraction / memory_bandwidth_factor(cfg.n_threads)
        compute_fraction = compute / (compute + memory) if compute + memory else 0.0
        return self.boost.evaluate(base_power, cfg.n_threads, compute_fraction)

    # -- ground truth (oracle-only) ------------------------------------------

    def true_time_s(self, kernel: object, cfg: Configuration) -> float:
        """Deterministic execution time (seconds) of one invocation."""
        chars = characteristics_of(kernel)
        if self.boost is None:
            t = self._time_cache.get((chars, cfg))
            if t is None:
                t = true_time_s(chars, cfg)
                self._time_cache[(chars, cfg)] = t
            return t
        t = true_time_s(chars, cfg)
        if self._boost_applies(cfg):
            t *= self._boost_outcome(chars, cfg).time_scale
        return t

    def true_power(self, kernel: object, cfg: Configuration) -> PowerBreakdown:
        """Deterministic per-plane average power."""
        chars = characteristics_of(kernel)
        if self.boost is None:
            pb = self._power_cache.get((chars, cfg))
            if pb is None:
                pb = power_w(chars, cfg, self.power_constants)
                self._power_cache[(chars, cfg)] = pb
            return pb
        pb = power_w(chars, cfg, self.power_constants)
        if self._boost_applies(cfg):
            delta = self._boost_outcome(chars, cfg).power_delta_w
            pb = PowerBreakdown(
                cpu_plane_w=pb.cpu_plane_w + delta,
                nbgpu_plane_w=pb.nbgpu_plane_w,
            )
        return pb

    def true_total_power_w(self, kernel: object, cfg: Configuration) -> float:
        """Deterministic whole-chip average power (watts)."""
        return self.true_power(kernel, cfg).total_w

    def true_performance(self, kernel: object, cfg: Configuration) -> float:
        """Deterministic throughput (invocations per second)."""
        return 1.0 / self.true_time_s(kernel, cfg)

    def true_table(
        self, kernel: object
    ) -> dict[Configuration, tuple[float, float]]:
        """Per-configuration ground truth ``{config: (total power W,
        performance)}`` over the whole space, memoized process-wide.

        The evaluation harness judges every decision against ground
        truth; one dict lookup per record beats two memoized calls.
        Falls back to an uncached build when boost is enabled (thermal
        state may make truth impure).
        """
        chars = characteristics_of(kernel)
        if self.boost is None:
            tables = _TRUTH_TABLE_CACHES.get(self.power_constants)
            if tables is None:
                tables = {}
                _TRUTH_TABLE_CACHES[self.power_constants] = tables
            table = tables.get(chars)
            if table is None:
                _TT_MISSES.inc()
                table = self._build_true_table(chars)
                tables[chars] = table
                _TT_SIZE.set(len(tables))
            else:
                _TT_HITS.inc()
            return table
        return self._build_true_table(chars)

    def _build_true_table(
        self, chars: KernelCharacteristics
    ) -> dict[Configuration, tuple[float, float]]:
        return {
            cfg: (
                self.true_power(chars, cfg).total_w,
                1.0 / self.true_time_s(chars, cfg),
            )
            for cfg in self.config_space
        }

    # -- fault injection (repro.faults) ----------------------------------------

    def inject_faults(self, faults) -> object | None:
        """Attach (or detach, with ``None``) a fault plan to the machine.

        ``faults`` may be a :class:`repro.faults.FaultPlan` or an
        existing :class:`repro.faults.FaultInjector` (to share one run
        clock across machines).  Returns the active injector.  Only
        *measured* runs are perturbed; ground truth stays exact, so
        oracle baselines and harness judgments are unaffected.
        """
        if faults is None:
            self.fault_injector = None
            return None
        from repro.faults import FaultInjector, FaultPlan

        if isinstance(faults, FaultInjector):
            self.fault_injector = faults
        elif isinstance(faults, FaultPlan):
            self.fault_injector = FaultInjector(faults)
        else:
            raise TypeError(
                f"expected FaultPlan or FaultInjector, got {type(faults).__name__}"
            )
        return self.fault_injector

    # -- measurement -----------------------------------------------------------

    def run(
        self,
        kernel: object,
        cfg: Configuration,
        *,
        rng: np.random.Generator | None = None,
    ) -> Measurement:
        """Execute one kernel invocation and return a noisy measurement.

        With a fault injector attached (:meth:`inject_faults`), the run
        first passes through :meth:`repro.faults.FaultInjector.begin_run`
        — which may raise :class:`repro.faults.SampleRunError` or
        substitute the executed P-state — and the readings through the
        run's sensor faults.

        Parameters
        ----------
        kernel:
            :class:`KernelCharacteristics` or an object carrying them.
        cfg:
            Configuration to run on (must be in the machine's space).
        rng:
            Optional generator for the measurement noise; defaults to the
            machine's internal stream.
        """
        inj = self.fault_injector
        if inj is None:
            return self._run_clean(kernel, cfg, rng=rng)
        ctx = inj.begin_run(cfg)
        return ctx.apply(self._run_clean(kernel, ctx.config, rng=rng))

    def observe(
        self,
        kernel: object,
        ladder: Iterable[Configuration],
        *,
        rng: np.random.Generator | None = None,
    ) -> Iterator[tuple[Configuration, float, object]]:
        """Measure ``kernel`` on each configuration of ``ladder`` in turn,
        yielding ``(config, measured total power, reading)`` per run.

        The frequency limiter's primitive: its walk reads only the total
        power of each step, so the clean fast-template modes draw the
        step's full noise row (one ``standard_normal`` call, consuming
        the stream exactly like :meth:`run`) but compute only the two
        power factors.  :meth:`measurement` turns a step's ``reading``
        into the :class:`Measurement` :meth:`run` would have returned.
        Fault-injected, boosted and scalar-noise machines delegate each
        step to :meth:`run`, so fault semantics are unchanged; a failed
        run yields a NaN power and a ``None`` reading.  Stop iterating
        whenever the walk is done: no step is drawn before it is asked
        for.
        """
        if (
            self.fault_injector is not None
            or self.boost is not None
            or self._noise_mode == "scalar"
        ):
            for cfg in ladder:
                try:
                    m = self.run(kernel, cfg, rng=rng)
                except SampleRunError:
                    yield cfg, math.nan, None
                else:
                    yield cfg, m.total_power_w, m
            return
        chars = characteristics_of(kernel)
        cache = self._meas_cache
        r = rng if rng is not None else self._rng
        noisy = self._noise_mode == "vector"
        mp, sp = self._ln_power
        hits = 0  # template reads are counted once per walk, not per step
        try:
            for cfg in ladder:
                tpl = cache.get((chars, cfg))
                if tpl is None:
                    tpl = self._new_template(chars, cfg)
                else:
                    hits += 1
                _, _, cpu_w, nbgpu_w, vals = tpl
                if noisy:
                    z = r.standard_normal(3 + len(vals)).tolist()
                    cpu_factor = _lognormal(mp, sp, z[1])
                    power = cpu_w * cpu_factor + nbgpu_w * _lognormal(mp, sp, z[2])
                else:
                    z = ()
                    power = cpu_w + nbgpu_w
                yield cfg, power, (tpl, z)
        finally:
            _TPL_HITS.inc(hits)

    def measurement(self, cfg: Configuration, reading: object) -> Measurement:
        """The full :class:`Measurement` of one :meth:`observe` step on
        ``cfg`` (``reading`` must not be ``None``)."""
        if isinstance(reading, Measurement):
            return reading
        tpl, z = reading
        return self._noisy_measurement(tpl, cfg, z)

    def _noisy_measurement(self, tpl: tuple, cfg: Configuration, z) -> Measurement:
        """Apply one step's standard-normal row ``z`` (time, two power
        planes, then the counter block; empty in the exact noise mode)
        to a measurement template."""
        names, t, cpu_w, nbgpu_w, vals = tpl
        if not z:
            return Measurement(
                config=cfg,
                time_s=t,
                cpu_plane_w=cpu_w,
                nbgpu_plane_w=nbgpu_w,
                counters=dict(zip(names, vals)),
            )
        mt, st = self._ln_time
        mp, sp = self._ln_power
        mc, sc = self._ln_counter
        return Measurement(
            config=cfg,
            time_s=t * _lognormal(mt, st, z[0]),
            cpu_plane_w=cpu_w * _lognormal(mp, sp, z[1]),
            nbgpu_plane_w=nbgpu_w * _lognormal(mp, sp, z[2]),
            counters={
                name: v * _lognormal(mc, sc, x)
                for name, v, x in zip(names, vals, z[3:])
            },
        )

    def _run_clean(
        self,
        kernel: object,
        cfg: Configuration,
        *,
        rng: np.random.Generator | None = None,
    ) -> Measurement:
        """The fault-free measurement path (ground truth + noise)."""
        chars = characteristics_of(kernel)

        if self.boost is None and self._noise_mode != "scalar":
            tpl = self._meas_cache.get((chars, cfg))
            if tpl is None:
                tpl = self._new_template(chars, cfg)
            else:
                _TPL_HITS.inc()
            if self._noise_mode == "vector":
                # One standard-normal row in the legacy scalar path's
                # order — time, two power planes, the counter block — so
                # measurements are bit-identical to per-axis lognormal
                # draws.
                r = rng if rng is not None else self._rng
                z = r.standard_normal(3 + len(tpl[4])).tolist()
                return self._noisy_measurement(tpl, cfg, z)
            # exact: measurements equal ground truth, no draws
            return self._noisy_measurement(tpl, cfg, ())

        if cfg not in self.config_space:
            raise ValueError(f"{cfg} is not a valid configuration for this machine")
        r = rng if rng is not None else self._rng
        t = self.noise.perturb_time(self.true_time_s(chars, cfg), r)
        pb = self.true_power(chars, cfg)
        cpu_w = self.noise.perturb_power(pb.cpu_plane_w, r)
        nbgpu_w = self.noise.perturb_power(pb.nbgpu_plane_w, r)
        true_counters = self._counter_cache.get((chars, cfg))
        if true_counters is None:
            true_counters = synthesize_counters(chars, cfg)
            self._counter_cache[(chars, cfg)] = true_counters
        counters = self.noise.perturb_counters(true_counters, r)
        return Measurement(
            config=cfg,
            time_s=t,
            cpu_plane_w=cpu_w,
            nbgpu_plane_w=nbgpu_w,
            counters=counters,
        )

    def _new_template(
        self, chars: KernelCharacteristics, cfg: Configuration
    ) -> tuple[tuple[str, ...], float, float, float, tuple[float, ...]]:
        """Build and memoize the fused ground-truth template for one pair
        (a template-cache miss; callers count their own hits)."""
        _TPL_MISSES.inc()
        if cfg not in self.config_space:
            raise ValueError(f"{cfg} is not a valid configuration for this machine")
        t = self.true_time_s(chars, cfg)
        pb = self.true_power(chars, cfg)
        true_counters = self._counter_cache.get((chars, cfg))
        if true_counters is None:
            true_counters = synthesize_counters(chars, cfg)
            self._counter_cache[(chars, cfg)] = true_counters
        tpl = (
            tuple(true_counters),
            t,
            pb.cpu_plane_w,
            pb.nbgpu_plane_w,
            tuple(float(v) for v in true_counters.values()),
        )
        self._meas_cache[(chars, cfg)] = tpl
        _TPL_SIZE.set(len(self._meas_cache))
        return tpl

    def run_all_configs(
        self,
        kernel: object,
        *,
        rng: np.random.Generator | None = None,
    ) -> list[Measurement]:
        """Measure a kernel on every configuration (the paper's offline
        exhaustive characterization of training kernels)."""
        return [self.run(kernel, cfg, rng=rng) for cfg in self.config_space]

    # -- batch evaluation ------------------------------------------------------

    def batch_rate_power(
        self,
        kernel: object,
        is_gpu: np.ndarray,
        cpu_freq_ghz: np.ndarray,
        n_threads: np.ndarray,
        gpu_freq_ghz: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized ground truth via :mod:`repro.hardware.batch`
        (bit-identical to the scalar calls; boost is not modeled on the
        batch path)."""
        return batch_true_rate_power(
            characteristics_of(kernel),
            is_gpu,
            cpu_freq_ghz,
            n_threads,
            gpu_freq_ghz,
            self.power_constants,
        )


register_backend(
    "trinity",
    lambda *, seed=0, noise=None: TrinityAPU(seed=seed, noise=noise),
    TRINITY_DESCRIPTOR,
)
