"""The integrated profiling library (paper Section III-D).

:class:`ProfilingLibrary` is the instrumentation layer between the
machine and the modeling pipeline.  A profiled execution:

1. runs the kernel (simulated) on the requested configuration;
2. estimates per-plane power by sampling the on-chip estimator at
   1 kHz and integrating (:mod:`repro.profiling.sampler`), charging the
   sampling overhead to the measured execution time;
3. reads performance counters at kernel start/finish (the paper bounds
   this at < 50 microseconds per kernel);
4. records the profile into a :class:`ProfileDatabase` history.

Everything downstream — Pareto frontiers, clustering, regression, the
classification tree — consumes only what this library records, exactly
as the paper's pipeline consumes only PAPI counters and integrated
power estimates.

Measurement noise is drawn from *counter-based* streams: every profiled
execution gets its own generator derived from the library seed and the
``(kernel uid, configuration, repetition)`` identity of the run.  Two
libraries with equal seeds therefore produce identical profiles for the
same run regardless of the order in which runs are requested — the
property that lets :class:`repro.profiling.store.CharacterizationStore`
characterize the suite once and share the profiles across every
cross-validation fold and ablation variant.

A run's stream is exactly ``np.random.default_rng(np.random.SeedSequence(
base + key))``: ``base`` is the library's four entropy words and ``key``
the four little-endian words leading the SHA-256 of the run identity.
The library computes that without a ``SeedSequence`` per run.  It
hashes the base words into SeedSequence's four-word pool once, at
construction; a configuration sweep then mixes all of its run keys into
copies of that pool in one vectorized numpy pass, and each run's
resulting seed words go to numpy's own ``PCG64`` through
:class:`_SeedWords`.  A single :meth:`ProfilingLibrary.profile` call is
the one-run case of the same derivation.  The tests compare generator
states with numpy's ``SeedSequence`` for random words, so a change in
numpy's seeding fails there instead of silently moving every profile.
"""

from __future__ import annotations

import hashlib
from collections.abc import Sequence

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from repro.hardware.apu import Measurement
from repro.hardware.backend import HardwareBackend
from repro.hardware.config import Configuration
from repro.hardware.counters import synthesize_counters
from repro.profiling.records import KernelProfile, ProfileDatabase
from repro.profiling.sampler import PowerSampler
from repro.telemetry import counter, gauge

__all__ = ["ProfilingLibrary"]

#: Counter read cost at kernel start + finish (paper: < 50 us).
COUNTER_READ_OVERHEAD_S: float = 50e-6

#: Process-wide memo of profiled executions.  A profile is a pure
#: function of the machine physics (power constants, noise model), the
#: sampling model, the library's base entropy, and the run identity
#: (kernel uid + characteristics, configuration, repetition) — the
#: counter-based streams exist precisely so that equal seeds reproduce
#: equal profiles.  Repeated evaluations (warm LOOCV runs, ablation
#: sweeps) therefore reuse measurements instead of re-integrating the
#: sampled traces.  Bypassed when the machine has boost enabled (truth
#: may carry thermal state).
_PROFILE_CACHE: dict[tuple, tuple[Measurement, float]] = {}

# Hit/miss accounting for the profile memo (see docs/OBSERVABILITY.md).
_PROFILE_HITS = counter("cache.profile.hits")
_PROFILE_MISSES = counter("cache.profile.misses")
_PROFILE_SIZE = gauge("cache.profile.size")


def _run_key(kernel_uid: str, config: Configuration, repetition: int) -> bytes:
    """Stable 128-bit entropy (four little-endian words) identifying
    one profiled run."""
    ident = f"{kernel_uid}\x1f{config.label()}\x1f{repetition}".encode()
    return hashlib.sha256(ident).digest()[:16]


# -- run-stream derivation -----------------------------------------------------
# numpy's SeedSequence (numpy/random/bit_generator.pyx) for eight entropy
# words and its default four-word pool: the first four words are hashed
# into the pool and mixed pairwise, each later word is hashed and mixed
# into every pool word, and PCG64 asks for four uint64 (eight uint32)
# output words.  The hash constants step independently of the data, so
# they are precomputed here.

_MASK32 = 0xFFFFFFFF
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715


def _hash_constants(init: int, mult: int, n: int) -> list[tuple[int, int]]:
    """The ``(xor, multiply)`` constant pairs of ``n`` successive hash
    steps: each step XORs the current constant, then advances it and
    multiplies by the new one."""
    pairs = []
    for _ in range(n):
        advanced = init * mult & _MASK32
        pairs.append((init, advanced))
        init = advanced
    return pairs


# 4 initial hashes + 12 pairwise mixes of the base pool, then 16 key hashes.
_POOL_HASHES = _hash_constants(0x43B0D7E5, 0x931E8875, 32)
_KEY_XOR, _KEY_MUL = (
    np.array(c, dtype=np.uint32).reshape(4, 4) for c in zip(*_POOL_HASHES[16:])
)
_OUT_XOR, _OUT_MUL = (
    np.array(c, dtype=np.uint32)
    for c in zip(*_hash_constants(0x8B51F9DD, 0x58F38DED, 8))
)


def _base_pool(base: Sequence[int]) -> np.ndarray:
    """SeedSequence's pool after its first four entropy words."""
    hashes = iter(_POOL_HASHES)

    def hashmix(value: int) -> int:
        xor, mul = next(hashes)
        value = (value ^ xor) * mul & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        r = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return r ^ r >> 16

    pool = [hashmix(w) for w in base]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    return np.array(pool, dtype=np.uint32)


def _seed_words(pool: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """PCG64 seed words, one row of four uint64 per row of ``keys``
    (``(m, 4)`` uint32): what ``SeedSequence(base + key)`` hands PCG64
    when ``pool`` is :func:`_base_pool` of ``base``."""
    hashed = (keys[:, :, None] ^ _KEY_XOR) * _KEY_MUL
    hashed ^= hashed >> 16
    for src in range(4):  # uint32 arithmetic wraps like SeedSequence's
        pool = _MIX_MULT_L * pool - _MIX_MULT_R * hashed[:, src]
        pool ^= pool >> 16
    out = (np.tile(pool, 2) ^ _OUT_XOR) * _OUT_MUL
    out ^= out >> 16
    return out.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


class _SeedWords(ISeedSequence):
    """Precomputed seed words standing in for a SeedSequence."""

    def __init__(self, words: np.ndarray) -> None:
        self._words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("_SeedWords only seeds PCG64 (four uint64 words)")
        return self._words


class ProfilingLibrary:
    """Instrumented kernel execution with power sampling and history.

    Parameters
    ----------
    apu:
        The machine to run on.
    sampler:
        Power sampling model (defaults to the paper's 1 kHz).
    seed:
        Seed of the library's measurement-noise streams; also accepts a
        :class:`numpy.random.SeedSequence` (e.g. one spawned per
        cross-validation fold).  Noise is keyed per
        ``(kernel, configuration, repetition)``, so two libraries with
        equal seeds produce identical profiles for the same runs in any
        order.
    """

    def __init__(
        self,
        apu: HardwareBackend,
        *,
        sampler: PowerSampler | None = None,
        seed: int | np.random.SeedSequence = 0,
    ) -> None:
        self.apu = apu
        self.sampler = sampler if sampler is not None else PowerSampler()
        self.database = ProfileDatabase()
        seed_seq = (
            seed
            if isinstance(seed, np.random.SeedSequence)
            else np.random.SeedSequence(seed)
        )
        # Base entropy words; combined with each run's identity key to
        # derive that run's private noise stream.
        self._base_entropy = tuple(int(w) for w in seed_seq.generate_state(4))
        self._pool = _base_pool(self._base_entropy)
        # Seed words a sweep derived ahead of its runs, keyed by run
        # identity; each is consumed by the run it belongs to.
        self._prefetched: dict[tuple[str, Configuration, int], np.ndarray] = {}
        # Per-(kernel, configuration) repetition counters: re-profiling
        # the same run draws fresh noise, while first-time profiles are
        # independent of the order other runs were requested in.
        self._rep_counts: dict[tuple[str, Configuration], int] = {}

    def _run_seeds(
        self, kernel_uid: str, runs: Sequence[tuple[Configuration, int]]
    ) -> np.ndarray:
        """Seed words of each ``(configuration, repetition)`` run."""
        keys = b"".join(_run_key(kernel_uid, cfg, rep) for cfg, rep in runs)
        return _seed_words(
            self._pool, np.frombuffer(keys, dtype="<u4").reshape(-1, 4)
        )

    def _run_rng(
        self, kernel_uid: str, config: Configuration, repetition: int
    ) -> np.random.Generator:
        """The counter-based noise stream of one profiled execution."""
        words = self._prefetched.pop((kernel_uid, config, repetition), None)
        if words is None:
            words = self._run_seeds(kernel_uid, [(config, repetition)])[0]
        return np.random.Generator(np.random.PCG64(_SeedWords(words)))

    @staticmethod
    def _uid(kernel, kernel_uid: str | None) -> str:
        uid = kernel_uid if kernel_uid is not None else getattr(kernel, "uid", None)
        if not uid:
            raise ValueError(
                "kernel has no uid; pass kernel_uid= for raw characteristics"
            )
        return uid

    def profile(
        self,
        kernel,
        config: Configuration,
        *,
        kernel_uid: str | None = None,
    ) -> KernelProfile:
        """Execute ``kernel`` once on ``config`` and record the profile.

        ``kernel`` may be a :class:`repro.workloads.Kernel` (its
        :attr:`~repro.workloads.Kernel.uid` names the record) or raw
        :class:`~repro.hardware.KernelCharacteristics` with an explicit
        ``kernel_uid``.
        """
        uid = self._uid(kernel, kernel_uid)
        repetition = self._rep_counts.get((uid, config), 0)
        self._rep_counts[(uid, config)] = repetition + 1

        chars = kernel if not hasattr(kernel, "characteristics") else (
            kernel.characteristics
        )

        # Fault injection: the run clock advances per profile attempt
        # (failed attempts included), may raise SampleRunError, and may
        # substitute the executed P-state.  Run identity — the noise
        # stream and repetition count — stays keyed by the *requested*
        # configuration, so an empty plan replays bit-identically and a
        # retry after a failure draws fresh noise.
        fctx = None
        if self.apu.fault_injector is not None:
            fctx = self.apu.fault_injector.begin_run(config)
        exec_config = config if fctx is None else fctx.config

        memo_key = None
        if self.apu.boost is None and (fctx is None or fctx.clean):
            memo_key = (
                self.apu.power_constants,
                self.apu.noise,
                self.sampler,
                self._base_entropy,
                uid,
                chars,
                config,
                repetition,
            )
            cached = _PROFILE_CACHE.get(memo_key)
            if cached is not None:
                _PROFILE_HITS.inc()
                measurement, sampling_overhead = cached
                return self.database.record(
                    uid, measurement, sampling_overhead_s=sampling_overhead
                )
            _PROFILE_MISSES.inc()

        rng = self._run_rng(uid, config, repetition)
        true_t = self.apu.true_time_s(kernel, exec_config)
        true_pb = self.apu.true_power(kernel, exec_config)

        # Integrate each power plane from its own sampled trace.
        cpu_sp, nbgpu_sp = self.sampler.sample(
            (true_pb.cpu_plane_w, true_pb.nbgpu_plane_w), true_t, rng
        )
        sampling_overhead = cpu_sp.overhead_s + COUNTER_READ_OVERHEAD_S

        # Timing measurement includes instrumentation overhead plus the
        # machine's run-to-run noise.
        noisy_t = self.apu.noise.perturb_time(true_t, rng)
        measured_t = noisy_t + sampling_overhead

        counters = self.apu.noise.perturb_counters(
            synthesize_counters(chars, exec_config), rng
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
            _PROFILE_CACHE[memo_key] = (measurement, sampling_overhead)
            _PROFILE_SIZE.set(len(_PROFILE_CACHE))
        return self.database.record(
            uid, measurement, sampling_overhead_s=sampling_overhead
        )

    def profile_all_configs(self, kernel) -> list[KernelProfile]:
        """Profile a kernel on every machine configuration — the offline
        exhaustive characterization applied to training kernels.

        The sweep's noise streams are derived in one pass up front; a
        run consumes its stream only if it misses the profile memo."""
        uid = self._uid(kernel, None)
        configs = list(self.apu.config_space)
        runs = [(cfg, self._rep_counts.get((uid, cfg), 0)) for cfg in configs]
        keys = [(uid, cfg, rep) for cfg, rep in runs]
        self._prefetched.update(zip(keys, self._run_seeds(uid, runs)))
        try:
            return [self.profile(kernel, cfg) for cfg in configs]
        finally:
            for key in keys:
                self._prefetched.pop(key, None)
