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
construction; a batch of runs then mixes all of its run keys into
copies of that pool in one vectorized numpy pass, and each run's
resulting seed words go to numpy's own ``PCG64`` through
:class:`_SeedWords`.  The tests compare generator states with numpy's
``SeedSequence`` for random words, so a change in numpy's seeding fails
there instead of silently moving every profile.

Profiling is batched: :meth:`ProfilingLibrary.profile_sweeps` measures
all kernel × configuration runs that miss the profile memo together, and
:meth:`~ProfilingLibrary.profile` is its one-run case.  Per run, only the
seed words and one ``standard_normal`` call remain, drawing in the order
run-by-run profiling consumed the stream (sampler planes, time noise,
counters).  Truth and counters come from the machine's memo, and the
lognormal noise factors, rebuilt with libm ``exp``, multiply all runs'
true times and counters in one array product: profiles are bit-identical
to profiling run by run (``tests/profile_reference.py``).
"""

from __future__ import annotations

import hashlib
from collections.abc import Sequence

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from repro.hardware.apu import Measurement
from repro.hardware.backend import HardwareBackend, _lognormal, characteristics_of
from repro.hardware.config import Configuration
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
#: sampled traces.  The machine's boost policy is part of its physics,
#: so it keys the memo too.
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
        # Per-(kernel, configuration) repetition counters: re-profiling
        # the same run draws fresh noise, while first-time profiles are
        # independent of the order other runs were requested in.
        self._rep_counts: dict[tuple[str, Configuration], int] = {}

    def _run_rngs(
        self, runs: Sequence[tuple[str, Configuration, int]]
    ) -> list[np.random.Generator]:
        """The counter-based noise stream of each ``(kernel uid,
        configuration, repetition)`` run."""
        keys = b"".join(_run_key(uid, cfg, rep) for uid, cfg, rep in runs)
        words = _seed_words(self._pool, np.frombuffer(keys, "<u4").reshape(-1, 4))
        return [np.random.Generator(np.random.PCG64(_SeedWords(w))) for w in words]

    @staticmethod
    def _uid(kernel, kernel_uid: str | None) -> str:
        uid = kernel_uid if kernel_uid is not None else getattr(kernel, "uid", None)
        if not uid:
            raise ValueError(
                "kernel has no uid; pass kernel_uid= for raw characteristics"
            )
        return uid

    def profile(
        self, kernel, config: Configuration, *, kernel_uid: str | None = None
    ) -> KernelProfile:
        """Execute ``kernel`` once on ``config`` and record the profile.

        ``kernel`` may be a :class:`repro.workloads.Kernel` (its
        :attr:`~repro.workloads.Kernel.uid` names the record) or raw
        :class:`~repro.hardware.KernelCharacteristics` with an explicit
        ``kernel_uid``.
        """
        return self._profile([(self._uid(kernel, kernel_uid), kernel, config)])[0]

    def profile_sweeps(self, kernels: Sequence) -> list[list[KernelProfile]]:
        """Profile each kernel on every machine configuration — the
        offline exhaustive characterization applied to training kernels
        — as one batch (recorded kernel after kernel, in configuration
        order)."""
        configs = list(self.apu.config_space)
        profiles = self._profile(
            [(self._uid(k, None), k, cfg) for k in kernels for cfg in configs]
        )
        size = len(configs)
        return [profiles[i : i + size] for i in range(0, len(profiles), size)]

    def _profile(self, runs: Sequence[tuple]) -> list[KernelProfile]:
        """Profile and record ``(uid, kernel, configuration)`` runs in
        order: memo hits are reused, the misses measured together by
        :meth:`_measure`.  A machine with a fault injector goes one run
        at a time: a run may fail, and the runs before it stay
        recorded."""
        apu = self.apu
        injector = apu.fault_injector
        if len(runs) > 1 and injector is not None:
            return [profile for run in runs for profile in self._profile([run])]
        done: list = [None] * len(runs)  # (measurement, sampling overhead)
        misses = []  # (position, stream, kernel, fault context, memo key)
        for pos, (uid, kernel, config) in enumerate(runs):
            repetition = self._rep_counts.get((uid, config), 0)
            self._rep_counts[(uid, config)] = repetition + 1
            # Fault injection: the run clock advances per profile
            # attempt (failed attempts included), may raise
            # SampleRunError, and may substitute the executed P-state.
            # Run identity — the noise stream and repetition count —
            # stays keyed by the *requested* configuration, so an empty
            # plan replays bit-identically and a retry after a failure
            # draws fresh noise.
            fctx = None if injector is None else injector.begin_run(config)
            memo_key = None
            if fctx is None or fctx.clean:
                memo_key = (
                    apu.power_constants, apu.boost, apu.noise, self.sampler,
                    self._base_entropy, uid, characteristics_of(kernel), config,
                    repetition,
                )
                done[pos] = _PROFILE_CACHE.get(memo_key)
                if done[pos] is not None:
                    continue
            misses.append((pos, (uid, config, repetition), kernel, fctx, memo_key))
        _PROFILE_HITS.inc(sum(result is not None for result in done))
        _PROFILE_MISSES.inc(sum(memo_key is not None for *_, memo_key in misses))
        if misses:
            _, streams, kernels, fctxs, _ = zip(*misses)
            executed = [s[1] if f is None else f.config for s, f in zip(streams, fctxs)]
            measured = self._measure(kernels, executed, streams)
            for (pos, *_, fctx, memo_key), (measurement, overhead) in zip(
                misses, measured
            ):
                if fctx is not None:
                    measurement = fctx.apply(measurement)
                done[pos] = (measurement, overhead)
                if memo_key is not None:
                    _PROFILE_CACHE[memo_key] = done[pos]
            _PROFILE_SIZE.set(len(_PROFILE_CACHE))
        return [
            self.database.record(uid, measurement, sampling_overhead_s=overhead)
            for (uid, _, _), (measurement, overhead) in zip(runs, done)
        ]

    def _measure(
        self, kernels: Sequence, configs: Sequence, streams: Sequence[tuple]
    ) -> list[tuple[Measurement, float]]:
        """``(measurement, sampling overhead)`` of each kernel on its
        executed configuration, with noise from the stream of its
        ``(uid, requested configuration, repetition)``.  A noise axis
        at zero draws nothing, as in ``NoiseModel``."""
        apu = self.apu
        truth = [apu.truth(k, cfg) for k, cfg in zip(kernels, configs)]
        counters = [apu.true_counters(k, cfg) for k, cfg in zip(kernels, configs)]
        time_ln, _, counter_ln = apu.noise.lognormals
        timed, counted = time_ln is not None, counter_ln is not None
        values, params = [], []  # the noisy true values and their lognormals
        for (t, _, _), c in zip(truth, counters):
            values += ([t] if timed else []) + (list(c.values()) if counted else [])
            params += [time_ln] * timed + [counter_ln] * (counted * len(c))
        sampled = self.sampler.sample(
            np.array([(primary, secondary) for _, primary, secondary in truth]),
            np.array([t for t, _, _ in truth]),
            self._run_rngs(streams),
            extra_draws=[timed + counted * len(c) for c in counters],
        )
        draws = np.concatenate(sampled.extra).tolist()
        factors = [_lognormal(mu, sigma, z) for (mu, sigma), z in zip(params, draws)]
        noisy = iter((np.array(values) * np.array(factors)).tolist())
        overheads = (sampled.overhead_s + COUNTER_READ_OVERHEAD_S).tolist()
        results = []
        for cfg, (t, _, _), c, (cpu_w, nbgpu_w), overhead in zip(
            configs, truth, counters, sampled.mean_power_w.tolist(), overheads
        ):
            time_s = (next(noisy) if timed else t) + overhead
            measured = {name: next(noisy) for name in c} if counted else dict(c)
            measurement = Measurement(cfg, time_s, cpu_w, nbgpu_w, measured)
            results.append((measurement, overhead))
        return results
