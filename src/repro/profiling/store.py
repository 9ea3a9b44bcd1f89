"""Profile-once characterization store (paper Section III-D / V-C).

The paper's whole argument is that the exhaustive configuration sweep is
expensive and therefore done **once, offline**; everything downstream
consumes the recorded profiles.  The evaluation pipeline used to violate
that economy: every cross-validation fold and every ablation variant
re-profiled its training kernels on all 42 configurations from scratch,
re-deriving byte-identical profiles because measurement noise is pure
function of ``(seed, kernel, configuration, repetition)`` (see
:mod:`repro.profiling.library`).

:class:`CharacterizationStore` restores the paper's profile-once
architecture:

* the suite is characterized at most once per ``(suite, seed)``; folds
  and ablation variants slice their training subsets from the shared
  store;
* per-kernel Pareto frontiers are derived once and registered in a
  :class:`~repro.core.dissimilarity.DissimilarityCache`, so each fold's
  dissimilarity matrix is a submatrix slice instead of a fresh
  pairwise-comparison pass;
* :meth:`CharacterizationStore.shared` keeps a process-wide registry so
  independent :func:`~repro.evaluation.loocv.run_loocv` calls (e.g. the
  12+ invocations across the ablation benchmarks) reuse one
  characterization campaign.

Because the profiling library's noise streams are order-independent,
store-served characterizations are *identical* to what a from-scratch
sweep with the same seed would measure — caching changes wall-clock
time, never results.  A regression test pins this guarantee.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from repro.hardware.apu import TrinityAPU
from repro.hardware.backend import create_backend
from repro.profiling.library import ProfilingLibrary
from repro.profiling.sampler import PowerSampler
from repro.telemetry import counter, trace_span

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (core -> profiling)
    from repro.core.characterization import KernelCharacterization
    from repro.core.frontier import ParetoFrontier
    from repro.core.regression import RegressionGramPool

__all__ = ["CharacterizationStore", "suite_fingerprint"]

#: Entropy tag separating the store's noise streams from other
#: consumers of the same master seed.
_STORE_STREAM_TAG: int = 0x5F_C4A2_51ED

#: Bound on the process-wide shared-store registry (FIFO eviction).
_MAX_SHARED_STORES: int = 16

# Registry-level accounting mirroring the per-store hit/miss fields, so
# telemetry.json sees the stores without holding references to them.
_STORE_HITS = counter("store.characterization.hits")
_STORE_MISSES = counter("store.characterization.misses")


def suite_fingerprint(kernels: Iterable) -> tuple:
    """Hashable identity of a kernel set: uids plus latent characteristics.

    Two suites with the same fingerprint produce identical ground truth
    and (for a fixed seed) identical profiles, so they may share a
    store.
    """
    return tuple(
        sorted((k.uid, k.characteristics) for k in kernels)
    )


class CharacterizationStore:
    """Shared, order-independent cache of exhaustive kernel sweeps.

    Parameters
    ----------
    apu:
        Machine to profile on — any
        :class:`~repro.hardware.backend.HardwareBackend`; defaults to
        ``TrinityAPU(seed=seed)``.
    seed:
        Master seed.  The store's profiling-noise streams are derived
        from it through a tagged :class:`numpy.random.SeedSequence`, so
        a store is a pure function of ``(suite, seed, sampler)``.
    sampler:
        Optional :class:`~repro.profiling.sampler.PowerSampler` override.

    Thread safety: all public methods may be called from concurrent
    fold workers; characterization of each kernel happens exactly once.
    """

    def __init__(
        self,
        apu=None,
        *,
        seed: int = 0,
        sampler: PowerSampler | None = None,
    ) -> None:
        self.apu = apu if apu is not None else TrinityAPU(seed=seed)
        self.seed = seed
        self.library = ProfilingLibrary(
            self.apu,
            sampler=sampler,
            seed=np.random.SeedSequence([seed, _STORE_STREAM_TAG]),
        )
        self._lock = threading.RLock()
        self._chars: dict[str, "KernelCharacterization"] = {}
        self._characteristics: dict[str, object] = {}
        self._frontiers: dict[str, "ParetoFrontier"] = {}
        self._diss_cache = None  # lazily built DissimilarityCache
        self._gram_pools: dict = {}
        self.hits = 0
        self.misses = 0

    # -- characterizations -------------------------------------------------

    def characterization(self, kernel) -> "KernelCharacterization":
        """The kernel's exhaustive characterization (cached)."""
        return self._characterizations([kernel])[0]

    def characterize(self, kernels: Sequence) -> list["KernelCharacterization"]:
        """Characterizations for many kernels, in input order (cached);
        the missing ones are profiled as one batch."""
        with trace_span("offline/characterize"):
            return self._characterizations(kernels)

    def _characterizations(self, kernels: Sequence) -> list["KernelCharacterization"]:
        from repro.core.characterization import characterize_kernels

        with self._lock:
            # Every uid must name one kernel: checked before profiling.
            seen = dict(self._characteristics)
            for k in kernels:
                if seen.setdefault(k.uid, k.characteristics) != k.characteristics:
                    raise ValueError(
                        f"kernel {k.uid!r} conflicts with a previously "
                        "characterized kernel of the same uid; use a "
                        "separate store per suite"
                    )
            missing = {k.uid: k for k in kernels if k.uid not in self._chars}
            fresh = characterize_kernels(self.library, list(missing.values()))
            for (uid, k), char in zip(missing.items(), fresh):
                self._chars[uid] = char
                self._characteristics[uid] = k.characteristics
            self.misses += len(missing)
            self.hits += len(kernels) - len(missing)
            _STORE_MISSES.inc(len(missing))
            _STORE_HITS.inc(len(kernels) - len(missing))
            return [self._chars[k.uid] for k in kernels]

    # -- frontiers and dissimilarities -------------------------------------

    def frontier(self, kernel) -> "ParetoFrontier":
        """The kernel's measured Pareto frontier (cached)."""
        uid = kernel.uid
        with self._lock:
            cached = self._frontiers.get(uid)
            if cached is None:
                cached = self.characterization(kernel).frontier()
                self._frontiers[uid] = cached
            return cached

    def dissimilarity_submatrix(
        self,
        kernels: Sequence,
        *,
        composition_weight: float | None = None,
    ) -> np.ndarray:
        """The kernel subset's frontier-dissimilarity matrix.

        Sliced from a cached full matrix over every kernel the store has
        seen so far, built at most once per composition weight.
        """
        from repro.core.dissimilarity import (
            DEFAULT_COMPOSITION_WEIGHT,
            DissimilarityCache,
        )

        w = (
            DEFAULT_COMPOSITION_WEIGHT
            if composition_weight is None
            else composition_weight
        )
        with trace_span("offline/dissimilarity"), self._lock:
            if self._diss_cache is None:
                self._diss_cache = DissimilarityCache()
            for k in kernels:
                if k.uid not in self._diss_cache:
                    self._diss_cache.add(k.uid, self.frontier(k))
            return self._diss_cache.submatrix(
                [k.uid for k in kernels], composition_weight=w
            )

    def gram_pool(
        self, *, transform: str = "none", power_anchor: bool = True
    ) -> "RegressionGramPool":
        """The store's regression sufficient-statistics pool for one
        model setting (see
        :class:`~repro.core.regression.RegressionGramPool`).

        Pools live as long as the store, so per-kernel Gram blocks are
        accumulated once suite-wide and every later training pass —
        folds, repeated ``run_loocv`` calls, ablation sweeps — reuses
        them.  One pool exists per ``(transform, power_anchor)``
        because both change the accumulated design rows.
        """
        from repro.core.regression import RegressionGramPool

        with self._lock:
            key = (transform, power_anchor)
            pool = self._gram_pools.get(key)
            if pool is None:
                pool = RegressionGramPool(
                    transform=transform, power_anchor=power_anchor
                )
                self._gram_pools[key] = pool
            return pool

    # -- process-wide registry ---------------------------------------------

    _shared_lock = threading.Lock()
    _shared: dict = {}

    @classmethod
    def shared(
        cls, kernels: Iterable, *, seed: int = 0, backend: str = "trinity"
    ) -> "CharacterizationStore":
        """The process-wide store for a ``(suite, seed, backend)`` triple.

        Repeated calls with suites of equal :func:`suite_fingerprint`,
        equal seed, and equal backend name return the same store, so
        independent evaluation runs (folds, ablation variants, repeated
        ``run_loocv`` calls) share one characterization campaign.  The
        store profiles on its own default-constructed machine of the
        named backend; callers needing a non-default machine or sampler
        should build a private store instead.
        """
        key = (suite_fingerprint(kernels), seed, backend)
        with cls._shared_lock:
            store = cls._shared.get(key)
            if store is None:
                store = cls(create_backend(backend, seed=seed), seed=seed)
                while len(cls._shared) >= _MAX_SHARED_STORES:
                    cls._shared.pop(next(iter(cls._shared)))
                cls._shared[key] = store
            return store

    @classmethod
    def clear_shared(cls) -> None:
        """Drop every registry entry (test isolation hook)."""
        with cls._shared_lock:
            cls._shared.clear()
