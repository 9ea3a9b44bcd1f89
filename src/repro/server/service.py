"""The decision service: immutable engine snapshots, batched answers.

:class:`DecisionService` owns the shared read-only state of a serving
process — the trained :class:`~repro.core.model.AdaptiveModel`, the
per-kernel whole-space predictions, the memoized
:class:`~repro.core.frontier.CapSweepTable` per kernel and their
stacked :class:`~repro.server.engine.DecisionIndex` — published
atomically as an :class:`EngineSnapshot`.  Writers (warming a new
kernel, quarantining a configuration) copy, extend, and swap the
snapshot under a publish lock; readers grab ``self._snapshot`` once per
batch and never lock, so the hot path is a single attribute read (an
atomic reference swap under the GIL) plus array math.

Graceful degradation happens per request, never per batch: sampling
retries and conservative fallbacks are handled inside
:class:`~repro.core.predictor.OnlinePredictor` during warm-up, and any
kernel that still cannot be served (unknown uid, invalid cap, a
:class:`~repro.core.scheduler.NoFeasibleConfigError` under strict
quarantine) maps to an error :class:`DecisionResult` while the rest of
the batch proceeds.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from itertools import compress, repeat
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from repro.core.frontier import CapSweepTable
from repro.core.model import AdaptiveModel
from repro.core.predictor import KernelPrediction, OnlinePredictor
from repro.core.scheduler import NoFeasibleConfigError, Scheduler
from repro.faults import SampleRunError
from repro.hardware.apu import TrinityAPU
from repro.hardware.config import Configuration
from repro.profiling.library import ProfilingLibrary
from repro.server.engine import DecisionIndex, DecisionRequest, decide_batch
from repro.telemetry import counter, histogram, trace_span
from repro.workloads import build_suite

__all__ = [
    "DecisionResult",
    "DecisionService",
    "EngineSnapshot",
    "build_default_service",
]

# Request accounting (docs/SERVER.md, docs/OBSERVABILITY.md).
_REQUESTS = counter("server.requests")
_BATCHES = counter("server.batches")
_ERRORS = counter("server.errors")
_BATCH_SIZE = histogram("server.batch_size")

# Per-request error codes carried by DecisionResult.error.
ERROR_UNKNOWN_KERNEL = "unknown-kernel"
ERROR_INVALID_CAP = "invalid-cap"
ERROR_NO_FEASIBLE_CONFIG = "no-feasible-config"
ERROR_SAMPLE_FAILED = "sample-failed"


class DecisionResult(NamedTuple):
    """Answer to one :class:`~repro.server.engine.DecisionRequest`.

    ``error`` is ``None`` on success; otherwise one of the
    ``ERROR_*`` codes and every predicted field is a placeholder
    (``config`` ``None``, NaN predictions, ``feasible`` False).  A
    named tuple, so a batch's answers are built by one C-level ``map``;
    it iterates and compares equal like the plain tuple of its fields.
    """

    kernel_uid: str
    power_cap_w: float
    config: Configuration | None
    predicted_power_w: float
    predicted_performance: float
    feasible: bool
    error: str | None = None

    @property
    def ok(self) -> bool:
        """Whether the request was answered with a configuration."""
        return self.error is None


def _error_result(request: DecisionRequest, error: str) -> DecisionResult:
    return DecisionResult(
        request.kernel_uid, request.power_cap_w, None, math.nan, math.nan,
        False, error,
    )


@dataclass(frozen=True)
class EngineSnapshot:
    """One immutable, atomically-published engine state.

    Attributes
    ----------
    version:
        Monotonic publish counter (hammer tests assert reads are torn-
        free by checking invariants against a single grabbed snapshot).
    scheduler:
        The selection policy the tables were built with.
    predictions:
        Whole-space prediction per warmed kernel uid (read-only view).
    tables:
        Memoized cap-sweep table per *servable* uid.  A warmed uid
        missing here had no selectable configuration at table-build
        time (strict full quarantine) and is reported per request as
        ``no-feasible-config``.
    index:
        ``tables`` stacked for one-pass batch lookups, built with them.
    """

    version: int
    scheduler: Scheduler
    predictions: Mapping[str, KernelPrediction]
    tables: Mapping[str, CapSweepTable]
    index: DecisionIndex

    def infeasible(self, uid: str) -> bool:
        """Warmed but unservable: predicted, yet no sweep table."""
        return uid in self.predictions and uid not in self.tables


class DecisionService:
    """Long-lived decision facade over the array engine.

    Parameters
    ----------
    model:
        Trained adaptive model used to predict unseen kernels.
    library:
        Profiling library for the two online sample iterations (attach
        a fault plan to ``library.apu`` to exercise degradation).
    kernels:
        The servable kernel catalogue (default: the full built suite).
        Requests for uids outside it answer ``unknown-kernel``.
    scheduler:
        Selection policy shared by every request (default
        maximize-performance).
    """

    def __init__(
        self,
        model: AdaptiveModel,
        library: ProfilingLibrary,
        *,
        kernels: Iterable | None = None,
        scheduler: Scheduler | None = None,
    ) -> None:
        self._predictor = OnlinePredictor(model, library)
        self._scheduler = scheduler if scheduler is not None else Scheduler()
        catalogue = build_suite() if kernels is None else kernels
        self._kernels = {k.uid: k for k in catalogue}
        self._publish_lock = threading.Lock()
        self._snapshot = EngineSnapshot(
            version=0,
            scheduler=self._scheduler,
            predictions=MappingProxyType({}),
            tables=MappingProxyType({}),
            index=DecisionIndex({}, {}),
        )

    @property
    def snapshot(self) -> EngineSnapshot:
        """The current engine snapshot (grab once, then read freely)."""
        return self._snapshot

    @property
    def kernel_uids(self) -> list[str]:
        """Every servable kernel uid, in catalogue order."""
        return list(self._kernels)

    # -- publishing (copy-on-write under the publish lock) ----------------

    def _publish(
        self,
        predictions: dict[str, KernelPrediction],
        tables: dict[str, CapSweepTable | None],
    ) -> None:
        """Swap in a snapshot; ``None`` tables (unservable) are dropped."""
        tables = {uid: t for uid, t in tables.items() if t is not None}
        snap = self._snapshot
        self._snapshot = EngineSnapshot(
            version=snap.version + 1,
            scheduler=self._scheduler,
            predictions=MappingProxyType(predictions),
            tables=MappingProxyType(tables),
            index=DecisionIndex(predictions, tables),
        )

    def _table(self, prediction: KernelPrediction) -> CapSweepTable | None:
        """The prediction's sweep table, or ``None`` if unservable."""
        try:
            return self._scheduler.sweep_table(prediction)
        except NoFeasibleConfigError:
            return None

    def warm(self, kernels: Iterable | None = None) -> dict[str, str]:
        """Sample, predict, and publish sweep tables for kernels.

        ``kernels`` may hold kernel objects or uids; default is the
        whole catalogue.  Already-warm kernels are skipped (their noise
        streams are counter-based, so warming is idempotent).  Returns
        ``{uid: error_code}`` for kernels that could not be made
        servable; servable ones are absent from the result.
        """
        if kernels is None:
            uids = list(self._kernels)
        else:
            uids = [getattr(k, "uid", k) for k in kernels]
        return self._ensure(uids)

    def _ensure(self, uids: Sequence[str]) -> dict[str, str]:
        """Make uids servable if possible; report the rest."""
        errors = {u: ERROR_UNKNOWN_KERNEL for u in uids if u not in self._kernels}
        snap = self._snapshot
        missing = [
            u
            for u in dict.fromkeys(uids)
            if u not in errors and u not in snap.predictions
        ]
        if missing:
            with self._publish_lock:
                snap = self._snapshot
                todo = [u for u in missing if u not in snap.predictions]
                if todo:
                    predictions = dict(snap.predictions)
                    tables = dict(snap.tables)
                    for uid in todo:
                        with trace_span("server/warm"):
                            try:
                                prediction = self._predictor.predict(
                                    self._kernels[uid]
                                )
                            except SampleRunError:
                                # The predictor degrades internally; a
                                # SampleRunError here means a pathological
                                # retry_limit=0 setup — still per-kernel.
                                errors[uid] = ERROR_SAMPLE_FAILED
                                continue
                            predictions[uid] = prediction
                            tables[uid] = self._table(prediction)
                    self._publish(predictions, tables)
        snap = self._snapshot
        for u in uids:
            if u not in errors and snap.infeasible(u):
                errors[u] = ERROR_NO_FEASIBLE_CONFIG
        return errors

    # -- quarantine management --------------------------------------------

    def quarantine(self, config: Configuration) -> None:
        """Quarantine a configuration and republish every sweep table."""
        with self._publish_lock:
            self._scheduler.quarantine(config)
            self._rebuild_tables()

    def clear_quarantine(self) -> None:
        """Re-admit quarantined configurations and republish tables."""
        with self._publish_lock:
            self._scheduler.clear_quarantine()
            self._rebuild_tables()

    def _rebuild_tables(self) -> None:
        """Rebuild all sweep tables against the scheduler's current
        quarantine state (call under the publish lock)."""
        predictions = dict(self._snapshot.predictions)
        self._publish(
            predictions, {u: self._table(p) for u, p in predictions.items()}
        )

    # -- serving -----------------------------------------------------------

    @staticmethod
    def _cap_valid(cap) -> bool:
        """The per-request cap rule: a finite real number above zero."""
        try:
            return math.isfinite(cap) and cap > 0
        except TypeError:
            return False

    def decide(self, request: DecisionRequest) -> DecisionResult:
        """Answer one request: a batch of one (:meth:`decide_batch`)."""
        return self.decide_batch([request])[0]

    def decide_batch(
        self, requests: Sequence[DecisionRequest]
    ) -> list[DecisionResult]:
        """Answer a coalesced batch in one array pass: one segmented
        engine lookup, one configuration gather, and every answer built
        as a tuple by one ``map``.

        Per-request failures (unknown kernel, invalid cap, no feasible
        configuration) degrade that request to an error result; the
        rest of the batch is answered normally.
        """
        requests = list(requests)
        with trace_span("server/batch"):
            _BATCHES.inc()
            _REQUESTS.inc(len(requests))
            _BATCH_SIZE.observe(float(len(requests)))
            uids = [r.kernel_uid for r in requests]
            caps = [r.power_cap_w for r in requests]
            valid = list(map(self._cap_valid, caps))
            errors = self._ensure(list(dict.fromkeys(compress(uids, valid))))
            codes = None
            if errors or not all(valid):
                codes = [
                    errors.get(uid) if ok else ERROR_INVALID_CAP
                    for uid, ok in zip(uids, valid)
                ]
                keep = [code is None for code in codes]
                uids = list(compress(uids, keep))
                caps = list(compress(caps, keep))
                _ERRORS.inc(len(requests) - len(uids))

            answers: Iterator[DecisionResult] = iter(())
            if uids:
                snap = self._snapshot
                batch = decide_batch(
                    snap.scheduler, snap.predictions, uids, caps, index=snap.index
                )
                answers = map(tuple.__new__, repeat(DecisionResult), zip(
                    uids,
                    caps,
                    batch.configs(),
                    batch.predicted_power_w.tolist(),
                    batch.predicted_performance.tolist(),
                    batch.feasible.tolist(),
                    repeat(None),
                ))
            if codes is None:
                return list(answers)
            # Answers come in request order, so each live slot takes the next.
            return [
                next(answers) if code is None else _error_result(r, code)
                for r, code in zip(requests, codes)
            ]


def build_default_service(
    *,
    seed: int = 0,
    scheduler: Scheduler | None = None,
    fault_plan=None,
    backend: str = "trinity",
) -> DecisionService:
    """Train a model on the full suite and wire a service over it.

    Training draws from the process-wide profile-once
    :class:`~repro.profiling.store.CharacterizationStore` (clean, never
    fault-injected); ``fault_plan`` — a
    :class:`~repro.faults.FaultPlan` or path to one — attaches to the
    *serving* machine only, so sampling degradation is exercised
    without corrupting the model, mirroring ``repro runtime``'s
    attach-after-training semantics.  ``backend`` selects the served
    machine from the backend registry
    (:func:`repro.hardware.backend.backend_names`); training happens
    natively on that machine.
    """
    from repro.hardware.backend import create_backend
    from repro.profiling.store import CharacterizationStore

    suite = build_suite()
    kernels = list(suite)
    store = CharacterizationStore.shared(suite, seed=seed, backend=backend)
    apu = create_backend(backend, seed=seed)
    model = AdaptiveModel.train(
        store.characterize(kernels),
        dissimilarity=store.dissimilarity_submatrix(kernels),
        config_space=apu.config_space,
    )
    if fault_plan is not None:
        from repro.faults import FaultPlan

        if isinstance(fault_plan, (str, bytes)) or hasattr(
            fault_plan, "__fspath__"
        ):
            fault_plan = FaultPlan.from_file(fault_plan)
        apu.inject_faults(fault_plan)
    library = ProfilingLibrary(apu, seed=seed)
    return DecisionService(
        model, library, kernels=kernels, scheduler=scheduler
    )
