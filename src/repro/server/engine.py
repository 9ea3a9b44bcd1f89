"""The pure batched decision kernel shared by server and harness.

:func:`decide_batch` is the single selection path for heterogeneous
``(kernel, cap)`` request batches.  A :class:`DecisionIndex` stacks the
kernels' :class:`~repro.core.frontier.CapSweepTable` segments into one
table, so a batch of any size and kernel mix costs the same fixed
sequence of array operations: encode uids to segments, one segmented
lookup, one gather of the predicted power/performance, returned as a
structure-of-arrays :class:`BatchDecisions` whose global rows also
gather the chosen configurations from the index's flat tuple.  The
decision server publishes one index per engine snapshot; other callers
(the LOOCV harness via
:meth:`repro.methods.model_method.ModelMethod.decide_many`, tests,
benchmarks) stack the batch's tables on the fly.  Both paths
run the same lookup, so the server's answers are bit-identical to the
evaluation's by construction.

Telemetry mirrors ``Scheduler.select_many`` exactly: the whole batch
runs under one ``online/select`` span and counters update in bulk
(``scheduler.selections`` once per request,
``scheduler.infeasible_fallbacks`` for the subset of caps no
configuration was predicted to meet).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Mapping, Sequence

import numpy as np

from repro.core.frontier import CapSweepTable
from repro.core.predictor import KernelPrediction
from repro.core.scheduler import Scheduler
from repro.core.scheduler import require_positive_caps
from repro.hardware.config import Configuration
from repro.telemetry import counter, trace_span

__all__ = ["BatchDecisions", "DecisionIndex", "DecisionRequest", "decide_batch"]

# Same counter objects as core.scheduler (the registry returns one
# object per name), so engine-path decisions land in the same totals.
_SELECTIONS = counter("scheduler.selections")
_FALLBACKS = counter("scheduler.infeasible_fallbacks")


@dataclass(slots=True, unsafe_hash=True)
class DecisionRequest:
    """One decision request: which kernel, under what cap."""

    kernel_uid: str
    power_cap_w: float


@dataclass(slots=True, eq=False)
class BatchDecisions:
    """Structure-of-arrays result of :func:`decide_batch`.

    Parallel to the request arrays: ``config_index[i]`` is the chosen
    configuration's index in kernel ``kernel_uids[i]``'s prediction and
    ``at[i]`` its global row in the stacked index, from which the
    predicted power/performance were gathered and ``stacked_configs``
    gathers the :class:`Configuration` on demand: :meth:`configs` for
    every request in one gather, :meth:`config` for one.
    """

    kernel_uids: Sequence[str]
    power_caps_w: np.ndarray
    config_index: np.ndarray
    feasible: np.ndarray
    predicted_power_w: np.ndarray
    predicted_performance: np.ndarray
    at: np.ndarray
    stacked_configs: Sequence[Configuration]

    def __len__(self) -> int:
        return self.config_index.size

    def config(self, i: int) -> Configuration:
        """The selected configuration for request ``i``."""
        return self.stacked_configs[self.at[i]]

    def configs(self) -> list[Configuration]:
        """All selected configurations, in request order (one gather)."""
        return list(map(self.stacked_configs.__getitem__, self.at.tolist()))


class DecisionIndex:
    """Sweep tables of many kernels stacked for one-pass lookups.

    ``segment_of`` maps a kernel uid to its segment of ``table``, whose
    ``offsets`` also locate each segment's configurations in the
    concatenated ``power_w`` / ``performance`` predictions and in the
    flat ``configs`` tuple.
    """

    __slots__ = ("table", "segment_of", "power_w", "performance", "configs")

    def __init__(
        self,
        predictions: Mapping[str, KernelPrediction],
        tables: Mapping[str, CapSweepTable],
    ) -> None:
        self.table = CapSweepTable.stack(list(tables.values()))
        self.segment_of = {uid: s for s, uid in enumerate(tables)}
        picked = [predictions[uid] for uid in tables]
        self.power_w = np.concatenate(
            [np.empty(0), *(p.power_array for p in picked)]
        )
        self.performance = np.concatenate(
            [np.empty(0), *(p.performance_array for p in picked)]
        )
        self.configs = tuple(chain.from_iterable(p.config_tuple for p in picked))


def _batch_index(
    scheduler: Scheduler,
    predictions: Mapping[str, KernelPrediction],
    uids: Sequence[str],
    tables: Mapping[str, CapSweepTable] | None,
    **settings,
) -> DecisionIndex:
    """Index the batch's distinct kernels, taking memoized tables from
    ``tables`` and building the rest with ``scheduler``."""
    memo = tables or {}
    return DecisionIndex(predictions, {
        uid: memo.get(uid) or scheduler.sweep_table(predictions[uid], **settings)
        for uid in dict.fromkeys(uids)
    })


def decide_batch(
    scheduler: Scheduler,
    predictions: Mapping[str, KernelPrediction],
    kernel_uids: Sequence[str] | np.ndarray,
    power_caps_w: Sequence[float] | np.ndarray,
    *,
    tables: Mapping[str, CapSweepTable] | None = None,
    index: DecisionIndex | None = None,
    risk_margin: float | None = None,
    risk_averse: bool = False,
    confidence_z: float = 1.0,
) -> BatchDecisions:
    """Answer a heterogeneous ``(kernel, cap)`` batch in one sweep.

    Parameters
    ----------
    scheduler:
        Selection policy; used to build sweep tables for kernels not
        already covered by ``tables``.
    predictions:
        Whole-space prediction per kernel uid.  Every uid appearing in
        ``kernel_uids`` must be present (:class:`KeyError` otherwise —
        the server resolves unknown kernels to per-request errors
        *before* calling this).
    kernel_uids, power_caps_w:
        Parallel request arrays.  Caps must be positive (NaN is
        rejected like any other non-positive cap).
    tables:
        Optional memoized :class:`CapSweepTable` per uid; missing
        entries are built on the fly.
    index:
        A prebuilt :class:`DecisionIndex` covering every requested uid
        (the server's snapshot provides one); ``tables`` and the risk
        settings are then unused.

    Returns
    -------
    BatchDecisions
        Results in request order, element-identical to calling
        ``scheduler.select(predictions[uid], cap)`` per request.
    """
    caps = np.asarray(power_caps_w, dtype=np.float64)
    if isinstance(kernel_uids, np.ndarray):
        uids: Sequence[str] = kernel_uids.tolist()
    else:
        uids = list(kernel_uids)
    if caps.ndim != 1 or len(uids) != caps.size:
        raise ValueError(
            "kernel_uids and power_caps_w must be parallel 1-d sequences"
        )
    require_positive_caps(caps)

    with trace_span("online/select"):
        n = caps.size
        try:
            if index is None:
                index = _batch_index(
                    scheduler, predictions, uids, tables,
                    risk_margin=risk_margin,
                    risk_averse=risk_averse,
                    confidence_z=confidence_z,
                )
            segments = np.fromiter(
                map(index.segment_of.__getitem__, uids), dtype=np.intp, count=n
            )
        except KeyError as exc:
            raise KeyError(
                f"no prediction for kernel uid {exc.args[0]!r}"
            ) from None
        config_index, feasible = index.table.lookup(caps, segments)
        at = index.table.offsets[segments] + config_index

        _SELECTIONS.inc(n)
        infeasible = n - int(np.count_nonzero(feasible))
        if infeasible:
            _FALLBACKS.inc(infeasible)

    return BatchDecisions(
        kernel_uids=uids,
        power_caps_w=caps,
        config_index=config_index,
        feasible=feasible,
        predicted_power_w=index.power_w[at],
        predicted_performance=index.performance[at],
        at=at,
        stacked_configs=index.configs,
    )
