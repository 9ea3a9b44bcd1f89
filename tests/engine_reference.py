"""Grouped reference for :func:`repro.server.engine.decide_batch`.

The engine answers a batch with one segmented lookup over stacked
sweep tables.  This module keeps the path that lookup replaced — group
the requests by kernel with :func:`numpy.unique`, answer each group
with its own table's binary search, scatter the answers back into
request order — as the oracle the engine must reproduce element for
element.  :func:`reference_lookup` is the one-table search itself,
written against the table's arrays so it shares no code with
:meth:`repro.core.frontier.CapSweepTable.lookup`, and
:func:`reference_fallback` works out the infeasible-cap fallback from
the prediction, scalar by scalar, instead of reading the table's own.
"""

from __future__ import annotations

import math

import numpy as np

from repro.server.engine import BatchDecisions


def reference_lookup(table, caps, fallback=None) -> tuple[np.ndarray, np.ndarray]:
    """``(config_index, feasible)`` for caps against a one-segment
    table: one binary search over its sorted thresholds.  Infeasible
    caps take ``fallback`` (default: the table's own)."""
    caps = np.asarray(caps, dtype=np.float64)
    cut = np.searchsorted(
        table.sorted_power_w, caps * table.cap_scale[0], side="right"
    )
    feasible = cut > 0
    index = table.best_at[np.maximum(cut, 1) - 1]
    if fallback is None:
        fallback = table.fallback_index[0]
    index = np.where(feasible, index, fallback)
    return index.astype(np.intp), feasible


def reference_fallback(
    prediction, *, quarantined=(), strict=False, risk_averse=False, confidence_z=1.0
) -> int:
    """The configuration an infeasible cap falls back to: the lowest
    non-NaN bounded power, the first on ties.  Quarantined
    configurations count as infinite power unless all of them are
    quarantined and ``strict`` is off."""
    power = prediction.power_array.tolist()
    if risk_averse:
        std = prediction.power_std_array.tolist()
        power = [
            p if math.isnan(s) else p + confidence_z * s for p, s in zip(power, std)
        ]
    held = [cfg in quarantined for cfg in prediction.config_tuple]
    if any(held) and (strict or not all(held)):
        power = [math.inf if h else p for p, h in zip(power, held)]
    best = None
    for i, p in enumerate(power):
        if not math.isnan(p) and (best is None or p < power[best]):
            best = i
    return best


def reference_decide_batch(
    scheduler,
    predictions,
    kernel_uids,
    power_caps_w,
    *,
    tables=None,
    risk_margin=None,
    risk_averse=False,
    confidence_z=1.0,
) -> BatchDecisions:
    """``decide_batch`` one kernel group at a time."""
    caps = np.asarray(power_caps_w, dtype=np.float64)
    uids = list(kernel_uids)
    if caps.ndim != 1 or len(uids) != caps.size:
        raise ValueError(
            "kernel_uids and power_caps_w must be parallel 1-d sequences"
        )
    if not (caps > 0).all():
        raise ValueError("power_cap_w must be positive")
    n = caps.size
    index = np.empty(n, dtype=np.intp)
    feasible = np.empty(n, dtype=bool)
    power = np.empty(n, dtype=np.float64)
    perf = np.empty(n, dtype=np.float64)
    at = np.empty(n, dtype=np.intp)

    code_of = {uid: code for code, uid in enumerate(predictions)}
    try:
        codes = np.fromiter((code_of[u] for u in uids), dtype=np.int64, count=n)
    except KeyError as exc:
        raise KeyError(f"no prediction for kernel uid {exc.args[0]!r}") from None
    names = list(predictions)
    stacked = tuple(c for p in predictions.values() for c in p.config_tuple)
    sizes = [len(p.config_tuple) for p in predictions.values()]
    first_row = np.concatenate(([0], np.cumsum(sizes)))
    unique_codes, inverse = np.unique(codes, return_inverse=True)
    order = np.argsort(inverse, kind="stable")
    starts = np.searchsorted(inverse[order], np.arange(unique_codes.size))
    ends = np.append(starts[1:], n)
    for g in range(unique_codes.size):
        rows = order[starts[g]:ends[g]]
        uid = names[int(unique_codes[g])]
        prediction = predictions[uid]
        table = tables.get(uid) if tables is not None else None
        if table is None:
            table = scheduler.sweep_table(
                prediction,
                risk_margin=risk_margin,
                risk_averse=risk_averse,
                confidence_z=confidence_z,
            )
        fallback = reference_fallback(
            prediction,
            quarantined=scheduler.quarantined,
            strict=scheduler.strict_quarantine,
            risk_averse=risk_averse,
            confidence_z=confidence_z,
        )
        g_index, g_feasible = reference_lookup(table, caps[rows], fallback)
        index[rows] = g_index
        at[rows] = first_row[unique_codes[g]] + g_index
        feasible[rows] = g_feasible
        power[rows] = prediction.power_array[g_index]
        perf[rows] = prediction.performance_array[g_index]

    return BatchDecisions(
        kernel_uids=uids,
        power_caps_w=caps,
        config_index=index,
        feasible=feasible,
        predicted_power_w=power,
        predicted_performance=perf,
        at=at,
        stacked_configs=stacked,
    )


def assert_same_decisions(got: BatchDecisions, want: BatchDecisions) -> None:
    """Element-equal batches (NaN predictions compare equal)."""
    assert list(got.kernel_uids) == list(want.kernel_uids)
    assert np.array_equal(got.config_index, want.config_index)
    assert got.configs() == want.configs()
    assert np.array_equal(got.feasible, want.feasible)
    assert np.array_equal(
        got.predicted_power_w, want.predicted_power_w, equal_nan=True
    )
    assert np.array_equal(
        got.predicted_performance, want.predicted_performance, equal_nan=True
    )
