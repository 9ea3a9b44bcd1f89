"""Under-/over-limit metrics, weighted the paper's way.

Table III reports five columns per method: % of cases under the limit;
performance and power vs the oracle in under-limit cases; power and
performance vs the oracle in over-limit cases.  "The values in our
method comparisons are averaged across all kernels that compose each
benchmark, weighted by how much of the benchmark time is spent in each
kernel" (Section V-D).

Aggregation therefore happens in two stages: first a per-kernel mean
over that kernel's caps, then a time-weighted mean over kernels.  For
the conditional columns (under-/over-limit subsets), kernels with no
cases in the subset are excluded and weights renormalized; a column
with no cases anywhere is NaN.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.evaluation.harness import CapEvaluation

__all__ = ["MethodSummary", "summarize", "summarize_by_group"]


@dataclass(frozen=True)
class MethodSummary:
    """Table III's row for one method (ratios as percentages).

    Attributes
    ----------
    method:
        Method name.
    pct_under_limit:
        Percentage of evaluated caps the method's true power respected.
    under_perf_pct, under_power_pct:
        Performance / power vs the oracle in under-limit cases (%).
    over_power_pct, over_perf_pct:
        Power / performance vs the oracle in over-limit cases (%).
    n_cases:
        Number of (kernel, cap) records aggregated.
    """

    method: str
    pct_under_limit: float
    under_perf_pct: float
    under_power_pct: float
    over_power_pct: float
    over_perf_pct: float
    n_cases: int


def _weighted_kernel_mean(
    per_kernel: dict[str, tuple[float, float]],
) -> float:
    """Weighted mean of per-kernel values given {uid: (value, weight)}."""
    total_w = sum(w for _, w in per_kernel.values())
    if total_w == 0:
        return float("nan")
    return sum(v * w for v, w in per_kernel.values()) / total_w


def _aggregate(
    records: Sequence[CapEvaluation],
    value,
    predicate=None,
) -> float:
    """Two-stage aggregate: per-kernel mean over (optionally filtered)
    caps, then time-weighted mean over kernels."""
    per_kernel: dict[str, tuple[float, float]] = {}
    by_kernel: dict[str, list[CapEvaluation]] = {}
    for r in records:
        by_kernel.setdefault(r.kernel_uid, []).append(r)
    for uid, recs in by_kernel.items():
        selected = [r for r in recs if predicate is None or predicate(r)]
        if not selected:
            continue
        mean = sum(value(r) for r in selected) / len(selected)
        per_kernel[uid] = (mean, recs[0].time_weight)
    if not per_kernel:
        return float("nan")
    return _weighted_kernel_mean(per_kernel)


def summarize(
    records: Iterable[CapEvaluation],
    *,
    method: str | None = None,
) -> list[MethodSummary]:
    """Summaries for each method present in ``records`` (or just one).

    Returns summaries sorted by method name for determinism.
    """
    records = list(records)
    methods = (
        [method]
        if method is not None
        else sorted({r.method for r in records})
    )
    out: list[MethodSummary] = []
    for name in methods:
        recs = [r for r in records if r.method == name]
        if not recs:
            raise ValueError(f"no records for method {name!r}")
        out.append(
            MethodSummary(
                method=name,
                pct_under_limit=100.0
                * _aggregate(recs, lambda r: 1.0 if r.under_limit else 0.0),
                under_perf_pct=100.0
                * _aggregate(
                    recs, lambda r: r.perf_vs_oracle, lambda r: r.under_limit
                ),
                under_power_pct=100.0
                * _aggregate(
                    recs, lambda r: r.power_vs_oracle, lambda r: r.under_limit
                ),
                over_power_pct=100.0
                * _aggregate(
                    recs, lambda r: r.power_vs_oracle, lambda r: not r.under_limit
                ),
                over_perf_pct=100.0
                * _aggregate(
                    recs, lambda r: r.perf_vs_oracle, lambda r: not r.under_limit
                ),
                n_cases=len(recs),
            )
        )
    return out


def summarize_by_group(
    records: Iterable[CapEvaluation],
) -> dict[str, list[MethodSummary]]:
    """Per benchmark/input group summaries (the by-benchmark figures).

    Group order follows first appearance in ``records``.
    """
    records = list(records)
    groups: list[str] = []
    for r in records:
        if r.group not in groups:
            groups.append(r.group)
    return {
        g: summarize([r for r in records if r.group == g]) for g in groups
    }
