"""Pure-Python references for :mod:`repro.cluster.allocation`.

The vectorized water-filling kernels replaced these implementations;
they are kept verbatim as the oracle the kernels must reproduce step for
step (the tests pin bit-identical caps) and as the baseline the
allocation scale benchmark measures its speedup against.  The per-node
feasibility scan is the oracle for
:meth:`~repro.cluster.pool.FrontierPool.at_caps`.
"""

from __future__ import annotations

import heapq
from typing import Mapping

from repro.cluster.allocation import _check_budget, allocate_pool
from repro.cluster.node import NodeFrontier, NodeFrontierPoint
from repro.cluster.pool import FrontierPool
from repro.constants import respects_cap

__all__ = [
    "allocate_by_name",
    "at_cap_reference",
    "frontier_steps",
    "greedy_marginal_allocation_reference",
    "maxmin_allocation_reference",
]


def allocate_by_name(
    budget_w: float, frontiers: Mapping[str, NodeFrontier], policy: str
) -> dict[str, float]:
    """The engine side of the comparisons: :func:`allocate_pool` over the
    frontiers, caps keyed by node name like the references'."""
    caps = allocate_pool(FrontierPool.from_frontiers(frontiers), budget_w, policy)
    return dict(zip(frontiers, caps.tolist()))


def at_cap_reference(frontier: NodeFrontier, cap_w: float) -> NodeFrontierPoint:
    """The last point whose cap respects ``cap_w`` (one linear scan),
    else the floor: a node cannot turn off, and a NaN cap admits
    nothing."""
    best = frontier.points[0]
    for p in frontier.points:
        if respects_cap(p.cap_w, cap_w):
            best = p
    return best


def frontier_steps(frontier: NodeFrontier) -> list[tuple[float, float, float]]:
    """Successive frontier increments as ``(extra_power_w, extra_rate,
    cap_w)`` triples — the allocator's marginal menu."""
    pts = frontier.points
    return [(b.cap_w - a.cap_w, b.rate - a.rate, b.cap_w) for a, b in zip(pts, pts[1:])]


def greedy_marginal_allocation_reference(
    budget_w: float, frontiers: Mapping[str, NodeFrontier]
) -> dict[str, float]:
    """Heap-based water-filling (pure Python, one pop per step)."""
    _check_budget(budget_w, len(frontiers))
    caps = {name: f.min_cap_w for name, f in frontiers.items()}
    spent = sum(caps.values())
    if spent >= budget_w:
        scale = budget_w / spent
        return {name: cap * scale for name, cap in caps.items()}

    # Per-node iterator over frontier steps, consumed in global
    # best-marginal order via a heap.  Steps within one node must be
    # taken in order (caps only grow), which the per-node cursor
    # guarantees.
    step_lists = {name: frontier_steps(f) for name, f in frontiers.items()}
    cursors = {name: 0 for name in frontiers}
    heap: list[tuple[float, str]] = []

    def push(name: str) -> None:
        i = cursors[name]
        steps = step_lists[name]
        if i < len(steps):
            extra_power, extra_rate, _ = steps[i]
            if extra_power <= 0:
                # Degenerate zero-cost step: take it immediately.
                cursors[name] += 1
                caps[name] = steps[i][2]
                push(name)
                return
            heapq.heappush(heap, (-extra_rate / extra_power, name))

    for name in frontiers:
        push(name)

    remaining = budget_w - spent
    while heap:
        neg_utility, name = heapq.heappop(heap)
        i = cursors[name]
        extra_power, extra_rate, new_cap = step_lists[name][i]
        if extra_power > remaining:
            continue  # cannot afford this node's next step; try others
        remaining -= extra_power
        caps[name] = new_cap
        cursors[name] += 1
        push(name)
    return caps


def maxmin_allocation_reference(
    budget_w: float, frontiers: Mapping[str, NodeFrontier]
) -> dict[str, float]:
    """Scan-based max-min (pure Python, one ``min()`` per step)."""
    _check_budget(budget_w, len(frontiers))
    caps = {name: f.min_cap_w for name, f in frontiers.items()}
    spent = sum(caps.values())
    if spent >= budget_w:
        scale = budget_w / spent
        return {name: cap * scale for name, cap in caps.items()}

    step_lists = {name: frontier_steps(f) for name, f in frontiers.items()}
    cursors = {name: 0 for name in frontiers}
    rates = {name: f.points[0].rate for name, f in frontiers.items()}
    remaining = budget_w - spent
    # Nodes whose next step is unaffordable or exhausted drop out.
    active = set(frontiers)
    while active:
        name = min(active, key=lambda n: (rates[n], n))
        i = cursors[name]
        steps = step_lists[name]
        if i >= len(steps):
            active.discard(name)
            continue
        extra_power, extra_rate, new_cap = steps[i]
        if extra_power > remaining:
            active.discard(name)
            continue
        remaining -= extra_power
        caps[name] = new_cap
        rates[name] += extra_rate
        cursors[name] += 1
    return caps
