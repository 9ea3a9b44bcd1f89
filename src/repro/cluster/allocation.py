"""Cluster-level power allocation policies, vectorized for fleet scale.

Given a global power budget and a :class:`~repro.cluster.pool.
FrontierPool` of node rate-vs-cap frontiers, :func:`allocate_pool`
splits the budget into per-node caps under one of three policies:

* ``"uniform"`` — the state of the practice: every node gets
  ``budget / n`` regardless of what it runs;
* ``"greedy"`` — frontier-aware water-filling: start every node at its
  lowest frontier point, then repeatedly grant the frontier step with
  the best marginal rate-per-watt until the budget is exhausted.  For
  concave frontiers this greedy is optimal for the *aggregate
  throughput* objective; for the mildly non-concave frontiers real
  kernels produce it is the standard near-optimal heuristic;
* ``"maxmin"`` — frontier-aware max-min fairness: repeatedly grant the
  next frontier step to the node with the lowest current predicted
  rate — the right objective when the cluster's figure of merit is
  *makespan* (every node must finish).

Every node first receives its floor (a node cannot be powered off); if
even the floors exceed the budget, they are scaled down proportionally
and all nodes run their floor configurations over-budget — the
least-bad outcome, reported honestly by :func:`pool_allocation_summary`.
The same call that splits 72 W over 4 nodes splits a datacenter budget
over 100k.  The engine:

* **greedy** — one global argsort of the steps' *exposure utility* (the
  running minimum of marginal rate-per-watt along each frontier, which
  provably reproduces the reference heap's pop order, name ties
  included), then a vectorized prefix-sum budget cut plus a short
  sequential boundary fix-up that replays the reference's
  drop-unaffordable-node rule from the cut point on;
* **maxmin** — the reference always lifts the node with the lowest
  current rate, and rates only grow, so the taken sequence is exactly
  all steps sorted by their *pre-step* rate: same cut + fix-up kernel,
  different sort key.  Whole cohorts of lowest-rate nodes are lifted by
  one prefix cut instead of one ``min()`` scan per step.

The cut and fix-up are *segmented*: :func:`allocate_batch` water-fills a
CSR batch of independent groups (:class:`~repro.cluster.pool.StepBatch`)
in one call, bit-identical to one call per group — a flat pool is one
group, and :class:`~repro.cluster.tree.BudgetTree` runs each level as one
batch.  Both orders are validated step-for-step against the pure-Python
heap and scan references kept in ``tests/allocation_reference.py`` —
bit-identical caps on the 4-node benchmark suite and on
Hypothesis-random frontiers.

This realizes the paper's framing that node-level predicted frontiers
are "a key ingredient" for cluster-level power management: the
allocator never runs a kernel — it only reads predictions.
"""

from __future__ import annotations

import math

import numpy as np

from repro.cluster.pool import FrontierPool, StepBatch
from repro.telemetry import counter, histogram, trace_span

__all__ = ["allocate_pool", "pool_allocation_summary"]

_ALLOC_CALLS = {
    policy: counter(f"cluster.alloc.calls.{policy}")
    for policy in ("uniform", "greedy", "maxmin")
}
_ALLOC_NODES = counter("cluster.alloc.nodes")
_ALLOC_STEPS = counter("cluster.alloc.steps_taken")
_ALLOC_FIXUP = counter("cluster.alloc.fixup_steps")
_ALLOC_FLOOR_SCALED = counter("cluster.alloc.floor_scaled")
_ALLOC_S = histogram("cluster.alloc.s")


def _check_budget(budget_w: float, n: int) -> None:
    if n == 0:
        raise ValueError("no nodes to allocate to")
    if not math.isfinite(budget_w):
        raise ValueError("budget_w must be finite")
    if budget_w <= 0:
        raise ValueError("budget_w must be positive")


# -- the segmented consumption kernel -----------------------------------------


def _consume_steps(
    batch: StepBatch, remaining: np.ndarray
) -> tuple[np.ndarray, int, int]:
    """Take frontier steps in each group's order until its budget is dry.

    ``remaining`` is each group's budget above its floors (``-inf`` for
    floor-scaled groups, which take nothing).  Returns ``(per-node
    taken-step counts, steps taken, fix-up rounds)``.  The bulk is one
    prefix-sum cut per group; the boundary fix-up then replays the
    reference semantics in rounds shared by all groups: every node whose
    next step is unaffordable is dropped (valid early: a group's budget
    only shrinks), then each group takes its earliest-ordered candidate.
    """
    sp, step_off, goff = batch.sp, batch.step_off, batch.goff
    n_steps = sp.size
    last = n_steps - 1
    # Each group's cut is searchsorted(cum_g, remaining_g, "right"), all
    # groups in one call: complex keys compare lexicographically, so the
    # (group, prefix sum) pairs never mix groups and never round a sum.
    query = np.arange(remaining.size) + 0j
    query.imag = remaining
    k = np.searchsorted(batch.cut_keys, query, side="right") - step_off[:-1]
    took = k > 0
    if took.any():
        remaining[took] -= batch.cum[step_off[:-1][took] + k[took] - 1]
    # Per-node view of per-group arrays; one group broadcasts as-is.
    ng = batch.node_group if remaining.size > 1 else slice(None)
    # Every node's first pending step (its position >= its group's cut)
    # from one searchsorted over the integer node-band keys; the steps
    # before it are exactly the ones the cut took.
    cut = step_off[:-1] + k
    start = np.searchsorted(batch.gkeys, cut[ng] + batch.node_band, side="left")
    counts = start - goff[:-1]
    steps = int(k.sum())
    fixup = 0
    pending = (k < np.diff(step_off)) & np.isfinite(remaining)
    if pending.any():
        exhausted = (start >= goff[1:]) | ~pending[ng]
        cand_pos = np.where(exhausted, n_steps, batch.grouped[np.minimum(start, last)])
        cand_power = np.where(exhausted, np.inf, sp[np.minimum(cand_pos, last)])
        cursor = start
        while True:
            fixup += 1
            drop = cand_power > remaining[ng]
            if drop.any():
                # Drop: exhaust every node whose next step is unaffordable.
                cand_pos = np.where(drop, n_steps, cand_pos)
                cand_power = np.where(drop, np.inf, cand_power)
            pos = np.minimum.reduceat(cand_pos, batch.node_off[:-1])
            live = pos < n_steps
            if not live.any():
                break
            pos = pos[live]
            remaining[live] -= sp[pos]
            j = batch.sn[pos]
            counts[j] += 1
            cursor[j] += 1
            more = cursor[j] < goff[j + 1]
            nxt = np.where(more, batch.grouped[np.minimum(cursor[j], last)], n_steps)
            cand_pos[j] = nxt
            cand_power[j] = np.where(more, sp[np.minimum(nxt, last)], np.inf)
            steps += pos.size
    return counts, steps, fixup


def allocate_batch(
    batch: StepBatch, budgets: np.ndarray, policy: str
) -> np.ndarray:
    """Split each group's budget across its nodes, all groups at once.

    Returns per-node caps in batch order, bit-identical to one
    :func:`allocate_pool` call per group (each group counts as one
    allocation in the ``cluster.alloc.*`` counters; ``fixup_steps``
    counts the batch's shared rounds).
    """
    budgets = np.asarray(budgets, dtype=np.float64)
    if not (np.all(np.isfinite(budgets)) and np.all(budgets > 0)):
        raise ValueError("budgets must be positive and finite")
    _ALLOC_CALLS[policy].inc(budgets.size)
    _ALLOC_NODES.inc(batch.node_group.size)
    with trace_span("cluster/allocate"), _ALLOC_S.time():
        if policy == "uniform":
            sizes = np.diff(batch.node_off)
            return np.repeat(budgets / sizes, sizes)
        scaled = batch.spent >= budgets
        remaining = np.where(scaled, -np.inf, budgets - batch.spent)
        counts, steps, fixup = _consume_steps(batch, remaining)
        _ALLOC_STEPS.inc(steps)
        _ALLOC_FIXUP.inc(fixup)
        caps = batch.caps[batch.floor_idx + counts]
        if scaled.any():
            # Floors cannot be met: scale them down proportionally.
            _ALLOC_FLOOR_SCALED.inc(int(np.count_nonzero(scaled)))
            on = np.nonzero(scaled[batch.node_group])[0]
            g = batch.node_group[on]
            caps[on] = batch.caps[batch.floor_idx[on]] * (budgets[g] / batch.spent[g])
        return caps


def allocate_pool(
    pool: FrontierPool, budget_w: float, policy: str = "greedy"
) -> np.ndarray:
    """Split ``budget_w`` across a pool's active nodes.

    The fleet-scale entry point: returns a caps array aligned with
    ``pool.active_names()``.  ``policy`` is ``"uniform"``, ``"greedy"``,
    or ``"maxmin"`` (see the module docstring).
    """
    _check_budget(budget_w, pool.n_active)
    if policy not in ("uniform", "greedy", "maxmin"):
        raise ValueError(f"unknown allocation policy {policy!r}")
    return allocate_batch(pool.view().step_batch(policy), np.array([budget_w]), policy)


def pool_allocation_summary(
    pool: FrontierPool, caps_w: np.ndarray, budget_w: float
) -> dict[str, float]:
    """Predicted cluster outcome of an allocation over a pool's active
    nodes: aggregate predicted rate (sum over nodes), predicted power,
    budget, and slack (one batched ``at_caps``)."""
    _, powers, rates = pool.at_caps(caps_w)
    return {
        "predicted_rate": float(rates.sum()),
        "predicted_power_w": float(powers.sum()),
        "budget_w": budget_w,
        "slack_w": budget_w - float(np.sum(caps_w)),
    }
