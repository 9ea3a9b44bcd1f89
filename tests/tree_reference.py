"""Per-level reference for :meth:`repro.cluster.tree.BudgetTree.allocate`.

The tree runs its row and rack levels as one segmented kernel call
each.  This module keeps the loop those calls replaced — one
:func:`~repro.cluster.allocation.allocate_pool` per row and per rack,
node caps scattered back by name — as the oracle the batched tree must
reproduce bit for bit: same caps, same rack budgets, and the same
``cluster.alloc.*`` counter deltas (every group is one allocation).
"""

from __future__ import annotations

import math

import numpy as np

from repro.cluster.allocation import allocate_pool


def reference_allocate(
    tree, budget_w: float, policy: str = "greedy"
) -> tuple[np.ndarray, dict[str, float]]:
    """``tree.allocate(budget_w, policy)`` one group at a time.

    Returns ``(caps, rack_budgets)``: caps aligned with
    ``tree.pool.active_names()`` and the rack budgets the tree reports
    as ``last_rack_budgets``.
    """
    if not (math.isfinite(budget_w) and budget_w > 0):
        raise ValueError("budget_w must be positive and finite")
    tree._ensure_structure()
    row_budgets = allocate_pool(tree._row_pool, budget_w, policy)
    rack_budget: dict[str, float] = {}
    for rack_pool, row_b in zip(tree._row_rack_pools.values(), row_budgets.tolist()):
        shares = allocate_pool(rack_pool, row_b, policy)
        for rack, share in zip(rack_pool.active_names(), shares.tolist()):
            rack_budget[rack] = share
    active_index = {name: i for i, name in enumerate(tree.pool.active_names())}
    out = np.empty(len(active_index))
    for rack, members in tree._rack_members.items():
        caps = allocate_pool(tree._rack_subpool[rack], rack_budget[rack], policy)
        for name, cap in zip(members, caps.tolist()):
            out[active_index[name]] = cap
    return out, rack_budget
