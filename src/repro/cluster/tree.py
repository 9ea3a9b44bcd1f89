"""Hierarchical budget splitting: node → rack → row → datacenter.

A real fleet does not hand one flat budget to 100k nodes — power
constraints "filter down from the system level to individual nodes"
(the paper's framing) through the physical distribution hierarchy:
the datacenter feed splits over rows, each row over its racks, each
rack over its nodes.  :class:`BudgetTree` models exactly that topology
on top of a :class:`~repro.cluster.pool.FrontierPool`, reusing the
vectorized allocation kernel at every level:

* each **rack** is summarized by an *aggregate frontier*: its members'
  floors summed, plus their marginal steps merged in best-first
  (exposure-utility) order — "if this rack's budget were b, what total
  rate would it sustain?";
* each **row** aggregates its racks the same way (merging already-
  sorted rack menus keeps the global utility order);
* :meth:`BudgetTree.allocate` then runs the requested policy top-down:
  datacenter budget over row aggregates, each row's share over its
  rack aggregates, each rack's share over its member nodes — the last
  two levels as one segmented kernel call each, over every row (rack)
  at once.

Aggregates are cached per rack and keyed by the rack's active-member
set, so dynamic membership (nodes leaving or rejoining the pool)
rebuilds only the touched racks — the untouched fleet's sorted menus
are reused as-is.
"""

from __future__ import annotations

import math
from typing import Mapping

import numpy as np

from repro.cluster.allocation import allocate_batch, allocate_pool
from repro.cluster.pool import FrontierPool, StepBatch, step_batch
from repro.telemetry import counter, trace_span

__all__ = ["BudgetTree"]

_TREE_CALLS = counter("cluster.alloc.tree.calls")
_TREE_RACK_REBUILDS = counter("cluster.alloc.tree.rack_rebuilds")


def _aggregate_frontier(
    subpool: FrontierPool,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Collapse a subpool into one aggregate frontier.

    Returns ``(caps, rates, powers)`` arrays: point 0 is the summed
    floors, and each further point takes one more member step in the
    greedy exposure-utility order — the menu the parent level
    water-fills over.
    """
    view = subpool.view()
    floor_idx = view.offsets[:-1]
    base_cap = float(np.sum(view.caps[floor_idx]))
    base_rate = float(np.sum(view.rates[floor_idx]))
    base_power = float(np.sum(view.powers[floor_idx]))
    perm, sp, _sn, cum, *_ = view.order_bundle("greedy")
    # Rate and expected-power deltas per step, in the same node-major
    # step order the bundle's ``perm`` indexes.
    intra = np.ones(view.caps.size, dtype=bool)
    intra[floor_idx] = False
    idx = np.nonzero(intra)[0]
    drate = (view.rates[idx] - view.rates[idx - 1])[perm]
    dpower = (view.powers[idx] - view.powers[idx - 1])[perm]
    caps = base_cap + np.concatenate(([0.0], cum))
    rates = base_rate + np.concatenate(([0.0], np.cumsum(drate)))
    powers = base_power + np.concatenate(([0.0], np.cumsum(dpower)))
    return caps, rates, powers


def _pool_of_aggregates(
    names: list[str],
    aggregates: Mapping[str, tuple[np.ndarray, np.ndarray, np.ndarray]],
) -> FrontierPool:
    """Pack per-group aggregate frontiers into a pool of their own."""
    caps = [aggregates[n][0] for n in names]
    rates = [aggregates[n][1] for n in names]
    powers = [aggregates[n][2] for n in names]
    offsets = np.concatenate(
        ([0], np.cumsum([c.size for c in caps]))
    ).astype(np.int64)
    return FrontierPool(
        names,
        np.concatenate(caps),
        np.concatenate(rates),
        np.concatenate(powers),
        offsets,
    )


class BudgetTree:
    """Top-down budget splitter over a fleet's physical hierarchy.

    Parameters
    ----------
    pool:
        The fleet's frontier pool (shared, not copied — membership
        changes on the pool are picked up on the next allocation).
    rack_of:
        Node name → rack name for every node in the pool.
    row_of:
        Rack name → row name for every rack named in ``rack_of``.
    """

    def __init__(
        self,
        pool: FrontierPool,
        rack_of: Mapping[str, str],
        row_of: Mapping[str, str],
    ) -> None:
        missing = [n for n in pool.active_names() if n not in rack_of]
        if missing:
            raise ValueError(f"nodes without a rack: {missing[:5]}")
        missing_rows = sorted(
            {r for r in rack_of.values() if r not in row_of}
        )
        if missing_rows:
            raise ValueError(f"racks without a row: {missing_rows[:5]}")
        self.pool = pool
        self._rack_of = dict(rack_of)
        self._row_of = dict(row_of)
        # Per-rack caches keyed by the rack's active-member tuple.
        self._rack_members: dict[str, tuple[str, ...]] = {}
        self._rack_subpool: dict[str, FrontierPool] = {}
        self._rack_aggregate: dict[str, tuple[np.ndarray, ...]] = {}
        self._row_pool: FrontierPool | None = None
        self._row_rack_pools: dict[str, FrontierPool] = {}
        self._rack_pos: dict[str, int] = {}
        self._level_batches: dict[tuple[str, str], StepBatch] = {}
        self._out_index = np.empty(0, dtype=np.int64)
        self._built_version = -1
        self.last_rack_budgets: dict[str, float] = {}

    @classmethod
    def regular(
        cls,
        pool: FrontierPool,
        *,
        rack_size: int = 32,
        racks_per_row: int = 8,
    ) -> "BudgetTree":
        """A uniform topology over the pool's nodes in insertion order:
        ``rack_size`` nodes per rack, ``racks_per_row`` racks per row."""
        if rack_size < 1 or racks_per_row < 1:
            raise ValueError("rack_size and racks_per_row must be >= 1")
        rack_of: dict[str, str] = {}
        row_of: dict[str, str] = {}
        for i, name in enumerate(pool.active_names()):
            rack = i // rack_size
            rack_name = f"rack{rack:06d}"
            rack_of[name] = rack_name
            row_of[rack_name] = f"row{rack // racks_per_row:04d}"
        return cls(pool, rack_of, row_of)

    # -- structure ----------------------------------------------------------

    def _ensure_structure(self) -> None:
        """Rebuild the aggregate menus of racks whose active membership
        changed since the last allocation (and only those)."""
        if self._built_version == self.pool.version:
            return
        members: dict[str, list[str]] = {}
        rack_order: list[str] = []
        for name in self.pool.active_names():
            rack = self._rack_of.get(name)
            if rack is None:
                raise ValueError(f"node {name!r} has no rack assignment")
            if rack not in members:
                members[rack] = []
                rack_order.append(rack)
            members[rack].append(name)
        if not members:
            raise ValueError("no active nodes in the tree")
        rebuilt = 0
        for rack in rack_order:
            tup = tuple(members[rack])
            if self._rack_members.get(rack) == tup:
                continue
            subpool = self.pool.subpool(tup)
            self._rack_members[rack] = tup
            self._rack_subpool[rack] = subpool
            self._rack_aggregate[rack] = _aggregate_frontier(subpool)
            rebuilt += 1
        _TREE_RACK_REBUILDS.inc(rebuilt)
        # Drop racks that lost all members.
        for rack in list(self._rack_members):
            if rack not in members:
                del self._rack_members[rack]
                del self._rack_subpool[rack]
                del self._rack_aggregate[rack]
        row_racks: dict[str, list[str]] = {}
        for rack in rack_order:
            row_racks.setdefault(self._row_of[rack], []).append(rack)
        # One pool of rack aggregates per row (the row's split menu) and
        # one pool of row aggregates (the datacenter's split menu).
        self._row_rack_pools = {
            row: _pool_of_aggregates(racks, self._rack_aggregate)
            for row, racks in row_racks.items()
        }
        row_aggregates = {
            row: _aggregate_frontier(rack_pool)
            for row, rack_pool in self._row_rack_pools.items()
        }
        self._row_pool = _pool_of_aggregates(list(row_racks), row_aggregates)
        # The two segmented levels share one row-major rack order: row
        # g's racks are group g of the row level, and each rack is one
        # group of the rack level.
        self._rack_pos = {
            rack: i
            for i, rack in enumerate(r for racks in row_racks.values() for r in racks)
        }
        self._level_batches = {}
        index = {name: i for i, name in enumerate(self.pool.active_names())}
        self._out_index = np.array(
            [index[n] for rack in self._rack_pos for n in self._rack_members[rack]],
            dtype=np.int64,
        )
        self._built_version = self.pool.version

    def _batch(self, level: str, policy: str) -> StepBatch:
        """The ``"row"`` level (rows over rack aggregates) or ``"rack"``
        level (racks over nodes) as one segmented batch, built once per
        policy and membership version from the cached per-group pools."""
        batch = self._level_batches.get((level, policy))
        if batch is None:
            pools = self._row_rack_pools.values() if level == "row" else (
                self._rack_subpool[rack] for rack in self._rack_pos
            )
            batch = step_batch([p.view() for p in pools], policy)
            self._level_batches[(level, policy)] = batch
        return batch

    # -- allocation ---------------------------------------------------------

    def allocate(self, budget_w: float, policy: str = "greedy") -> np.ndarray:
        """Split a datacenter budget down the hierarchy.

        Returns per-node caps aligned with ``pool.active_names()``.  The
        datacenter-over-rows split is one
        :func:`~repro.cluster.allocation.allocate_pool` call; the row
        and rack levels are one segmented kernel call each, bit-identical
        to one ``allocate_pool`` per row and per rack.  A level's slack
        (budget its children's frontiers cannot absorb) simply stays
        unspent, as in the flat allocator.
        """
        if not (math.isfinite(budget_w) and budget_w > 0):
            raise ValueError("budget_w must be positive and finite")
        _TREE_CALLS.inc()
        with trace_span("cluster/tree_allocate"):
            self._ensure_structure()
            assert self._row_pool is not None
            row_budgets = allocate_pool(self._row_pool, budget_w, policy)
            rack_budgets = allocate_batch(self._batch("row", policy), row_budgets, policy)
            self.last_rack_budgets = dict(zip(self._rack_pos, rack_budgets.tolist()))
            out = np.empty(self._out_index.size)
            out[self._out_index] = allocate_batch(self._batch("rack", policy), rack_budgets, policy)
            return out
