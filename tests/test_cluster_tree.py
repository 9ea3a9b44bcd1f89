"""The batched :class:`BudgetTree` against its per-level oracle
(``tests/tree_reference.py``), plus the tree's shift and budget rules."""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import BudgetTree, FrontierPool, NodeFrontier, NodeFrontierPoint
from repro.telemetry import counter
from tests.tree_reference import reference_allocate

_COUNTERS = [f"cluster.alloc.calls.{p}" for p in ("uniform", "greedy", "maxmin")] + [
    "cluster.alloc.nodes",
    "cluster.alloc.steps_taken",
    "cluster.alloc.floor_scaled",
]


def _snapshot():
    return np.array([counter(name).value for name in _COUNTERS])


def _ragged_frontier(rng) -> list[tuple[float, float, float]]:
    """1-6 points, about a quarter of the steps zero-cost."""
    cap, rate = rng.uniform(4.0, 20.0), rng.uniform(0.1, 2.0)
    points = []
    for _ in range(int(rng.integers(1, 7))):
        points.append((cap, cap * rng.uniform(0.9, 1.0), rate))
        cap += 0.0 if rng.random() < 0.25 else rng.uniform(0.1, 6.0)
        rate += rng.uniform(0.01, 1.5)
    return points


def _pool(rng, n: int, ragged: bool) -> FrontierPool:
    # Shuffled names, so name-rank tie-breaks differ from pool order.
    names = [f"n{i:04d}" for i in rng.permutation(n)]
    if not ragged:
        base = FrontierPool.synthesize(
            n, seed=int(rng.integers(2**16)), points_per_node=int(rng.integers(1, 9))
        )
        v = base.view()
        return FrontierPool(names, v.caps, v.rates, v.powers, v.offsets)
    pts = [_ragged_frontier(rng) for _ in range(n)]
    flat = np.array([p for node in pts for p in node])
    offsets = np.cumsum([0] + [len(node) for node in pts])
    return FrontierPool(names, flat[:, 0], flat[:, 2], flat[:, 1], offsets)


def _topology(rng, names, max_rack: int, n_rows: int):
    """Irregular racks of 1..max_rack shuffled nodes, racks on random rows."""
    order = [names[i] for i in rng.permutation(len(names))]
    rack_of, row_of = {}, {}
    i = 0
    while i < len(order):
        size = int(rng.integers(1, max_rack + 1))
        rack = f"rack{len(row_of):03d}"
        row_of[rack] = f"row{int(rng.integers(n_rows)):02d}"
        for name in order[i : i + size]:
            rack_of[name] = rack
        i += size
    return rack_of, row_of


def _check(tree: BudgetTree, factor: float, policy: str) -> None:
    budget = factor * float(np.sum(tree.pool.floors()))
    before = _snapshot()
    try:
        want, want_racks = reference_allocate(tree, budget, policy)
    except ValueError:
        with pytest.raises(ValueError):
            tree.allocate(budget, policy)
        return
    mid = _snapshot()
    got = tree.allocate(budget, policy)
    after = _snapshot()
    assert np.array_equal(got, want)
    assert tree.last_rack_budgets == want_racks
    assert np.array_equal(after - mid, mid - before)


def _churn(rng, pool: FrontierPool, tree: BudgetTree, op: str, serial: list) -> None:
    active = pool.active_names()
    if op == "deactivate" and len(active) > 1:
        if rng.random() < 0.5:
            # Empty a whole rack, so shifts touching it get skipped.
            rack = tree._rack_of[active[int(rng.integers(len(active)))]]
            victims = [n for n in active if tree._rack_of[n] == rack]
        else:
            victims = list(rng.choice(active, int(rng.integers(1, 4))))
        if len(victims) < len(active):
            pool.deactivate(victims)
    elif op == "activate":
        idle = [n for n in tree._rack_of if n in pool and not pool.is_active(n)]
        if idle:
            pool.activate(list(rng.choice(idle, min(len(idle), int(rng.integers(1, 4))))))
    elif op == "add":
        new = {}
        for _ in range(int(rng.integers(1, 4))):
            serial[0] += 1
            new[f"x{serial[0]:03d}"] = NodeFrontier(
                [NodeFrontierPoint(*p) for p in _ragged_frontier(rng)]
            )
        racks = sorted(tree._row_of)
        rack = racks[int(rng.integers(len(racks)))] if rng.random() < 0.5 else f"new{serial[0]:03d}"
        pool.add_frontiers(new)
        tree.extend(
            rack_of={name: rack for name in new},
            row_of=None if rack in tree._row_of else {rack: sorted(set(tree._row_of.values()))[0]},
        )
    elif op == "shift":
        racks = sorted(tree._row_of)
        a, b = (racks[int(i)] for i in rng.integers(len(racks), size=2))
        tree.shift_budget(a, b, float(rng.uniform(0.0, 15.0)))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 150),
    ragged=st.booleans(),
    max_rack=st.integers(1, 40),
    n_rows=st.integers(1, 6),
    steps=st.lists(
        st.tuples(
            st.sampled_from(["none", "deactivate", "activate", "add", "shift"]),
            st.sampled_from(["uniform", "greedy", "maxmin"]),
            st.floats(0.3, 3.0),
        ),
        min_size=1,
        max_size=6,
    ),
)
def test_batched_tree_matches_per_level_reference(seed, n, ragged, max_rack, n_rows, steps):
    rng = np.random.default_rng(seed)
    pool = _pool(rng, n, ragged)
    tree = BudgetTree(pool, *_topology(rng, pool.active_names(), max_rack, n_rows))
    serial = [0]
    for op, policy, factor in steps:
        _churn(rng, pool, tree, op, serial)
        _check(tree, factor, policy)


def test_shift_into_emptied_rack_is_skipped_whole():
    pool = FrontierPool.synthesize(16, seed=0)
    tree = BudgetTree.regular(pool, rack_size=4, racks_per_row=2)
    names = pool.active_names()
    pool.deactivate(names[4:8])  # empties rack000001
    budget = 1.1 * float(np.sum(pool.floors()))
    base = tree.allocate(budget)
    base_racks = dict(tree.last_rack_budgets)
    skipped = counter("cluster.alloc.tree.shifts_skipped")
    before = skipped.value
    tree.shift_budget("rack000000", "rack000001", 5.0)
    caps = tree.allocate(budget)
    assert float(np.sum(caps)) == float(np.sum(base))
    assert np.array_equal(caps, base)
    assert tree.last_rack_budgets == base_racks
    assert skipped.value - before == 1
    # Once the rack has members again the shift applies, zero-sum.
    pool.activate(names[4:8])
    unshifted = BudgetTree.regular(pool, rack_size=4, racks_per_row=2)
    unshifted.allocate(budget)
    tree.allocate(budget)
    assert skipped.value - before == 1
    moved = {
        rack: tree.last_rack_budgets[rack] - share
        for rack, share in unshifted.last_rack_budgets.items()
    }
    assert moved["rack000000"] == pytest.approx(-5.0)
    assert moved["rack000001"] == pytest.approx(5.0)
    assert sum(moved.values()) == pytest.approx(0.0, abs=1e-9)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_tree_rejects_non_finite_budgets(bad):
    pool = FrontierPool.synthesize(16, seed=0)
    tree = BudgetTree.regular(pool, rack_size=4, racks_per_row=2)
    with pytest.raises(ValueError):
        tree.allocate(bad)
    with pytest.raises(ValueError):
        tree.shift_budget("rack000000", "rack000001", bad)
