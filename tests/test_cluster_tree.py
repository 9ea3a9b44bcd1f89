"""The batched :class:`BudgetTree` against its per-level oracle
(``tests/tree_reference.py``), plus the tree's budget rules."""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import BudgetTree, FrontierPool
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


def _churn(rng, pool: FrontierPool, tree: BudgetTree, op: str) -> None:
    active = pool.active_names()
    if op == "deactivate" and len(active) > 1:
        if rng.random() < 0.5:
            # Empty a whole rack.
            rack = tree._rack_of[active[int(rng.integers(len(active)))]]
            victims = [n for n in active if tree._rack_of[n] == rack]
        else:
            victims = list(rng.choice(active, int(rng.integers(1, 4))))
        if len(victims) < len(active):
            pool.deactivate(victims)
    elif op == "activate":
        live = set(active)
        idle = [n for n in tree._rack_of if n in pool and n not in live]
        if idle:
            pool.activate(list(rng.choice(idle, min(len(idle), int(rng.integers(1, 4))))))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 150),
    ragged=st.booleans(),
    max_rack=st.integers(1, 40),
    n_rows=st.integers(1, 6),
    steps=st.lists(
        st.tuples(
            st.sampled_from(["none", "deactivate", "activate"]),
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
    for op, policy, factor in steps:
        _churn(rng, pool, tree, op)
        _check(tree, factor, policy)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_tree_rejects_non_finite_budgets(bad):
    pool = FrontierPool.synthesize(16, seed=0)
    tree = BudgetTree.regular(pool, rack_size=4, racks_per_row=2)
    with pytest.raises(ValueError):
        tree.allocate(bad)
