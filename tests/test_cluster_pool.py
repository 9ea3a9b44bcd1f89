"""Tests for the fleet-scale allocation engine (pool, kernels, tree)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    BudgetTree,
    FrontierPool,
    NodeFrontier,
    NodeFrontierPoint,
    allocate_pool,
    pool_allocation_summary,
)
from repro.constants import CAP_EPSILON
from tests.allocation_reference import (
    allocate_by_name,
    at_cap_reference,
    greedy_marginal_allocation_reference,
    maxmin_allocation_reference,
)


def _frontier(points):
    return NodeFrontier([NodeFrontierPoint(*p) for p in points])


def _two_frontiers():
    fa = _frontier([(10.0, 10.0, 1.0), (15.0, 15.0, 3.0), (20.0, 20.0, 4.0)])
    fb = _frontier([(10.0, 10.0, 1.0), (20.0, 20.0, 1.5)])
    return {"a": fa, "b": fb}


# -- random frontier generators (shared by the property tests) ----------------


@st.composite
def frontier_dicts(draw):
    """A dict of 1-6 random node frontiers with 1-6 points each,
    including occasional zero-cost (equal-cap) steps."""
    n_nodes = draw(st.integers(1, 6))
    out = {}
    for i in range(n_nodes):
        n_points = draw(st.integers(1, 6))
        cap = draw(st.floats(1.0, 30.0))
        points = []
        rate = draw(st.floats(0.1, 2.0))
        for _ in range(n_points):
            points.append(NodeFrontierPoint(cap, cap * 0.95, rate))
            zero_cost = draw(st.booleans())
            cap = cap + (0.0 if zero_cost else draw(st.floats(0.1, 8.0)))
            rate = rate + draw(st.floats(0.05, 2.0))
        out[f"n{i:02d}"] = NodeFrontier(points)
    return out


class TestFrontierPool:
    def test_round_trip(self):
        fr = _two_frontiers()
        pool = FrontierPool.from_frontiers(fr)
        back = pool.to_frontiers()
        assert list(back) == ["a", "b"]
        for name in fr:
            assert [
                (p.cap_w, p.expected_power_w, p.rate) for p in fr[name]
            ] == [(p.cap_w, p.expected_power_w, p.rate) for p in back[name]]

    def test_counts(self):
        pool = FrontierPool.from_frontiers(_two_frontiers())
        assert pool.n_active == 2
        assert len(pool) == 2
        assert "a" in pool and "missing" not in pool

    def test_validation(self):
        with pytest.raises(ValueError, match="unique"):
            FrontierPool(
                ["a", "a"],
                np.array([1.0, 2.0]),
                np.array([1.0, 2.0]),
                np.array([1.0, 2.0]),
                np.array([0, 1, 2]),
            )
        with pytest.raises(ValueError, match="offsets"):
            FrontierPool(
                ["a"],
                np.array([1.0]),
                np.array([1.0]),
                np.array([1.0]),
                np.array([0, 2]),
            )
        with pytest.raises(ValueError, match="at least one"):
            FrontierPool(
                ["a", "b"],
                np.array([1.0]),
                np.array([1.0]),
                np.array([1.0]),
                np.array([0, 0, 1]),
            )
        with pytest.raises(ValueError, match="finite"):
            FrontierPool(
                ["a"],
                np.array([np.inf]),
                np.array([1.0]),
                np.array([1.0]),
                np.array([0, 1]),
            )

    def test_synthesize_deterministic(self):
        p1 = FrontierPool.synthesize(50, seed=9)
        p2 = FrontierPool.synthesize(50, seed=9)
        assert p1.active_names() == p2.active_names()
        f1 = p1.floors()
        f2 = p2.floors()
        assert np.array_equal(f1, f2)
        # Names sort lexicographically in numeric order.
        names = p1.active_names()
        assert names == sorted(names)

    def test_at_caps_matches_scalar_at_cap(self):
        pool = FrontierPool.synthesize(200, seed=4)
        fr = pool.to_frontiers()
        rng = np.random.default_rng(0)
        queries = rng.uniform(0.0, 50.0, 200)
        queries[0] = np.nan  # scalar scan treats NaN as nothing-feasible
        point_caps, powers, rates = pool.at_caps(queries)
        for i, (name, q) in enumerate(zip(pool.active_names(), queries)):
            p = at_cap_reference(fr[name], float(q))
            assert point_caps[i] == p.cap_w
            assert powers[i] == p.expected_power_w
            assert rates[i] == p.rate

    def test_at_caps_one_ulp_under_a_threshold_beside_a_huge_node(self):
        # Regression: the pool once keyed node i's caps as cap + i * band
        # in floats, with the band sized by the largest cap in the pool.
        # Beside node a's 1 MW point that sum rounds, and a cap one ulp
        # under b's 16 W threshold picked b's 16 W point.
        fr = {
            "a": _frontier([(10.0, 10.0, 1.0), (1e6, 1e6, 2.0)]),
            "b": _frontier([(10.0, 10.0, 1.0), (16.0, 16.0, 2.0)]),
        }
        pool = FrontierPool.from_frontiers(fr)
        cap = np.nextafter(16.0 / (1.0 + CAP_EPSILON), 0.0)
        assert cap == 15.999999983999997
        point_caps, _, _ = pool.at_caps(np.array([20.0, cap]))
        assert at_cap_reference(fr["b"], cap).cap_w == 10.0
        assert point_caps.tolist() == [10.0, 10.0]

    @settings(max_examples=60, deadline=None)
    @given(frontier_dicts(), st.floats(1e5, 1e7), st.data())
    def test_property_at_caps_matches_at_cap_near_thresholds(
        self, fr, top_w, data
    ):
        # One node reaches at least 1e5 W, so caps near every other
        # node's thresholds sit far below the pool's largest cap.
        stretched = data.draw(st.sampled_from(sorted(fr)))
        last = fr[stretched].points[-1]
        fr[stretched] = NodeFrontier(
            list(fr[stretched].points)
            + [NodeFrontierPoint(top_w, top_w * 0.95, last.rate + 1.0)]
        )
        pool = FrontierPool.from_frontiers(fr)
        names = pool.active_names()
        # Each point's threshold under respects_cap, and one ulp either side.
        queries = sorted(
            {
                float(q)
                for f in fr.values()
                for p in f
                for t in [p.cap_w / (1.0 + CAP_EPSILON)]
                for q in (np.nextafter(t, -np.inf), t, np.nextafter(t, np.inf))
            }
        )
        mixed = data.draw(
            st.lists(
                st.sampled_from(queries), min_size=len(names), max_size=len(names)
            )
        )
        for caps in [[q] * len(names) for q in queries] + [mixed]:
            got = pool.at_caps(np.array(caps))
            for i, (name, cap) in enumerate(zip(names, caps)):
                p = at_cap_reference(fr[name], cap)
                assert (got[0][i], got[1][i], got[2][i]) == (
                    p.cap_w,
                    p.expected_power_w,
                    p.rate,
                ), (name, cap)

    def test_membership_cycle(self):
        pool = FrontierPool.from_frontiers(_two_frontiers())
        v0 = pool.version
        assert pool.deactivate(["b"]) == 1
        assert pool.version == v0 + 1
        assert pool.active_names() == ["a"]
        assert pool.deactivate(["b"]) == 0  # idempotent, no version bump
        assert pool.version == v0 + 1
        assert pool.activate(["b"]) == 1
        assert pool.active_names() == ["a", "b"]
        with pytest.raises(ValueError, match="unknown"):
            pool.deactivate(["nope"])

    def test_view_cached_per_version(self):
        pool = FrontierPool.from_frontiers(_two_frontiers())
        assert pool.view() is pool.view()
        v = pool.view()
        pool.deactivate(["b"])
        assert pool.view() is not v

    def test_subpool(self):
        pool = FrontierPool.synthesize(10, seed=1)
        names = pool.active_names()[3:6]
        sub = pool.subpool(names)
        assert sub.active_names() == names
        full = pool.to_frontiers()
        for name, f in sub.to_frontiers().items():
            assert [p.cap_w for p in f] == [p.cap_w for p in full[name]]


class TestAllocatePool:
    def test_matches_dict_frontend(self):
        # The dict-level references, keyed by node name.
        fr = _two_frontiers()
        pool = FrontierPool.from_frontiers(fr)
        for policy, dict_fn in (
            ("greedy", greedy_marginal_allocation_reference),
            ("maxmin", maxmin_allocation_reference),
        ):
            caps = allocate_pool(pool, 33.0, policy)
            expect = dict_fn(33.0, fr)
            assert dict(zip(pool.active_names(), caps.tolist())) == expect

    def test_uniform(self):
        pool = FrontierPool.from_frontiers(_two_frontiers())
        caps = allocate_pool(pool, 40.0, "uniform")
        assert caps.tolist() == [20.0, 20.0]

    def test_validation(self):
        pool = FrontierPool.from_frontiers(_two_frontiers())
        with pytest.raises(ValueError):
            allocate_pool(pool, 0.0)
        with pytest.raises(ValueError):
            allocate_pool(pool, 10.0, "fair")

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("policy", ["uniform", "greedy", "maxmin"])
    def test_rejects_non_finite_budgets(self, policy, bad):
        # Before the check, NaN/inf handed every node its maximum cap
        # (greedy, maxmin) or NaN caps (uniform).
        pool = FrontierPool.synthesize(16, seed=0)
        with pytest.raises(ValueError, match="finite"):
            allocate_pool(pool, bad, policy)

    @pytest.mark.parametrize(
        "policy, reference",
        [
            ("greedy", greedy_marginal_allocation_reference),
            ("maxmin", maxmin_allocation_reference),
        ],
    )
    def test_fixup_takes_one_candidate_per_round(self, policy, reference):
        # After the cut, "a"'s 5 W step no longer fits the 4 W left, while
        # "b" and "c" each fit alone but not together: the reference buys
        # "b" only.
        fr = {
            "a": _frontier([(10.0, 10.0, 0.1), (15.0, 15.0, 5.1)]),
            "b": _frontier([(10.0, 10.0, 0.2), (13.0, 13.0, 2.6)]),
            "c": _frontier([(10.0, 10.0, 0.3), (13.0, 13.0, 2.4)]),
        }
        expect = {"a": 10.0, "b": 13.0, "c": 10.0}
        assert reference(34.0, fr) == expect
        assert allocate_by_name(34.0, fr, policy) == expect

    def test_respects_membership(self):
        pool = FrontierPool.from_frontiers(_two_frontiers())
        pool.deactivate(["a"])
        caps = allocate_pool(pool, 30.0, "greedy")
        assert caps.size == 1
        assert caps[0] == pytest.approx(20.0)  # b's own frontier maximum

    def test_floor_scaling_when_infeasible(self):
        pool = FrontierPool.from_frontiers(_two_frontiers())
        caps = allocate_pool(pool, 10.0, "greedy")  # floors need 20 W
        assert float(np.sum(caps)) == pytest.approx(10.0)
        assert caps[0] == pytest.approx(5.0)

    def test_zero_cost_steps_taken_immediately(self):
        # A zero-cost step (equal caps, better rate) must be granted
        # even when the leftover budget is zero.
        fr = {
            "a": _frontier([(10.0, 10.0, 1.0), (10.0, 10.0, 2.0)]),
            "b": _frontier([(10.0, 10.0, 1.0)]),
        }
        for budget in (20.0, 20.5):
            caps = allocate_by_name(budget, fr, "greedy")
            assert caps == greedy_marginal_allocation_reference(budget, fr)
            summary = pool_allocation_summary(
                FrontierPool.from_frontiers(fr),
                np.array(list(caps.values())),
                budget,
            )
            assert summary["predicted_rate"] == pytest.approx(3.0)

    def test_single_node(self):
        fr = {"only": _frontier([(10.0, 9.5, 1.0), (14.0, 13.2, 2.0)])}
        for budget, expected in ((5.0, 5.0), (12.0, 10.0), (40.0, 14.0)):
            for policy in ("greedy", "maxmin"):
                assert allocate_by_name(budget, fr, policy)["only"] == pytest.approx(expected)

    def test_pool_allocation_summary_matches_dict(self):
        fr = _two_frontiers()
        pool = FrontierPool.from_frontiers(fr)
        caps = allocate_pool(pool, 33.0, "greedy")
        points = [at_cap_reference(fr[n], c) for n, c in zip(fr, caps.tolist())]
        s_dict = {
            "predicted_rate": sum(p.rate for p in points),
            "predicted_power_w": sum(p.expected_power_w for p in points),
            "budget_w": 33.0,
            "slack_w": 33.0 - sum(caps.tolist()),
        }
        s_pool = pool_allocation_summary(pool, caps, 33.0)
        for key in s_dict:
            assert s_pool[key] == pytest.approx(s_dict[key])

    @settings(max_examples=60, deadline=None)
    @given(frontier_dicts(), st.floats(0.5, 3.0), st.floats(0.0, 40.0))
    def test_property_vectorized_equals_reference(
        self, fr, floor_factor, extra
    ):
        floors = sum(f.min_cap_w for f in fr.values())
        budget = floors * floor_factor + extra
        # Bit-identical, floor-scaled budgets included: the pool's floor
        # sum adds at most six floors, in order, like the references.
        greedy = allocate_by_name(budget, fr, "greedy")
        assert greedy == greedy_marginal_allocation_reference(budget, fr)
        maxmin = allocate_by_name(budget, fr, "maxmin")
        assert maxmin == maxmin_allocation_reference(budget, fr)
        # Neither policy ever exceeds the budget.
        assert sum(greedy.values()) <= budget + 1e-9
        assert sum(maxmin.values()) <= budget + 1e-9


class TestBudgetTree:
    def _tree(self, n=64, rack_size=8, racks_per_row=2, seed=2):
        pool = FrontierPool.synthesize(n, seed=seed)
        return pool, BudgetTree.regular(
            pool, rack_size=rack_size, racks_per_row=racks_per_row
        )

    def test_budget_respected_and_near_flat(self):
        pool, tree = self._tree()
        budget = float(np.sum(pool.floors())) * 1.4
        for policy in ("uniform", "greedy", "maxmin"):
            caps = tree.allocate(budget, policy)
            assert caps.shape == (pool.n_active,)
            assert float(np.sum(caps)) <= budget + 1e-6
        tree_rate = pool_allocation_summary(
            pool, tree.allocate(budget, "greedy"), budget
        )["predicted_rate"]
        flat_rate = pool_allocation_summary(
            pool, allocate_pool(pool, budget, "greedy"), budget
        )["predicted_rate"]
        assert tree_rate >= 0.95 * flat_rate

    def test_incremental_rebuild_on_membership_change(self):
        from repro.telemetry import counter

        pool, tree = self._tree()
        budget = float(np.sum(pool.floors())) * 1.3
        tree.allocate(budget)
        rebuilds = counter("cluster.alloc.tree.rack_rebuilds")
        before = rebuilds.value
        victim = pool.active_names()[0]
        pool.deactivate([victim])
        caps = tree.allocate(budget)
        assert caps.shape == (pool.n_active,)
        assert rebuilds.value - before == 1  # only the victim's rack

    def test_validation(self):
        pool = FrontierPool.synthesize(4, seed=0)
        names = pool.active_names()
        with pytest.raises(ValueError, match="without a rack"):
            BudgetTree(pool, {}, {})
        with pytest.raises(ValueError, match="without a row"):
            BudgetTree(pool, {n: "r0" for n in names}, {})
        tree = BudgetTree.regular(pool, rack_size=2, racks_per_row=1)
        with pytest.raises(ValueError):
            tree.allocate(0.0)
