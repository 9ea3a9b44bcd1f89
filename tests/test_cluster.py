"""Tests for repro.cluster (nodes, allocation, manager)."""

import numpy as np
import pytest

from repro.cluster import (
    ClusterNode,
    ClusterPowerManager,
    FrontierPool,
    NodeFrontier,
    NodeFrontierPoint,
    allocate_pool,
    pool_allocation_summary,
)
from repro.core import train_model
from repro.faults import FaultEvent, FaultPlan
from repro.hardware import TrinityAPU
from repro.profiling import ProfilingLibrary
from repro.runtime import Application
from repro.workloads import build_suite
from tests.allocation_reference import allocate_by_name, at_cap_reference


def _frontier(points):
    return NodeFrontier([NodeFrontierPoint(*p) for p in points])


def _summary(caps, frontiers, budget):
    pool = FrontierPool.from_frontiers(frontiers)
    return pool_allocation_summary(pool, np.array([caps[n] for n in frontiers]), budget)


def _rates_at(caps, frontiers):
    """Each node's predicted rate at its cap (floor below the floor)."""
    pool = FrontierPool.from_frontiers(frontiers)
    return pool.at_caps([caps[n] for n in frontiers])[2].tolist()


@pytest.fixture(scope="module")
def trained():
    apu = TrinityAPU(seed=0)
    library = ProfilingLibrary(apu, seed=0)
    suite = build_suite()
    model = train_model(library, [k for k in suite if k.benchmark != "LU"])
    return suite, model


@pytest.fixture(scope="module")
def nodes(trained):
    suite, model = trained
    return [
        ClusterNode(
            "n0", Application.from_suite(suite, "LU Small"), model, seed=1
        ),
        ClusterNode(
            "n1", Application.from_suite(suite, "LU Large"), model, seed=2
        ),
        ClusterNode(
            "n2", Application.from_suite(suite, "CoMD Small"), model, seed=3
        ),
    ]


class TestNodeFrontier:
    def test_sorted_and_monotone(self):
        f = _frontier([(20.0, 19.0, 2.0), (10.0, 9.5, 1.0), (30.0, 28.0, 3.0)])
        caps = [p.cap_w for p in f]
        rates = [p.rate for p in f]
        assert caps == sorted(caps)
        assert rates == sorted(rates)

    def test_non_improving_points_dropped(self):
        f = _frontier([(10.0, 9.0, 1.0), (20.0, 19.0, 0.9), (30.0, 28.0, 2.0)])
        assert len(f) == 2

    def test_at_cap(self):
        f = _frontier([(10.0, 9.0, 1.0), (20.0, 19.0, 2.0)])
        pool = FrontierPool.from_frontiers({"a": f, "b": f, "c": f})
        _, _, rates = pool.at_caps([15.0, 25.0, 5.0])
        # 5 W is below the floor: a node cannot power off.
        assert rates.tolist() == [1.0, 2.0, 1.0]

    def test_steps(self):
        # The allocator's marginal menu is the pool view's step arrays.
        f = _frontier([(10.0, 9.0, 1.0), (20.0, 19.0, 2.0)])
        view = FrontierPool.from_frontiers({"n": f}).view()
        node, dp, dr, pre_rate, rank = view.steps()
        assert node.tolist() == [0] and rank.tolist() == [0]
        assert dp.tolist() == [pytest.approx(10.0)]
        assert dr.tolist() == [pytest.approx(1.0)]
        assert pre_rate.tolist() == [1.0]
        assert view.caps.tolist() == [10.0, 20.0]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            NodeFrontier([])

    def test_at_cap_matches_linear_scan(self):
        # Pin the pool's cap lookup to the O(n) feasibility scan,
        # below-floor fallback included.
        rng = np.random.default_rng(123)
        for _ in range(50):
            n_points = int(rng.integers(1, 8))
            caps = np.cumsum(rng.uniform(0.0, 6.0, n_points)) + rng.uniform(
                1.0, 10.0
            )
            rates = np.cumsum(rng.uniform(0.01, 1.0, n_points))
            f = NodeFrontier(
                [
                    NodeFrontierPoint(float(c), float(c) * 0.95, float(r))
                    for c, r in zip(caps, rates)
                ]
            )
            queries = [
                0.0,  # below floor
                float(caps[0]) - 1e-12,
                float(caps[0]),
                float(caps[-1]),
                float(caps[-1]) + 5.0,
                float(rng.uniform(0.0, caps[-1] + 2.0)),
            ]
            pool = FrontierPool.from_frontiers({str(i): f for i in range(len(queries))})
            got = zip(*pool.at_caps(queries))
            for q, (cap, power, rate) in zip(queries, got):
                want = at_cap_reference(f, q)
                assert (cap, power, rate) == (want.cap_w, want.expected_power_w, want.rate), q


class TestAllocation:
    def _two_frontiers(self):
        # Node a: cheap performance (good marginal utility).
        fa = _frontier([(10.0, 10.0, 1.0), (15.0, 15.0, 3.0), (20.0, 20.0, 4.0)])
        # Node b: expensive performance.
        fb = _frontier([(10.0, 10.0, 1.0), (20.0, 20.0, 1.5)])
        return {"a": fa, "b": fb}

    def test_uniform_splits_evenly(self):
        caps = allocate_by_name(40.0, self._two_frontiers(), "uniform")
        assert caps == {"a": 20.0, "b": 20.0}

    def test_greedy_prefers_high_marginal_node(self):
        caps = allocate_by_name(30.0, self._two_frontiers(), "greedy")
        # 20 W go to the minima; the spare 10 W belong to node a, whose
        # steps buy 0.4 and 0.2 rate/W vs node b's 0.05.
        assert caps["a"] == pytest.approx(20.0)
        assert caps["b"] == pytest.approx(10.0)

    def test_greedy_respects_budget(self):
        fr = self._two_frontiers()
        for budget in (20.0, 25.0, 33.0, 40.0, 100.0):
            caps = allocate_by_name(budget, fr, "greedy")
            assert sum(caps.values()) <= budget + 1e-9

    def test_greedy_beats_uniform_in_predicted_rate(self):
        fr = self._two_frontiers()
        budget = 30.0
        g = _summary(allocate_by_name(budget, fr, "greedy"), fr, budget)
        u = _summary(allocate_by_name(budget, fr, "uniform"), fr, budget)
        assert g["predicted_rate"] > u["predicted_rate"]

    def test_greedy_monotone_in_budget(self):
        fr = self._two_frontiers()
        rates = []
        for budget in (20.0, 25.0, 30.0, 35.0, 40.0):
            caps = allocate_by_name(budget, fr, "greedy")
            rates.append(
                _summary(caps, fr, budget)["predicted_rate"]
            )
        assert rates == sorted(rates)

    def test_infeasible_budget_scales_floors(self):
        fr = self._two_frontiers()
        caps = allocate_by_name(10.0, fr, "greedy")  # floors need 20 W
        assert sum(caps.values()) == pytest.approx(10.0)
        assert caps["a"] == pytest.approx(5.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            allocate_by_name(10.0, {}, "uniform")
        with pytest.raises(ValueError):
            allocate_by_name(0.0, self._two_frontiers(), "greedy")
        with pytest.raises(ValueError):
            pool = FrontierPool.from_frontiers(self._two_frontiers())
            pool_allocation_summary(pool, np.array([1.0]), 10.0)

    def test_maxmin_lifts_the_slowest_node(self):
        fr = self._two_frontiers()
        caps = allocate_by_name(35.0, fr, "maxmin")
        # Both floors give rate 1.0; tie breaks to 'a' (rate 3.0 at
        # 15 W); then 'b' is slowest and takes its 10 W step to rate
        # 1.5; the remaining 5W go to 'a' again (rate 4.0).
        assert caps["b"] == pytest.approx(20.0)
        assert caps["a"] == pytest.approx(15.0)

    def test_maxmin_respects_budget(self):
        fr = self._two_frontiers()
        for budget in (20.0, 25.0, 33.0, 50.0):
            caps = allocate_by_name(budget, fr, "maxmin")
            assert sum(caps.values()) <= budget + 1e-9

    def test_maxmin_improves_worst_rate_over_greedy(self):
        fr = self._two_frontiers()
        budget = 35.0
        greedy = allocate_by_name(budget, fr, "greedy")
        maxmin = allocate_by_name(budget, fr, "maxmin")

        assert min(_rates_at(maxmin, fr)) >= min(_rates_at(greedy, fr))

    def test_maxmin_infeasible_budget_scales_floors(self):
        fr = self._two_frontiers()
        caps = allocate_by_name(12.0, fr, "maxmin")
        assert sum(caps.values()) == pytest.approx(12.0)


class TestClusterNode:
    def test_warmup_runs_two_samples_per_kernel(self, trained):
        suite, model = trained
        node = ClusterNode(
            "n", Application.from_suite(suite, "LU Small"), model, seed=9
        )
        node.warm_up()
        for kernel in node.application.kernels:
            assert node.library.database.iterations(kernel.uid) == 2
        # Idempotent.
        node.warm_up()
        for kernel in node.application.kernels:
            assert node.library.database.iterations(kernel.uid) == 2

    def test_warmup_retries_failed_sample_runs(self, trained):
        suite, model = trained
        node = ClusterNode(
            "n", Application.from_suite(suite, "LU Small"), model, seed=9
        )
        node.apu.inject_faults(
            FaultPlan(
                events=(FaultEvent(kind="run_failure", start=0, duration=2),)
            )
        )
        node.warm_up()
        for pred in node.predictions().values():
            assert np.isfinite(pred.power_array).all()
        assert len(node.frontier()) >= 1

    def test_warmup_sanitises_power_dropout(self, trained):
        suite, model = trained
        node = ClusterNode(
            "n", Application.from_suite(suite, "LU Small"), model, seed=9
        )
        node.apu.inject_faults(
            FaultPlan(
                events=(FaultEvent(kind="power_dropout", start=0, duration=2),)
            )
        )
        node.warm_up()
        first = node.application.kernels[0].uid
        assert node.predictions()[first].cluster == model.default_cluster
        for pred in node.predictions().values():
            assert np.isfinite(pred.power_array).all()
        # The runtime reuses the warm-up's predictions.
        assert node.runtime._predictions[first] is node.predictions()[first]

    def test_frontier_properties(self, nodes):
        f = nodes[0].frontier()
        assert len(f) >= 3
        rates = [p.rate for p in f]
        assert rates == sorted(rates)
        # Feasibility: predicted node power never exceeds the cap.
        for p in f:
            assert p.expected_power_w <= p.cap_w * (1 + 1e-9)

    def test_run_produces_trace(self, nodes):
        trace = nodes[0].run(n_timesteps=3, cap_w=22.0)
        assert trace.timesteps() == 3

    def test_name_validation(self, trained):
        suite, model = trained
        with pytest.raises(ValueError):
            ClusterNode("", Application.from_suite(suite, "LU Small"), model)


class TestClusterPowerManager:
    def test_validation(self, nodes):
        with pytest.raises(ValueError):
            ClusterPowerManager([])
        with pytest.raises(ValueError):
            ClusterPowerManager(nodes, policy="fair")
        with pytest.raises(ValueError):
            ClusterPowerManager([nodes[0], nodes[0]])

    def test_allocation_covers_all_nodes(self, nodes):
        mgr = ClusterPowerManager(nodes, policy="greedy")
        caps = mgr.allocate(75.0)
        assert set(caps) == {"n0", "n1", "n2"}
        assert sum(caps.values()) <= 75.0 + 1e-9

    def test_run_epochs(self, nodes):
        mgr = ClusterPowerManager(nodes, policy="greedy")
        report = mgr.run([70.0, 50.0], n_epochs=2, timesteps_per_epoch=3)
        assert len(report.epochs) == 2
        assert report.epochs[0].budget_w == 70.0
        assert report.total_time_s > 0
        assert 0.0 <= report.budget_compliance() <= 1.0

    def test_budget_function(self, nodes):
        mgr = ClusterPowerManager(nodes, policy="uniform")
        report = mgr.run(
            lambda e: 80.0 - 20.0 * e, n_epochs=2, timesteps_per_epoch=2
        )
        assert report.epochs[1].budget_w == 60.0

    def test_run_argument_validation(self, nodes):
        mgr = ClusterPowerManager(nodes)
        with pytest.raises(ValueError):
            mgr.run([50.0], n_epochs=2, timesteps_per_epoch=2)
        with pytest.raises(ValueError):
            mgr.run([50.0], n_epochs=0, timesteps_per_epoch=2)


class TestClusterFaults:
    def test_dead_node_dropped_and_budget_redistributed(self, nodes):
        # Node churn is pool membership: a dead node leaves the pool and
        # the survivors share its budget; rejoining restores it.
        mgr = ClusterPowerManager(nodes, policy="greedy")
        pool = FrontierPool.from_frontiers(mgr.frontiers())
        healthy = dict(zip(pool.active_names(), allocate_pool(pool, 70.0).tolist()))
        pool.deactivate(["n1"])
        caps = dict(zip(pool.active_names(), allocate_pool(pool, 70.0).tolist()))
        assert set(caps) == {"n0", "n2"}
        assert sum(caps.values()) <= 70.0 + 1e-9
        assert caps["n0"] + caps["n2"] >= healthy["n0"] + healthy["n2"]
        pool.activate(["n1"])
        assert allocate_pool(pool, 70.0).tolist() == list(healthy.values())
