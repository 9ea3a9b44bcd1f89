"""End-to-end: discovered frontiers driving the whole stack.

The ISSUE's acceptance path: search on the paper space matches the
exact enumerated frontier to the gates (hypervolume ratio >= 0.99,
per-cap rate regret <= 1%), and a discovered archive — packaged through
:mod:`repro.search.adapters` — is consumed unchanged by the
:class:`~repro.core.scheduler.Scheduler`, the
:class:`~repro.server.service.DecisionService`, and the fleet
allocation layer.
"""

import numpy as np
import pytest

from repro.cluster.allocation import allocate_pool
from repro.core import AdaptiveModel, Scheduler
from repro.hardware import TrinityAPU
from repro.profiling import CharacterizationStore, ProfilingLibrary
from repro.search import (
    SearchConfig,
    archive_to_prediction,
    nsga2_search,
    paper_space,
    pool_from_archives,
    validate_against_exact,
)
from repro.server.engine import DecisionRequest
from repro.server.service import DecisionService
from repro.workloads import build_suite

#: Tuned for the paper space: exact-match quality (hv ratio 1.0, zero
#: regret across the suite) at ~1.2k evaluations.  The benchmark gates
#: assert the looser ISSUE thresholds with the same settings.
PAPER_SEARCH = SearchConfig(population=48, generations=25, epsilon=0.0)

GATE_HV_RATIO = 0.99
GATE_MAX_REGRET = 0.01


@pytest.fixture(scope="module")
def suite():
    return build_suite()


@pytest.fixture(scope="module")
def space():
    return paper_space()


@pytest.fixture(scope="module")
def kernel(suite):
    return suite.get("LU/Small/LUDecomposition")


@pytest.fixture(scope="module")
def archive(space, kernel):
    return nsga2_search(space, kernel, PAPER_SEARCH).archive


class TestPaperSpaceGates:
    def test_search_matches_exact_frontier(self, space, kernel, archive):
        report = validate_against_exact(space, kernel, archive)
        assert report.meets(
            min_hv_ratio=GATE_HV_RATIO, max_regret=GATE_MAX_REGRET
        ), report

    def test_gates_hold_across_the_suite(self, space, suite):
        worst_hv, worst_regret = 1.0, 0.0
        for k in list(suite)[:10]:
            res = nsga2_search(space, k, PAPER_SEARCH)
            report = validate_against_exact(space, k, res.archive)
            worst_hv = min(worst_hv, report.hypervolume_ratio)
            worst_regret = max(worst_regret, report.max_cap_regret)
        assert worst_hv >= GATE_HV_RATIO
        assert worst_regret <= GATE_MAX_REGRET

    def test_archive_configs_are_real_machine_configs(self, archive):
        valid = set(TrinityAPU().config_space)
        assert set(archive.configs()) <= valid


class TestSchedulerConsumesArchive:
    def test_select_picks_best_under_cap(self, space, kernel, archive):
        prediction = archive_to_prediction(archive, "search/LU")
        scheduler = Scheduler(risk_margin=0.0)
        frontier = archive.to_frontier()
        for cap in (15.0, 25.0, 40.0, 60.0):
            decision = scheduler.select(prediction, cap)
            best = frontier.best_under_cap(cap)
            if best is None:
                assert not decision.predicted_feasible
            else:
                assert decision.predicted_feasible
                assert decision.config == best.config
                assert decision.predicted_power_w == best.power_w
                assert decision.predicted_performance == best.performance

    def test_select_many_matches_select(self, archive):
        prediction = archive_to_prediction(archive, "search/LU")
        scheduler = Scheduler(risk_margin=0.0)
        caps = np.linspace(10.0, 70.0, 25)
        many = scheduler.select_many(prediction, caps)
        for cap, d in zip(caps, many):
            single = scheduler.select(prediction, float(cap))
            assert d.config == single.config
            assert d.predicted_feasible == single.predicted_feasible

    def test_sweep_table_builds(self, archive):
        prediction = archive_to_prediction(archive, "search/LU")
        table = Scheduler(risk_margin=0.0).sweep_table(prediction)
        idx, feasible = table.lookup(np.array([5.0, 30.0, 100.0]))
        assert feasible[2]
        assert not feasible[0]

    def test_empty_archive_rejected(self, space):
        from repro.search import EpsilonArchive

        empty = EpsilonArchive(space)
        with pytest.raises(ValueError, match="empty"):
            archive_to_prediction(empty, "search/empty")
        with pytest.raises(ValueError, match="at least one frontier point"):
            pool_from_archives({"empty": empty})


class TestServicePublishesArchive:
    @pytest.fixture(scope="class")
    def service(self, suite):
        kernels = list(suite)[:4]
        store = CharacterizationStore.shared(suite, seed=0)
        trained = AdaptiveModel.train(
            store.characterize(list(suite)),
            dissimilarity=store.dissimilarity_submatrix(list(suite)),
        )
        library = ProfilingLibrary(TrinityAPU(seed=0), seed=0)
        return DecisionService(trained, library, kernels=kernels)

    def test_published_search_frontier_is_served(
        self, service, space, kernel, archive
    ):
        uid = "search/LU/Small/LUDecomposition"
        prediction = archive_to_prediction(archive, uid)
        assert service.publish_predictions({uid: prediction}) == {}

        result = service.decide(DecisionRequest(uid, 30.0))
        assert result.error is None
        # default scheduler: no margin
        best = archive.to_frontier().best_under_cap(30.0)
        assert result.config == best.config

        batch = service.decide_batch(
            [DecisionRequest(uid, c) for c in (20.0, 35.0, 50.0)]
        )
        assert all(r.error is None for r in batch)
        singles = [
            service.decide(DecisionRequest(uid, c)) for c in (20.0, 35.0, 50.0)
        ]
        assert [r.config for r in batch] == [r.config for r in singles]

    def test_existing_kernels_unaffected_by_publish(self, service, suite):
        uid = list(suite)[0].uid
        before = service.decide(DecisionRequest(uid, 30.0))
        assert before.error is None


class TestFleetConsumesArchives:
    def test_pool_from_archives_allocates(self, space, suite):
        archives = {}
        for k in list(suite)[:3]:
            res = nsga2_search(space, k, PAPER_SEARCH)
            archives[f"node-{k.uid}"] = res.archive
        pool = pool_from_archives(archives)
        assert pool.n_active == 3
        caps = allocate_pool(pool, 120.0, policy="greedy")
        assert caps.shape == (3,)
        assert float(caps.sum()) <= 120.0 + 1e-9
        floors = np.array([a.powers[0] for a in archives.values()])
        order = [f"node-{k.uid}" for k in list(suite)[:3]]
        assert pool.active_names() == sorted(order) or set(
            pool.active_names()
        ) == set(order)
        assert np.all(caps >= floors.min() - 1e-9)

    def test_pool_packs_archives_like_node_frontiers(self, space, archive):
        from repro.cluster import FrontierPool, NodeFrontier, NodeFrontierPoint

        other = nsga2_search(space, list(build_suite())[3], PAPER_SEARCH).archive
        archives = {"a": archive, "b": other}
        packed = pool_from_archives(archives).view()
        via_nodes = FrontierPool.from_frontiers(
            {
                name: NodeFrontier(
                    [
                        NodeFrontierPoint(float(pw), float(pw), float(rt))
                        for pw, rt in zip(a.powers, a.performances)
                    ]
                )
                for name, a in archives.items()
            }
        ).view()
        assert packed.names == via_nodes.names
        for field in ("caps", "rates", "powers", "offsets"):
            assert np.array_equal(
                getattr(packed, field), getattr(via_nodes, field)
            ), field

    def test_node_frontier_monotone(self, archive):
        # Each archive becomes one pool node whose operating points are
        # the archive's own (cap = expected power = the point's power).
        pool = pool_from_archives({"n": archive})
        (nf,) = pool.to_frontiers().values()
        caps = [p.cap_w for p in nf]
        rates = [p.rate for p in nf]
        assert caps == sorted(caps)
        assert rates == sorted(rates)
        assert len(nf) == len(archive)
        assert caps == archive.powers.tolist()
        assert rates == archive.performances.tolist()
        assert [p.expected_power_w for p in nf] == caps
