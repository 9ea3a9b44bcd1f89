"""Tests for the search engine: ranking, hypervolume, determinism."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.faults import FaultPlan
from repro.search import (
    SearchConfig,
    SearchResult,
    demo_space,
    hypervolume,
    nsga2_search,
    paper_space,
    random_search,
)
from repro.search.engine import (
    _archive_hypervolume,
    _resolve_jobs,
    crowding_distance,
    non_dominated_rank,
)
from repro.telemetry.spans import get_tracer
from repro.workloads import build_suite

from .conftest import make_kernel
from .search_reference import (
    _non_dominated_rank_reference,
    crowding_distance_reference,
    reference_nsga2_search,
)


# ---------------------------------------------------------------------------
# Scalarized helpers
# ---------------------------------------------------------------------------


class TestHypervolume:
    def test_single_point(self):
        # One rectangle: (ref - p) * r = (10 - 4) * 2 = 12.
        assert hypervolume(np.array([4.0]), np.array([2.0]), 10.0) == 12.0

    def test_two_point_staircase(self):
        pw = np.array([4.0, 8.0])
        rt = np.array([2.0, 5.0])
        # (10-4)*2 + (10-8)*(5-2) = 12 + 6.
        assert hypervolume(pw, rt, 10.0) == 18.0

    def test_dominated_points_do_not_contribute(self):
        pw = np.array([4.0, 8.0, 6.0])  # the 6W/1-rate point is dominated
        rt = np.array([2.0, 5.0, 1.0])
        assert hypervolume(pw, rt, 10.0) == 18.0

    def test_points_beyond_reference_ignored(self):
        assert hypervolume(np.array([12.0]), np.array([9.0]), 10.0) == 0.0
        assert hypervolume(np.array([]), np.array([]), 10.0) == 0.0

    @pytest.mark.parametrize("ref_scale", [0.0, 0.5, 0.9, 1.0, 1.05, 3.0, np.nan])
    def test_archive_path_matches_point_set_path(self, ref_scale):
        res = nsga2_search(
            demo_space(), make_kernel(), SearchConfig(population=24, generations=5)
        )
        ref = float(res.archive.powers.max()) * ref_scale
        fast = _archive_hypervolume(res.archive, ref)
        assert fast == hypervolume(res.archive.powers, res.archive.performances, ref)
        assert type(fast) is float


@st.composite
def _objectives(draw):
    n = draw(st.integers(min_value=1, max_value=60))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    # Coarse grid values force plenty of exact ties in both objectives.
    powers = rng.integers(1, 12, size=n).astype(np.float64)
    rates = rng.integers(1, 12, size=n).astype(np.float64)
    return powers, rates


class TestNonDominatedRank:
    @settings(max_examples=60, deadline=None)
    @given(_objectives())
    def test_matches_quadratic_reference(self, objectives):
        powers, rates = objectives
        fast = non_dominated_rank(powers, rates)
        slow = _non_dominated_rank_reference(powers, rates)
        assert np.array_equal(fast, slow)

    def test_duplicates_share_the_front(self):
        pw = np.array([5.0, 5.0, 7.0])
        rt = np.array([3.0, 3.0, 3.0])
        ranks = non_dominated_rank(pw, rt)
        # Exact duplicates are mutually non-dominated; the 7W copy of
        # the same rate is strictly dominated.
        assert list(ranks) == [0, 0, 1]

    @settings(max_examples=80, deadline=None)
    @given(_objectives(), st.integers(min_value=1, max_value=70))
    def test_early_stop_ranks_the_prefix_exactly(self, objectives, stop_at):
        powers, rates = objectives
        full = _non_dominated_rank_reference(powers, rates)
        early = non_dominated_rank(powers, rates, stop_at=stop_at)
        # The last ranked front is the first whose cumulative size
        # reaches stop_at (or the last front, if none does).
        held = np.cumsum(np.bincount(full))
        last = min(int(np.searchsorted(held, stop_at)), int(full.max()))
        ranked = full <= last
        assert np.array_equal(early[ranked], full[ranked])
        # Everything else shares one rank above every ranked point.
        assert np.all(early[~ranked] == last + 1)

    def test_early_stop_boundary(self):
        pw = np.array([1.0, 2.0, 3.0, 2.0, 3.0, 4.0])
        rt = np.array([1.0, 2.0, 3.0, 1.0, 2.0, 3.0])
        assert list(non_dominated_rank(pw, rt)) == [0, 0, 0, 1, 1, 1]
        assert list(non_dominated_rank(pw, rt, stop_at=3)) == [0, 0, 0, 1, 1, 1]
        assert list(non_dominated_rank(pw, rt, stop_at=4)) == [0, 0, 0, 1, 1, 1]
        assert list(non_dominated_rank(pw, rt, stop_at=6)) == [0, 0, 0, 1, 1, 1]
        pw, rt = np.append(pw, 5.0), np.append(rt, 1.0)
        assert list(non_dominated_rank(pw, rt, stop_at=3)) == [0, 0, 0, 1, 1, 1, 1]
        assert list(non_dominated_rank(pw, rt, stop_at=4)) == [0, 0, 0, 1, 1, 1, 2]
        assert non_dominated_rank(pw[:0], rt[:0], stop_at=1).shape == (0,)

    @settings(max_examples=80, deadline=None)
    @given(_objectives(), st.booleans())
    def test_segmented_crowding_matches_front_loop(self, objectives, early):
        powers, rates = objectives
        stop_at = len(powers) // 2 if early else None
        ranks = non_dominated_rank(powers, rates, stop_at=stop_at)
        fast = crowding_distance(powers, rates, ranks)
        slow = crowding_distance_reference(powers, rates, ranks)
        assert np.array_equal(fast, slow)

    def test_segmented_crowding_on_duplicates_and_flat_fronts(self):
        # Front 0: duplicates and a zero power span; front 1: two points;
        # front 2: one point; front 3: a zero rate span.
        pw = np.array([1.0, 1.0, 1.0, 1.0, 2.0, 3.0, 5.0, 6.0, 7.0, 8.0])
        rt = np.array([5.0, 5.0, 5.0, 5.0, 4.0, 4.5, 3.0, 1.0, 1.0, 1.0])
        ranks = np.array([0, 0, 0, 0, 1, 1, 2, 3, 3, 3])
        fast = crowding_distance(pw, rt, ranks)
        assert np.array_equal(fast, crowding_distance_reference(pw, rt, ranks))
        inf = [True, False, False, True, True, True, True, True, False, True]
        assert list(np.isinf(fast)) == inf
        assert fast[1] == fast[2] == 0.0
        assert crowding_distance(pw[:0], rt[:0], ranks[:0]).shape == (0,)

    def test_crowding_boundaries_are_infinite(self):
        pw = np.array([1.0, 2.0, 3.0, 4.0])
        rt = np.array([1.0, 2.0, 3.0, 4.0])
        ranks = non_dominated_rank(pw, rt)
        assert np.all(ranks == 0)
        crowd = crowding_distance(pw, rt, ranks)
        assert crowd[0] == np.inf and crowd[-1] == np.inf
        assert np.all(np.isfinite(crowd[1:-1]))
        assert np.all(crowd[1:-1] > 0)


# ---------------------------------------------------------------------------
# SearchConfig validation and job resolution
# ---------------------------------------------------------------------------


class TestSearchConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="population"):
            SearchConfig(population=2)
        with pytest.raises(ValueError, match="generations"):
            SearchConfig(generations=-1)
        with pytest.raises(ValueError, match="crossover_rate"):
            SearchConfig(crossover_rate=1.5)

    @pytest.mark.parametrize("rate", [-1.0, -1e-9, 1.0 + 1e-9, 5.0, float("nan")])
    def test_rejects_mutation_rate_outside_unit_interval(self, rate):
        with pytest.raises(ValueError, match="mutation_rate"):
            SearchConfig(mutation_rate=rate)
        assert SearchConfig(mutation_rate=0.0).mutation_rate == 0.0
        assert SearchConfig(mutation_rate=1.0).mutation_rate == 1.0

    @pytest.mark.parametrize("eps", [-0.1, float("nan"), float("inf")])
    def test_rejects_negative_or_non_finite_epsilon(self, eps):
        with pytest.raises(ValueError, match="epsilon"):
            SearchConfig(epsilon=eps)
        assert SearchConfig(epsilon=0.0).epsilon == 0.0

    @pytest.mark.parametrize("budget", [0, 1, 15])
    def test_rejects_budget_below_one_population(self, budget):
        with pytest.raises(ValueError, match="max_evaluations"):
            SearchConfig(population=16, max_evaluations=budget)
        assert SearchConfig(population=16, max_evaluations=16).max_evaluations == 16

    def test_fault_plan_forces_serial(self):
        assert _resolve_jobs(8, FaultPlan()) == 1
        assert _resolve_jobs(8, None) == 8

    def test_n_jobs_env_respected(self, monkeypatch):
        monkeypatch.setenv("REPRO_NJOBS", "3")
        assert _resolve_jobs(None, None) == 3


# ---------------------------------------------------------------------------
# nsga2_search
# ---------------------------------------------------------------------------


class TestNsga2Search:
    def test_result_shape_and_telemetry(self):
        sp = paper_space()
        k = make_kernel()
        evals = telemetry.counter("search.evaluations")
        gens = telemetry.counter("search.generations")
        e0, g0 = evals.value, gens.value
        res = nsga2_search(sp, k, SearchConfig(population=16, generations=4))
        assert isinstance(res, SearchResult)
        assert res.evaluations == 16 * 5  # init + 4 generations
        assert res.generations == 4
        assert len(res.history) == 5
        assert res.history[-1][0] == res.evaluations
        assert res.hypervolume == res.history[-1][1] > 0
        assert res.elapsed_s > 0
        assert evals.value == e0 + res.evaluations
        assert gens.value == g0 + 4
        assert telemetry.gauge("search.archive_size").value == len(res.archive)
        assert telemetry.gauge("search.hypervolume").value == res.hypervolume

    def test_emits_spans(self):
        tracer = get_tracer()
        tracer.reset()
        nsga2_search(
            paper_space(), make_kernel(), SearchConfig(population=8, generations=2)
        )
        names = {s["name"] for s in tracer.snapshot()}
        assert "search/run" in names

    def test_hypervolume_never_decreases(self):
        res = nsga2_search(
            paper_space(), make_kernel(), SearchConfig(population=16, generations=8)
        )
        hv = [h for _, h in res.history]
        assert all(b >= a for a, b in zip(hv, hv[1:]))

    def test_per_seed_bit_identical(self):
        sp = demo_space()
        k = make_kernel()
        cfg = SearchConfig(population=24, generations=6, seed=7)
        a = nsga2_search(sp, k, cfg)
        b = nsga2_search(sp, k, cfg)
        assert np.array_equal(a.archive.genomes, b.archive.genomes)
        assert np.array_equal(a.archive.powers, b.archive.powers)
        assert np.array_equal(a.archive.performances, b.archive.performances)
        assert a.history == b.history

    def test_different_seeds_differ(self):
        sp = demo_space()
        k = make_kernel()
        a = nsga2_search(sp, k, SearchConfig(population=24, generations=6, seed=0))
        b = nsga2_search(sp, k, SearchConfig(population=24, generations=6, seed=1))
        assert not (
            a.archive.genomes.shape == b.archive.genomes.shape
            and np.array_equal(a.archive.genomes, b.archive.genomes)
        )

    def test_max_evaluations_is_a_hard_budget(self):
        res = nsga2_search(
            paper_space(),
            make_kernel(),
            SearchConfig(population=16, generations=50, max_evaluations=70),
        )
        assert res.evaluations <= 70
        assert res.evaluations == 64  # init + 3 full generations fit
        assert res.generations == 3

    def test_fault_plan_run_matches_serial(self):
        sp = paper_space()
        k = make_kernel()
        cfg = SearchConfig(population=16, generations=4, n_jobs=4)
        faulted = nsga2_search(sp, k, cfg, fault_plan=FaultPlan())
        serial = nsga2_search(sp, k, cfg)
        assert np.array_equal(faulted.archive.powers, serial.archive.powers)

    def test_explicit_hypervolume_reference(self):
        res = nsga2_search(
            paper_space(),
            make_kernel(),
            SearchConfig(population=8, generations=1),
            hypervolume_ref_w=123.0,
        )
        assert res.hypervolume_ref_w == 123.0

    def test_nan_reference_gives_zero_hypervolume(self):
        """No power lies below a NaN reference, so (as with
        :func:`hypervolume`) every history entry is 0.0, not NaN."""
        cfg = SearchConfig(population=8, generations=3)
        for res in (
            nsga2_search(paper_space(), make_kernel(), cfg, hypervolume_ref_w=np.nan),
            random_search(
                paper_space(), make_kernel(), 40, batch=16, hypervolume_ref_w=np.nan
            ),
        ):
            assert [hv for _, hv in res.history] == [0.0] * len(res.history)


class TestMatchesReferenceLoop:
    """The one-sort, early-stopping, rank-carrying engine against the
    full-rank, front-by-front generation loop: byte-equal archives,
    histories and counts."""

    @staticmethod
    def _assert_same(fast, slow):
        assert fast.archive.genomes.tobytes() == slow.archive.genomes.tobytes()
        assert fast.archive.powers.tobytes() == slow.archive.powers.tobytes()
        assert fast.archive.performances.tobytes() == slow.archive.performances.tobytes()
        assert fast.history == slow.history
        assert fast.hypervolume_ref_w == slow.hypervolume_ref_w
        assert (fast.evaluations, fast.generations) == (slow.evaluations, slow.generations)

    @pytest.mark.parametrize("space_fn", [demo_space, paper_space])
    @pytest.mark.parametrize("kernel_idx,seed", [(0, 0), (7, 1), (23, 2), (41, 3), (64, 5)])
    def test_default_config(self, space_fn, kernel_idx, seed):
        kernel = list(build_suite())[kernel_idx]
        cfg = SearchConfig(seed=seed)
        self._assert_same(
            nsga2_search(space_fn(), kernel, cfg),
            reference_nsga2_search(space_fn(), kernel, cfg),
        )

    @pytest.mark.parametrize(
        "cfg",
        [
            SearchConfig(population=24, generations=15, seed=4, epsilon=0.0),
            SearchConfig(population=16, generations=50, seed=2, max_evaluations=70),
            SearchConfig(population=10, generations=30, seed=9, max_evaluations=10),
            SearchConfig(population=32, generations=20, seed=6, mutation_rate=1.0),
        ],
        ids=["exact-archive", "truncated", "init-only", "all-mutate"],
    )
    @pytest.mark.parametrize("space_fn", [demo_space, paper_space])
    def test_edge_configs(self, space_fn, cfg):
        kernel = make_kernel()
        self._assert_same(
            nsga2_search(space_fn(), kernel, cfg, hypervolume_ref_w=200.0),
            reference_nsga2_search(space_fn(), kernel, cfg, hypervolume_ref_w=200.0),
        )


# ---------------------------------------------------------------------------
# random_search baseline
# ---------------------------------------------------------------------------


class TestRandomSearch:
    def test_budget_and_history(self):
        res = random_search(
            demo_space(), make_kernel(), 1000, seed=0, batch=256
        )
        assert res.evaluations == 1000
        assert res.generations == 0
        assert res.history[-1][0] == 1000
        assert res.hypervolume > 0

    def test_rejects_nonpositive_budget(self):
        with pytest.raises(ValueError, match="budget"):
            random_search(demo_space(), make_kernel(), 0)

    def test_per_seed_bit_identical(self):
        sp = demo_space()
        k = make_kernel()
        a = random_search(sp, k, 600, seed=3, batch=200)
        b = random_search(sp, k, 600, seed=3, batch=200)
        assert np.array_equal(a.archive.genomes, b.archive.genomes)
        assert a.history == b.history

    def test_search_beats_random_at_equal_small_budget(self):
        """On the demo space the engine's archive should dominate the
        random baseline's hypervolume at the same evaluation budget."""
        sp = demo_space()
        k = make_kernel()
        rnd = random_search(sp, k, 960, seed=0)
        nsga = nsga2_search(
            sp,
            k,
            SearchConfig(population=96, generations=9, seed=0),
            hypervolume_ref_w=rnd.hypervolume_ref_w,
        )
        assert nsga.evaluations == rnd.evaluations
        assert nsga.hypervolume >= rnd.hypervolume
