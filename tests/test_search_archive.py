"""Tests for the deterministic ε-dominance archive."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.frontier import FrontierPoint, ParetoFrontier
from repro.search import EpsilonArchive, demo_space, paper_space

from .conftest import make_kernel
from .search_reference import ReferenceArchive


@pytest.fixture(scope="module")
def space():
    return paper_space()


def _evaluated(space, kernel, seed, n):
    rng = np.random.default_rng(seed)
    g = space.sample_genomes(rng, n)
    rates, powers = space.evaluate(kernel, g)
    return g, powers, rates


def _exact_nondominated_mask(powers, rates):
    """O(n²) reference: point i is non-dominated iff no j has
    (power <= p_i, rate >= r_i) with at least one strict."""
    n = len(powers)
    mask = np.ones(n, dtype=bool)
    for i in range(n):
        for j in range(n):
            if j == i:
                continue
            if (
                powers[j] <= powers[i]
                and rates[j] >= rates[i]
                and (powers[j] < powers[i] or rates[j] > rates[i])
            ):
                mask[i] = False
                break
    return mask


class TestInvariants:
    def test_empty_archive(self, space):
        a = EpsilonArchive(space)
        assert len(a) == 0
        assert a.powers.size == a.performances.size == 0
        assert a.insert(
            np.empty((0, space.n_axes), dtype=np.int64),
            np.empty(0),
            np.empty(0),
        ) == 0
        with pytest.raises(ValueError, match="empty"):
            a.to_frontier()

    def test_rejects_bad_epsilon_and_nonpositive_objectives(self, space):
        with pytest.raises(ValueError, match="epsilon"):
            EpsilonArchive(space, epsilon=-0.1)
        a = EpsilonArchive(space)
        g = space.sample_genomes(np.random.default_rng(0), 2)
        with pytest.raises(ValueError, match="strictly positive"):
            a.insert(g, np.array([10.0, -1.0]), np.array([1.0, 1.0]))
        with pytest.raises(ValueError, match="length mismatch"):
            a.insert(g, np.array([10.0]), np.array([1.0, 1.0]))

    @pytest.mark.parametrize("eps", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite_epsilon(self, space, eps):
        with pytest.raises(ValueError, match="epsilon"):
            EpsilonArchive(space, epsilon=eps)

    @pytest.mark.parametrize(
        "powers,rates",
        [
            ([10.0, np.nan, 12.0], [1.0, 2.0, np.nan]),
            ([10.0, np.inf, 12.0], [1.0, 2.0, 3.0]),
            ([10.0, 11.0, 12.0], [1.0, np.inf, 3.0]),
            ([10.0, 11.0, 12.0], [np.nan, 2.0, 3.0]),
        ],
    )
    def test_rejects_non_finite_objectives(self, space, powers, rates):
        a = EpsilonArchive(space)
        g = space.sample_genomes(np.random.default_rng(0), 3)
        with pytest.raises(ValueError, match="finite"):
            a.insert(g, np.array(powers), np.array(rates))
        assert len(a) == 0

    def test_powers_and_rates_strictly_increasing(self, space):
        k = make_kernel()
        a = EpsilonArchive(space)
        g, pw, rt = _evaluated(space, k, seed=0, n=120)
        a.insert(g, pw, rt)
        assert len(a) > 0
        assert np.all(np.diff(a.powers) > 0)
        assert np.all(np.diff(a.performances) > 0)

    def test_exact_mode_keeps_exactly_the_nondominated_set(self, space):
        k = make_kernel()
        a = EpsilonArchive(space, epsilon=0.0)
        g, pw, rt = _evaluated(space, k, seed=1, n=80)
        a.insert(g, pw, rt)
        mask = _exact_nondominated_mask(pw, rt)
        expected = set(zip(pw[mask], rt[mask]))
        got = set(zip(a.powers, a.performances))
        assert got == expected

    def test_best_under_cap_and_indices(self, space):
        k = make_kernel()
        a = EpsilonArchive(space)
        g, pw, rt = _evaluated(space, k, seed=2, n=120)
        a.insert(g, pw, rt)
        f = a.to_frontier()
        below = f.best_under_cap(float(a.powers[0]) - 1e-9)
        assert below is None
        mid_cap = float(a.powers[len(a) // 2])
        pt = f.best_under_cap(mid_cap)
        assert isinstance(pt, FrontierPoint)
        assert pt.power_w <= mid_cap
        assert pt.performance == a.performances[len(a) // 2]
        assert pt.config == a.configs()[len(a) // 2]
        idx = f.indices_under_caps(
            np.array([a.powers[0] - 1.0, mid_cap, a.powers[-1] + 1.0])
        )
        assert idx[0] == -1
        assert idx[1] == len(a) // 2
        assert idx[2] == len(a) - 1

    def test_to_frontier_round_trip(self, space):
        k = make_kernel()
        a = EpsilonArchive(space)
        g, pw, rt = _evaluated(space, k, seed=3, n=120)
        a.insert(g, pw, rt)
        f = a.to_frontier()
        assert isinstance(f, ParetoFrontier)
        assert np.array_equal(f.powers, a.powers)
        assert np.array_equal(f.performances, a.performances)
        assert f.configs() == a.configs()


class TestDeterminism:
    @pytest.mark.parametrize("epsilon", [0.0, 0.3])
    def test_genome_tie_break_matches_unique_ranking(self, epsilon):
        """Coarse objectives put many distinct genomes in one box; the
        smallest genome must win exactly as with ``np.unique`` ranks."""
        sp = demo_space()
        rng = np.random.default_rng(11)
        fast = EpsilonArchive(sp, epsilon=epsilon)
        slow = ReferenceArchive(sp, epsilon=epsilon)
        for _ in range(4):
            g = rng.integers(0, sp.radices, size=(150, sp.n_axes))
            pw = rng.integers(1, 6, size=150).astype(np.float64)
            rt = rng.integers(1, 6, size=150).astype(np.float64)
            fast.insert(g, pw, rt)
            slow.insert(g, pw, rt)
            assert np.array_equal(fast.genomes, slow.genomes)
            assert np.array_equal(fast.powers, slow.powers)
            assert np.array_equal(fast.performances, slow.performances)

    def test_insertion_order_independent(self, space):
        k = make_kernel()
        g, pw, rt = _evaluated(space, k, seed=4, n=200)
        whole = EpsilonArchive(space, epsilon=1e-4)
        whole.insert(g, pw, rt)

        perm = np.random.default_rng(9).permutation(len(g))
        batched = EpsilonArchive(space, epsilon=1e-4)
        for lo in range(0, len(g), 33):
            sel = perm[lo : lo + 33]
            batched.insert(g[sel], pw[sel], rt[sel])

        assert np.array_equal(whole.genomes, batched.genomes)
        assert np.array_equal(whole.powers, batched.powers)
        assert np.array_equal(whole.performances, batched.performances)

    def test_duplicate_reinsert_is_stable(self, space):
        k = make_kernel()
        g, pw, rt = _evaluated(space, k, seed=5, n=100)
        a = EpsilonArchive(space, epsilon=1e-3)
        a.insert(g, pw, rt)
        snap = (a.genomes.copy(), a.powers.copy(), a.performances.copy())
        a.insert(g, pw, rt)  # full duplicate batch
        assert np.array_equal(a.genomes, snap[0])
        assert np.array_equal(a.powers, snap[1])
        assert np.array_equal(a.performances, snap[2])


# ---------------------------------------------------------------------------
# Hypothesis properties (satellite requirement)
# ---------------------------------------------------------------------------


@st.composite
def _batches(draw):
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    n = draw(st.integers(min_value=1, max_value=150))
    epsilon = draw(st.sampled_from([0.0, 1e-5, 1e-4, 1e-2, 0.1]))
    return seed, n, epsilon


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(_batches())
    def test_archive_within_epsilon_of_every_seen_point(self, batch):
        """ε-coverage: for every inserted point there is an archived
        point with rate >= r/(1+ε) and power <= p*(1+ε)."""
        seed, n, epsilon = batch
        sp = paper_space()
        k = make_kernel()
        g, pw, rt = _evaluated(sp, k, seed=seed, n=n)
        a = EpsilonArchive(sp, epsilon=epsilon)
        a.insert(g, pw, rt)
        assert len(a) >= 1
        for p, r in zip(pw, rt):
            covered = np.any(
                (a.powers <= p * (1.0 + epsilon) * (1.0 + 1e-12))
                & (a.performances >= r / (1.0 + epsilon) * (1.0 - 1e-12))
            )
            assert covered, (p, r, epsilon)

    @settings(max_examples=60, deadline=None)
    @given(_batches())
    def test_archive_is_pairwise_nondominated(self, batch):
        seed, n, epsilon = batch
        sp = paper_space()
        g, pw, rt = _evaluated(sp, make_kernel(), seed=seed, n=n)
        a = EpsilonArchive(sp, epsilon=epsilon)
        a.insert(g, pw, rt)
        # Strictly increasing in both objectives => pairwise non-dominated.
        assert np.all(np.diff(a.powers) > 0)
        assert np.all(np.diff(a.performances) > 0)

    @settings(max_examples=60, deadline=None)
    @given(
        _batches(),
        st.floats(min_value=1.0, max_value=120.0),
    )
    def test_best_under_cap_never_exceeds_cap(self, batch, cap):
        seed, n, epsilon = batch
        sp = paper_space()
        g, pw, rt = _evaluated(sp, make_kernel(), seed=seed, n=n)
        a = EpsilonArchive(sp, epsilon=epsilon)
        a.insert(g, pw, rt)
        pt = a.to_frontier().best_under_cap(cap)
        if pt is not None:
            assert pt.power_w <= cap

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_per_seed_bit_identical(self, seed):
        sp = demo_space()
        k = make_kernel()

        def build():
            g, pw, rt = _evaluated(sp, k, seed=seed, n=400)
            a = EpsilonArchive(sp, epsilon=1e-4)
            a.insert(g, pw, rt)
            return a

        a, b = build(), build()
        assert np.array_equal(a.genomes, b.genomes)
        assert np.array_equal(a.powers, b.powers)
        assert np.array_equal(a.performances, b.performances)
