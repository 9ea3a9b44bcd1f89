"""Equivalence tests for the array-backed prediction engine.

The vectorized engine — :class:`repro.core.configspace.ConfigTable`,
the argsort/running-max :class:`~repro.core.frontier.ParetoFrontier`,
and :meth:`Scheduler.select_many` — replaced per-``Configuration`` dict
loops.  These tests pin the new code to the legacy scalar semantics:
same frontier points in the same order under ties, same
``best_under_cap`` answers, and decisions identical to
per-cap :meth:`Scheduler.select` across the paper's fig5/fig6 cap
sweep, including the risk-averse branch.  The reference implementations
below are verbatim ports of the pre-vectorization code.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Scheduler, train_model
from repro.core.frontier import ParetoFrontier
from repro.core.scheduler import SchedulerDecision, _objective
from repro.hardware import NoiseModel, TrinityAPU
from repro.methods import Oracle
from repro.profiling import ProfilingLibrary
from repro.workloads import build_suite
from repro.hardware.backend import TRINITY_DESCRIPTOR

CPU_SAMPLE, GPU_SAMPLE = TRINITY_DESCRIPTOR.sample_configs()

_SPACE = list(TRINITY_DESCRIPTOR.config_space())


# -- legacy reference implementations (pre-vectorization, verbatim) -----------


def _legacy_frontier(points):
    """The legacy loop: sort by (power, -perf), keep strictly improving
    performance.  Returns (config, power, perf) triples in order."""
    candidates = sorted(points, key=lambda p: (p[1], -p[2]))
    frontier = []
    best_perf = 0.0
    for p in candidates:
        if p[2] > best_perf:
            frontier.append(p)
            best_perf = p[2]
    return frontier


def _legacy_select(
    scheduler,
    prediction,
    power_cap_w,
    *,
    risk_averse=False,
    confidence_z=1.0,
):
    """The legacy scalar selection loop (dict iteration, first-wins
    ties) replaced by the vectorized :meth:`Scheduler.select`."""
    effective_cap = power_cap_w * (1.0 - scheduler.risk_margin)
    best = None
    fallback = None
    for cfg, (pw, perf) in prediction.predictions.items():
        pw_bound, perf_bound = pw, perf
        if risk_averse:
            pw_std, perf_std = prediction.uncertainties[cfg]
            if not math.isnan(pw_std):
                pw_bound = pw + confidence_z * pw_std
            if not math.isnan(perf_std):
                perf_bound = max(perf - confidence_z * perf_std, 1e-9)
        decision = SchedulerDecision(
            config=cfg,
            predicted_power_w=pw,
            predicted_performance=perf,
            predicted_feasible=pw_bound <= effective_cap,
        )
        if decision.predicted_feasible:
            score = _objective(scheduler.goal, pw_bound, perf_bound)
            if best is None or score > best[0]:
                best = (score, decision)
        fb_score = -pw_bound
        if fallback is None or fb_score > fallback[0]:
            fallback = (fb_score, decision)
    return best[1] if best is not None else fallback[1]


# -- frontier property tests ---------------------------------------------------


@st.composite
def frontier_points(draw):
    """Random (config, power, perf) sets over distinct configurations.

    Values come from coarse grids so duplicated powers and performances
    — the tie cases that distinguish sort stabilities — are common.
    """
    n = draw(st.integers(min_value=1, max_value=len(_SPACE)))
    powers = draw(
        st.lists(
            st.integers(min_value=1, max_value=12).map(lambda v: v * 5.5),
            min_size=n,
            max_size=n,
        )
    )
    perfs = draw(
        st.lists(
            st.integers(min_value=1, max_value=12).map(lambda v: v * 0.25),
            min_size=n,
            max_size=n,
        )
    )
    return [(_SPACE[i], powers[i], perfs[i]) for i in range(n)]


class TestFrontierMatchesLegacyLoop:
    @given(points=frontier_points())
    @settings(max_examples=300, deadline=None)
    def test_same_points_same_order_same_ties(self, points):
        expected = _legacy_frontier(points)
        frontier = ParetoFrontier.from_arrays(*zip(*points))
        got = [(p.config, p.power_w, p.performance) for p in frontier]
        assert got == expected

    @given(points=frontier_points(), cap_step=st.integers(0, 13))
    @settings(max_examples=300, deadline=None)
    def test_best_under_cap_matches_legacy_scan(self, points, cap_step):
        cap = cap_step * 5.5 + 0.1  # straddles the power grid
        expected_points = _legacy_frontier(points)
        legacy_best = None
        for p in expected_points:  # legacy semantics: last point under cap
            if p[1] <= cap:
                legacy_best = p
            else:
                break
        frontier = ParetoFrontier.from_arrays(*zip(*points))
        best = frontier.best_under_cap(cap)
        if legacy_best is None:
            assert best is None
        else:
            assert (best.config, best.power_w, best.performance) == legacy_best


# -- scheduler equivalence over the fig5/fig6 sweep ---------------------------


@pytest.fixture(scope="module")
def sweep():
    """Predictions (with uncertainty) and oracle caps for every kernel
    of one held-out benchmark — the paper's fig5/fig6 protocol."""
    apu = TrinityAPU(noise=NoiseModel.exact(), seed=0)
    suite = build_suite()
    library = ProfilingLibrary(apu, seed=0)
    train = [k for k in suite if k.benchmark != "LU"]
    model = train_model(library, train)
    oracle = Oracle(apu)
    cases = []
    for kernel in suite.for_benchmark("LU"):
        cpu_m = apu.run(kernel, CPU_SAMPLE)
        gpu_m = apu.run(kernel, GPU_SAMPLE)
        prediction = model.predict_kernel(
            cpu_m, gpu_m, kernel_uid=kernel.uid, with_uncertainty=True
        )
        cases.append((prediction, oracle.caps_for(kernel)))
    return cases


class TestSelectManyMatchesPerCapSelect:
    def test_fig5_fig6_sweep_identical(self, sweep):
        scheduler = Scheduler()
        for prediction, caps in sweep:
            batched = scheduler.select_many(prediction, caps)
            for cap, got in zip(caps, batched):
                assert got == scheduler.select(prediction, cap)

    def test_sweep_identical_with_risk_margin(self, sweep):
        scheduler = Scheduler(risk_margin=0.1)
        for prediction, caps in sweep:
            batched = scheduler.select_many(prediction, caps)
            for cap, got in zip(caps, batched):
                assert got == scheduler.select(prediction, cap)

    @pytest.mark.parametrize("goal", ["performance", "energy", "edp"])
    def test_sweep_identical_across_goals(self, sweep, goal):
        scheduler = Scheduler(goal)
        prediction, caps = sweep[0]
        batched = scheduler.select_many(prediction, caps)
        for cap, got in zip(caps, batched):
            assert got == scheduler.select(prediction, cap)


class TestVectorizedSelectMatchesLegacyScalar:
    @pytest.mark.parametrize("goal", ["performance", "energy", "edp"])
    def test_plain_select_pins_to_legacy(self, sweep, goal):
        scheduler = Scheduler(goal)
        for prediction, caps in sweep:
            for cap in caps:
                assert scheduler.select(prediction, cap) == _legacy_select(
                    scheduler, prediction, cap
                )

    @pytest.mark.parametrize("confidence_z", [0.0, 1.0, 2.0])
    def test_risk_averse_select_pins_to_legacy(self, sweep, confidence_z):
        scheduler = Scheduler()
        for prediction, caps in sweep:
            for cap in caps:
                got = scheduler.select(
                    prediction, cap, risk_averse=True, confidence_z=confidence_z
                )
                expected = _legacy_select(
                    scheduler,
                    prediction,
                    cap,
                    risk_averse=True,
                    confidence_z=confidence_z,
                )
                assert got == expected

    def test_risk_averse_select_many_matches_per_cap(self, sweep):
        scheduler = Scheduler()
        for prediction, caps in sweep:
            batched = scheduler.select_many(
                prediction, caps, risk_averse=True, confidence_z=1.5
            )
            for cap, got in zip(caps, batched):
                assert got == scheduler.select(
                    prediction, cap, risk_averse=True, confidence_z=1.5
                )
