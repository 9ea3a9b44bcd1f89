"""Equivalence tests for the array-backed prediction engine.

The vectorized engine — :class:`repro.core.configspace.ConfigTable`,
the argsort/running-max :class:`~repro.core.frontier.ParetoFrontier`,
and :meth:`Scheduler.select_many` — replaced per-``Configuration`` dict
loops.  These tests pin the new code to the legacy scalar semantics:
same frontier points in the same order under ties, same
``best_under_cap`` answers, and decisions identical to the legacy
scalar selection loop across the paper's fig5/fig6 cap sweep and on
random tie-heavy predictions, including the risk-averse branch.
:meth:`Scheduler.select` is the one-cap case of ``select_many``, so the
legacy loop is the independent single-cap oracle.  The reference
implementations below are verbatim ports of the pre-vectorization code.
NaN predictions follow one rule, :func:`_prefix_best_reference`, on
every selection entry point.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import KernelPrediction, Scheduler, train_model
from repro.core.frontier import ParetoFrontier
from repro.core.scheduler import (
    SchedulerDecision,
    _objective,
    _prefix_best_reference,
)
from repro.hardware import Measurement, NoiseModel, TrinityAPU
from repro.methods import Oracle
from repro.profiling import ProfilingLibrary
from repro.server.engine import DecisionRequest, decide_batch
from repro.server.service import DecisionService
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
    ties) replaced by the cap-sweep table.  It agrees with the table on
    NaN-free predictions only: on NaN it follows Python's comparisons in
    prediction order, not :func:`_prefix_best_reference`'s."""
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


# -- the single-cap oracle on random tie-heavy predictions ---------------------

_DUMMY = Measurement(
    config=_SPACE[0], time_s=1.0, cpu_plane_w=10.0, nbgpu_plane_w=5.0
)


def _synthetic(powers, perfs, stds=None, uid="k"):
    n = len(powers)
    return KernelPrediction(
        kernel_uid=uid,
        cluster=0,
        predictions={_SPACE[i]: (powers[i], perfs[i]) for i in range(n)},
        cpu_sample=_DUMMY,
        gpu_sample=_DUMMY,
        uncertainties=(
            None if stds is None else {_SPACE[i]: stds[i] for i in range(n)}
        ),
    )


@st.composite
def tie_heavy_selections(draw):
    """A NaN-free prediction with uncertainties, drawn from coarse grids
    so equal powers, performances and scores are common, plus the
    selection settings and caps on (and one ulp around) every power,
    bounded power and margin-scaled threshold."""
    n = draw(st.integers(min_value=1, max_value=12))
    grid = st.sampled_from((5.0, 10.0, 10.0, 20.0, 12.5))
    powers = draw(st.lists(
        st.one_of(grid, st.floats(min_value=1.0, max_value=50.0)),
        min_size=n, max_size=n,
    ))
    perfs = draw(st.lists(
        st.one_of(st.sampled_from((0.5, 1.0, 1.0, 2.0)),
                  st.floats(min_value=0.01, max_value=10.0)),
        min_size=n, max_size=n,
    ))
    std = st.sampled_from((0.0, 0.5, 1.0, math.nan))
    stds = draw(st.lists(st.tuples(std, std), min_size=n, max_size=n))
    goal = draw(st.sampled_from(("performance", "energy", "edp")))
    margin = draw(st.one_of(
        st.sampled_from((0.0, 0.1, 0.5)), st.floats(min_value=0.0, max_value=0.5)
    ))
    risk_averse = draw(st.booleans())
    confidence_z = draw(st.sampled_from((0.0, 1.0, 2.0)))
    prediction = _synthetic(powers, perfs, stds)
    thresholds = list(powers)
    thresholds += [p + confidence_z * s for p, (s, _) in zip(powers, stds)]
    caps = [0.5, 100.0]
    for t in thresholds:
        if math.isfinite(t):
            for v in (t, t / (1.0 - margin)):
                caps += [v, math.nextafter(v, -math.inf), math.nextafter(v, math.inf)]
    return prediction, goal, margin, risk_averse, confidence_z, caps


class TestSelectMatchesLegacyOnRandomPredictions:
    """``select`` and ``select_many`` against the legacy scalar loop."""

    @settings(max_examples=300, deadline=None)
    @given(tie_heavy_selections())
    def test_every_goal_margin_and_bound(self, case):
        prediction, goal, margin, risk_averse, confidence_z, caps = case
        scheduler = Scheduler(goal, risk_margin=margin)
        kwargs = {"risk_averse": risk_averse, "confidence_z": confidence_z}
        want = [
            _legacy_select(scheduler, prediction, cap, **kwargs)
            for cap in caps
        ]
        assert scheduler.select_many(prediction, caps, **kwargs) == want
        for cap, expected in zip(caps, want):
            assert scheduler.select(prediction, cap, **kwargs) == expected


# -- one NaN rule on every entry point -----------------------------------------


class _FixedPredictor:
    """Stands in for the online predictor: serves given predictions."""

    def __init__(self, predictions):
        self.predictions = predictions

    def predict(self, kernel):
        return self.predictions[kernel.uid]


def _fixed_service(spec):
    """A warm service over synthetic predictions, ``{uid: (powers, perfs)}``."""
    predictions = {
        uid: _synthetic(powers, perfs, uid=uid) for uid, (powers, perfs) in spec.items()
    }
    service = DecisionService(
        None, None, kernels=[SimpleNamespace(uid=uid) for uid in predictions]
    )
    service._predictor = _FixedPredictor(predictions)
    assert service.warm() == {}
    return service


def _nan_rule_pick(prediction, cap):
    """The NaN rule spelled out: the prefix scan over ascending power,
    read at the last configuration the cap admits."""
    pw = prediction.power_array
    order = np.argsort(pw, kind="stable")
    best_at = _prefix_best_reference(order, prediction.performance_array)
    admitted = int(np.count_nonzero(pw <= cap))
    return prediction.config_at(int(best_at[admitted - 1]))


class TestOneNanRule:
    """A NaN performance on a feasible configuration, and a NaN power,
    resolve the same way through every selection entry point."""

    PREDICTIONS = {
        # The NaN-performance configuration (1) sits above the lowest
        # power, so it never wins; the NaN-power one (3) is never
        # feasible.
        "above": ([5.0, 6.0, 7.0, math.nan], [1.0, math.nan, 2.0, 3.0]),
        # The NaN-performance configuration is the lowest-power one, so
        # it wins every cap.
        "lowest": ([6.0, 5.0, 7.0, math.nan], [1.0, math.nan, 2.0, 3.0]),
    }
    CAPS = [5.0, 5.5, 6.0, 6.5, 7.0, 7.5, 10.0, 100.0]

    @pytest.fixture(scope="class")
    def service(self):
        return _fixed_service(self.PREDICTIONS)

    @pytest.mark.parametrize("uid", sorted(PREDICTIONS))
    def test_every_entry_point_gives_the_rule(self, service, uid):
        snap = service.snapshot
        prediction = snap.predictions[uid]
        scheduler = snap.scheduler
        swept = scheduler.select_many(prediction, self.CAPS)
        batch = decide_batch(
            scheduler, snap.predictions, [uid] * len(self.CAPS), self.CAPS
        )
        served = service.decide_batch(
            [DecisionRequest(uid, cap) for cap in self.CAPS]
        )
        configs = batch.configs()
        for j, cap in enumerate(self.CAPS):
            want = _nan_rule_pick(prediction, cap)
            single = scheduler.select(prediction, cap)
            assert single.config == want and single.predicted_feasible
            # repr: a NaN predicted performance equals itself there.
            assert repr(swept[j]) == repr(single)
            assert repr((
                configs[j],
                float(batch.predicted_power_w[j]),
                float(batch.predicted_performance[j]),
                bool(batch.feasible[j]),
            )) == repr((
                single.config,
                single.predicted_power_w,
                single.predicted_performance,
                single.predicted_feasible,
            ))
            one = service.decide(DecisionRequest(uid, cap))
            assert repr(served[j]) == repr(one)
            assert repr(tuple(one)[2:6]) == repr((
                want,
                single.predicted_power_w,
                single.predicted_performance,
                True,
            ))

    def test_nan_performance_wins_only_as_the_lowest_power(self, service):
        snap = service.snapshot
        above = [
            snap.scheduler.select(snap.predictions["above"], cap).config
            for cap in (6.5, 7.5, 10.0)
        ]
        assert above == [_SPACE[0], _SPACE[2], _SPACE[2]]
        lowest = {
            snap.scheduler.select(snap.predictions["lowest"], cap).config
            for cap in self.CAPS
        }
        assert lowest == {_SPACE[1]}


class TestNanPowerFallback:
    """A cap below every configuration falls back to the lowest non-NaN
    power, wherever the NaN-power configurations sit."""

    PREDICTIONS = {
        "nan-last": ([5.0, 6.0, math.nan], [1.0, 2.0, 3.0]),
        "nan-first": ([math.nan, 6.0, 5.0, math.nan], [3.0, 2.0, 1.0, 4.0]),
    }
    WANT = {"nan-last": 0, "nan-first": 2}

    @pytest.fixture(scope="class")
    def service(self):
        return _fixed_service(self.PREDICTIONS)

    @pytest.mark.parametrize("uid", sorted(PREDICTIONS))
    def test_every_entry_point_falls_back_past_nan(self, service, uid):
        snap = service.snapshot
        prediction = snap.predictions[uid]
        want = _SPACE[self.WANT[uid]]
        single = snap.scheduler.select(prediction, 4.0)
        assert single.config == want and not single.predicted_feasible
        assert single.predicted_power_w == 5.0
        swept = snap.scheduler.select_many(prediction, [4.0, 1.0])
        assert [d.config for d in swept] == [want, want]
        served = service.decide_batch([DecisionRequest(uid, 4.0)] * 2)
        assert [r.config for r in served] == [want, want]
        assert not any(r.feasible for r in served)
