"""Tests for repro.core.frontier."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ParetoFrontier
from repro.core.frontier import FrontierPoint
from repro.hardware import Measurement, NoiseModel, TrinityAPU
from repro.workloads import build_suite
from tests.conftest import cpu_config


def _point(power, perf, cfg=None):
    return FrontierPoint(
        config=cfg or cpu_config(1.4, 1), power_w=power, performance=perf
    )


def _frontier(points):
    """A frontier over FrontierPoint-shaped candidates."""
    return ParetoFrontier.from_arrays(
        [p.config for p in points],
        [p.power_w for p in points],
        [p.performance for p in points],
    )


def _configs(n):
    """n distinct configurations."""
    space = list(TrinityAPU().config_space)
    return space[:n]


def test_dominated_points_removed():
    cfgs = _configs(3)
    pts = [
        _point(10.0, 1.0, cfgs[0]),
        _point(12.0, 0.5, cfgs[1]),  # dominated: more power, less perf
        _point(15.0, 2.0, cfgs[2]),
    ]
    f = _frontier(pts)
    assert len(f) == 2
    assert f[0].power_w == 10.0 and f[1].power_w == 15.0


def test_equal_perf_higher_power_dominated():
    cfgs = _configs(2)
    f = _frontier([_point(10.0, 1.0, cfgs[0]), _point(12.0, 1.0, cfgs[1])])
    assert len(f) == 1
    assert f[0].power_w == 10.0


def test_equal_power_keeps_best_perf():
    cfgs = _configs(2)
    f = _frontier([_point(10.0, 1.0, cfgs[0]), _point(10.0, 2.0, cfgs[1])])
    assert len(f) == 1
    assert f[0].performance == 2.0


def test_frontier_sorted_and_strictly_increasing():
    suite = build_suite()
    apu = TrinityAPU(noise=NoiseModel.exact())
    k = suite.get("LULESH/Small/CalcFBHourglassForce")
    f = ParetoFrontier.from_measurements(apu.run_all_configs(k))
    powers = [p.power_w for p in f]
    perfs = [p.performance for p in f]
    assert powers == sorted(powers)
    assert all(perfs[i] < perfs[i + 1] for i in range(len(perfs) - 1))


def test_best_under_cap():
    cfgs = _configs(3)
    f = _frontier(
        [_point(10.0, 1.0, cfgs[0]), _point(20.0, 2.0, cfgs[1]),
         _point(30.0, 3.0, cfgs[2])]
    )
    assert f.best_under_cap(9.0) is None
    assert f.best_under_cap(10.0).performance == 1.0
    assert f.best_under_cap(25.0).performance == 2.0
    assert f.best_under_cap(100.0).performance == 3.0


def test_normalized_presentation():
    cfgs = _configs(2)
    f = _frontier([_point(10.0, 2.0, cfgs[0]), _point(20.0, 4.0, cfgs[1])])
    norm = f.normalized()
    assert norm[0][2] == pytest.approx(0.5)
    assert norm[-1][2] == pytest.approx(1.0)


def test_empty_frontier_rejected():
    with pytest.raises(ValueError, match="at least one"):
        ParetoFrontier.from_arrays([], np.empty(0), np.empty(0))


def test_invalid_point_rejected():
    with pytest.raises(ValueError):
        _point(0.0, 1.0)
    with pytest.raises(ValueError):
        _point(1.0, -1.0)
    cfgs = _configs(2)
    with pytest.raises(ValueError, match="power_w=0.0"):
        ParetoFrontier.from_arrays(cfgs, [10.0, 0.0], [1.0, 2.0])
    with pytest.raises(ValueError, match="performance=-1.0"):
        ParetoFrontier.from_arrays(cfgs, [10.0, 20.0], [1.0, -1.0])


def test_properties():
    cfgs = _configs(2)
    f = _frontier([_point(10.0, 1.0, cfgs[0]), _point(20.0, 2.0, cfgs[1])])
    assert f.min_power_w == 10.0
    assert f.max_performance == 2.0
    assert f.configs() == [cfgs[0], cfgs[1]]


def test_from_predictions():
    # A prediction's frontier drops the dominated configurations.
    from repro.core import KernelPrediction
    from repro.faults import conservative_measurement

    cfgs = _configs(3)
    prediction = KernelPrediction.from_arrays(
        kernel_uid="k",
        cluster=0,
        configs=tuple(cfgs),
        index={c: i for i, c in enumerate(cfgs)},
        power_w=np.array([10.0, 20.0, 15.0]),
        performance=np.array([1.0, 0.5, 2.0]),
        cpu_sample=conservative_measurement(cfgs[0]),
        gpu_sample=conservative_measurement(cfgs[1]),
    )
    f = prediction.predicted_frontier()
    assert len(f) == 2  # cfgs[1] dominated by cfgs[2]
    assert f.configs() == [cfgs[0], cfgs[2]]


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(min_value=1.0, max_value=100.0),
            st.floats(min_value=0.01, max_value=10.0),
        ),
        min_size=1,
        max_size=40,
    )
)
def test_property_frontier_invariants(raw):
    space = list(TrinityAPU().config_space)
    pts = [
        _point(pw, pf, space[i % len(space)]) for i, (pw, pf) in enumerate(raw)
    ]
    f = _frontier(pts)
    powers = [p.power_w for p in f]
    perfs = [p.performance for p in f]
    # Invariant 1: sorted by power, strictly increasing performance.
    assert powers == sorted(powers)
    assert all(perfs[i] < perfs[i + 1] for i in range(len(perfs) - 1))
    # Invariant 2: every input point is dominated by or on the frontier.
    for p in pts:
        on = any(
            q.power_w <= p.power_w and q.performance >= p.performance for q in f
        )
        assert on
    # Invariant 3: best_under_cap agrees with brute force.
    for cap in (0.5, 10.0, 50.0, 200.0):
        best = f.best_under_cap(cap)
        feasible = [q for q in f if q.power_w <= cap]
        if not feasible:
            assert best is None
        else:
            assert best.performance == max(q.performance for q in feasible)


# ---------------------------------------------------------------------------
# Tie handling (regression): search archives feed frontiers batches full
# of exact ties, so the tie-breaks must be explicit and order-free.
# ---------------------------------------------------------------------------


class TestTieHandling:
    def test_equal_power_tie_keeps_higher_perf_any_order(self):
        cfgs = _configs(2)
        a = _point(10.0, 1.0, cfgs[0])
        b = _point(10.0, 2.0, cfgs[1])
        for pts in ([a, b], [b, a]):
            f = _frontier(pts)
            assert len(f) == 1
            assert f[0].performance == 2.0
            assert f[0].config == cfgs[1]

    def test_equal_perf_tie_keeps_lower_power_any_order(self):
        cfgs = _configs(2)
        a = _point(10.0, 1.0, cfgs[0])
        b = _point(12.0, 1.0, cfgs[1])
        for pts in ([a, b], [b, a]):
            f = _frontier(pts)
            assert len(f) == 1
            assert f[0].power_w == 10.0
            assert f[0].config == cfgs[0]

    def test_exact_duplicate_keeps_earliest_input(self):
        cfgs = _configs(2)
        a = _point(10.0, 1.0, cfgs[0])
        b = _point(10.0, 1.0, cfgs[1])
        f = _frontier([a, b])
        assert len(f) == 1
        assert f[0].config == cfgs[0]  # stable sort: first input wins
        g = _frontier([b, a])
        assert g[0].config == cfgs[1]

    def test_three_way_tie_column(self):
        cfgs = _configs(3)
        pts = [
            _point(10.0, 1.0, cfgs[0]),
            _point(10.0, 3.0, cfgs[1]),
            _point(10.0, 2.0, cfgs[2]),
        ]
        f = _frontier(pts)
        assert len(f) == 1
        assert f[0].performance == 3.0
