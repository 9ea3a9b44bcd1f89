"""Cross-cutting property-based tests (hypothesis).

Invariants that must hold for arbitrary inputs: metric aggregation,
scheduler selection, cluster allocation, and the frontier/cap algebra
they all share.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import NodeFrontier, NodeFrontierPoint
from repro.core import KernelPrediction, Scheduler
from repro.evaluation import CapEvaluation, summarize
from repro.hardware import Measurement
from repro.hardware.backend import TRINITY_DESCRIPTOR
from tests.allocation_reference import allocate_by_name, at_cap_reference, frontier_steps

_SPACE = list(TRINITY_DESCRIPTOR.config_space())


# -- strategies ----------------------------------------------------------------

@st.composite
def cap_records(draw, n_min=1, n_max=30):
    n = draw(st.integers(min_value=n_min, max_value=n_max))
    records = []
    for i in range(n):
        kernel_idx = draw(st.integers(min_value=0, max_value=4))
        cap = draw(st.floats(min_value=5.0, max_value=60.0))
        power = draw(st.floats(min_value=5.0, max_value=80.0))
        perf = draw(st.floats(min_value=0.01, max_value=10.0))
        o_power = draw(st.floats(min_value=5.0, max_value=60.0))
        o_perf = draw(st.floats(min_value=0.01, max_value=10.0))
        records.append(
            CapEvaluation(
                kernel_uid=f"b/i/k{kernel_idx}",
                benchmark="b",
                group="b i",
                time_weight=0.2,
                method="M",
                power_cap_w=cap,
                config=_SPACE[i % len(_SPACE)],
                power_w=power,
                performance=perf,
                oracle_config=_SPACE[0],
                oracle_power_w=o_power,
                oracle_performance=o_perf,
            )
        )
    return records


@st.composite
def predictions(draw):
    n = draw(st.integers(min_value=2, max_value=12))
    preds = {}
    for i in range(n):
        pw = draw(st.floats(min_value=5.0, max_value=60.0))
        pf = draw(st.floats(min_value=0.01, max_value=10.0))
        preds[_SPACE[i]] = (pw, pf)
    dummy = Measurement(
        config=_SPACE[0], time_s=1.0, cpu_plane_w=10.0, nbgpu_plane_w=5.0
    )
    return KernelPrediction(
        kernel_uid="k",
        cluster=0,
        predictions=preds,
        cpu_sample=dummy,
        gpu_sample=dummy,
    )


@st.composite
def node_frontiers(draw):
    n_nodes = draw(st.integers(min_value=1, max_value=5))
    frontiers = {}
    for i in range(n_nodes):
        n_pts = draw(st.integers(min_value=1, max_value=8))
        caps = sorted(
            draw(
                st.lists(
                    st.floats(min_value=5.0, max_value=50.0),
                    min_size=n_pts,
                    max_size=n_pts,
                    unique=True,
                )
            )
        )
        rate = 0.0
        pts = []
        for cap in caps:
            rate += draw(st.floats(min_value=0.01, max_value=2.0))
            pts.append(NodeFrontierPoint(cap_w=cap, expected_power_w=cap, rate=rate))
        frontiers[f"n{i}"] = NodeFrontier(pts)
    return frontiers


# -- metric properties -----------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(cap_records())
def test_metric_percentages_bounded(records):
    (s,) = summarize(records)
    assert 0.0 <= s.pct_under_limit <= 100.0
    for field in ("under_perf_pct", "under_power_pct", "over_power_pct",
                  "over_perf_pct"):
        v = getattr(s, field)
        assert math.isnan(v) or v >= 0.0
    assert s.n_cases == len(records)


@settings(max_examples=60, deadline=None)
@given(cap_records())
def test_metric_under_over_partition(records):
    (s,) = summarize(records)
    n_under = sum(r.under_limit for r in records)
    if n_under == 0:
        assert math.isnan(s.under_perf_pct)
    if n_under == len(records):
        assert math.isnan(s.over_perf_pct)
        assert s.pct_under_limit == pytest.approx(100.0)


@settings(max_examples=40, deadline=None)
@given(cap_records())
def test_metric_scaling_invariance(records):
    """Scaling every power by a constant leaves perf columns unchanged."""
    (base,) = summarize(records)
    scaled_records = [
        CapEvaluation(
            kernel_uid=r.kernel_uid,
            benchmark=r.benchmark,
            group=r.group,
            time_weight=r.time_weight,
            method=r.method,
            power_cap_w=r.power_cap_w * 2,
            config=r.config,
            power_w=r.power_w * 2,
            performance=r.performance,
            oracle_config=r.oracle_config,
            oracle_power_w=r.oracle_power_w * 2,
            oracle_performance=r.oracle_performance,
        )
        for r in records
    ]
    (scaled,) = summarize(scaled_records)
    assert scaled.pct_under_limit == pytest.approx(base.pct_under_limit)
    if not math.isnan(base.under_perf_pct):
        assert scaled.under_perf_pct == pytest.approx(base.under_perf_pct)
    if not math.isnan(base.over_power_pct):
        assert scaled.over_power_pct == pytest.approx(base.over_power_pct)


# -- scheduler properties ----------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(predictions(), st.floats(min_value=5.0, max_value=70.0))
def test_scheduler_feasible_selection_is_optimal(pred, cap):
    decision = Scheduler().select(pred, cap)
    feasible = [(pw, pf) for pw, pf in pred.predictions.values() if pw <= cap]
    if feasible:
        assert decision.predicted_feasible
        assert decision.predicted_performance == pytest.approx(
            max(pf for _, pf in feasible)
        )
    else:
        assert not decision.predicted_feasible
        assert decision.predicted_power_w == pytest.approx(
            min(pw for pw, _ in pred.predictions.values())
        )


@settings(max_examples=60, deadline=None)
@given(predictions(), st.floats(min_value=5.0, max_value=70.0))
def test_scheduler_monotone_in_cap(pred, cap):
    """A looser cap never yields worse predicted performance."""
    tight = Scheduler().select(pred, cap)
    loose = Scheduler().select(pred, cap * 1.5)
    if tight.predicted_feasible:
        assert loose.predicted_performance >= tight.predicted_performance - 1e-12


@settings(max_examples=60, deadline=None)
@given(predictions(), st.floats(min_value=10.0, max_value=60.0))
def test_scheduler_goal_consistency(pred, cap):
    """Among feasible configs, the energy goal's pick has minimal
    predicted energy and the edp goal's pick minimal predicted EDP."""
    feasible = [(pw, pf) for pw, pf in pred.predictions.values() if pw <= cap]
    if not feasible:
        return
    e = Scheduler("energy").select(pred, cap)
    assert e.predicted_power_w / e.predicted_performance == pytest.approx(
        min(pw / pf for pw, pf in feasible)
    )
    d = Scheduler("edp").select(pred, cap)
    assert d.predicted_power_w / d.predicted_performance**2 == pytest.approx(
        min(pw / (pf * pf) for pw, pf in feasible)
    )


# -- allocation properties -----------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(node_frontiers(), st.floats(min_value=10.0, max_value=300.0))
def test_allocations_respect_budget_and_cover_nodes(frontiers, budget):
    for policy in ("uniform", "greedy", "maxmin"):
        caps = allocate_by_name(budget, frontiers, policy)
        assert set(caps) == set(frontiers)
        assert sum(caps.values()) <= budget + 1e-6
        assert all(c > 0 for c in caps.values())


@st.composite
def concave_node_frontiers(draw):
    """Frontiers with decreasing marginal rate per watt (the regime in
    which greedy water-filling is provably optimal)."""
    n_nodes = draw(st.integers(min_value=1, max_value=4))
    frontiers = {}
    for i in range(n_nodes):
        n_steps = draw(st.integers(min_value=1, max_value=6))
        floor = draw(st.floats(min_value=5.0, max_value=15.0))
        step_powers = draw(
            st.lists(
                st.floats(min_value=1.0, max_value=10.0),
                min_size=n_steps,
                max_size=n_steps,
            )
        )
        utilities = sorted(
            draw(
                st.lists(
                    st.floats(min_value=0.01, max_value=1.0),
                    min_size=n_steps,
                    max_size=n_steps,
                )
            ),
            reverse=True,
        )
        cap, rate = floor, draw(st.floats(min_value=0.05, max_value=1.0))
        pts = [NodeFrontierPoint(cap_w=cap, expected_power_w=cap, rate=rate)]
        for dp, u in zip(step_powers, utilities):
            cap += dp
            rate += u * dp  # marginal rate/W = u, decreasing by sort
            pts.append(NodeFrontierPoint(cap_w=cap, expected_power_w=cap, rate=rate))
        frontiers[f"n{i}"] = NodeFrontier(pts)
    return frontiers


@settings(max_examples=60, deadline=None)
@given(concave_node_frontiers(), st.floats(min_value=30.0, max_value=200.0))
def test_greedy_within_one_step_of_uniform_on_concave_frontiers(
    frontiers, budget
):
    """Discrete frontier steps make the allocation a knapsack, so greedy
    carries the classic guarantee: within one step's value of optimal —
    hence within one step's value of uniform too (uniform <= optimal)."""

    def total_rate(caps):
        return sum(at_cap_reference(frontiers[n], c).rate for n, c in caps.items())

    greedy = allocate_by_name(budget, frontiers, "greedy")
    uniform = allocate_by_name(budget, frontiers, "uniform")
    # Comparison is meaningful only when uniform's share covers every
    # node's floor (otherwise the cap lookup clamps uniform up to the floor,
    # granting it power greedy honestly accounted for).
    floors_ok = all(uniform[n] >= frontiers[n].min_cap_w for n in frontiers)
    if not floors_ok:
        return
    max_step_gain = max(
        (dr for f in frontiers.values() for _, dr, _ in frontier_steps(f)),
        default=0.0,
    )
    assert total_rate(greedy) >= total_rate(uniform) - max_step_gain - 1e-9


# -- energy-budget optimizer properties ------------------------------------------

@settings(max_examples=50, deadline=None)
@given(
    st.lists(predictions(), min_size=1, max_size=4),
    st.floats(min_value=0.5, max_value=200.0),
)
def test_energy_optimizer_invariants(pred_list, budget):
    from repro.runtime import optimize_energy_budget

    preds = {f"k{i}": p for i, p in enumerate(pred_list)}
    schedule = optimize_energy_budget(preds, budget)
    # Every kernel assigned a configuration from its own prediction set.
    assert set(schedule.assignments) == set(preds)
    for uid, cfg in schedule.assignments.items():
        assert cfg in preds[uid].predictions
    # Totals consistent with the assignment.
    t = sum(
        1.0 / preds[u].predictions[c][1] for u, c in schedule.assignments.items()
    )
    e = sum(
        preds[u].predictions[c][0] / preds[u].predictions[c][1]
        for u, c in schedule.assignments.items()
    )
    assert schedule.predicted_time_s == pytest.approx(t)
    assert schedule.predicted_energy_j == pytest.approx(e)
    # The floor assignment bounds energy from below.
    floor = sum(
        min(pw / pf for pw, pf in p.predictions.values()) for p in preds.values()
    )
    assert schedule.predicted_energy_j >= floor - 1e-9
    if floor <= budget:
        assert schedule.predicted_energy_j <= budget * (1 + 1e-9)


@settings(max_examples=50, deadline=None)
@given(st.lists(predictions(), min_size=1, max_size=3))
def test_energy_optimizer_monotone_in_budget(pred_list):
    from repro.runtime import optimize_energy_budget

    preds = {f"k{i}": p for i, p in enumerate(pred_list)}
    floor = sum(
        min(pw / pf for pw, pf in p.predictions.values()) for p in preds.values()
    )
    times = [
        optimize_energy_budget(preds, floor * s).predicted_time_s
        for s in (1.0, 1.5, 2.5, 10.0)
    ]
    assert all(times[i] >= times[i + 1] - 1e-9 for i in range(len(times) - 1))


@settings(max_examples=60, deadline=None)
@given(node_frontiers(), st.floats(min_value=30.0, max_value=200.0))
def test_maxmin_maximizes_worst_node_rate(frontiers, budget):
    def worst(caps):
        return min(at_cap_reference(frontiers[n], c).rate for n, c in caps.items())

    mm = allocate_by_name(budget, frontiers, "maxmin")
    gr = allocate_by_name(budget, frontiers, "greedy")
    assert worst(mm) >= worst(gr) - 1e-9
