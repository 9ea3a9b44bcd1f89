"""Energy-budgeted schedule optimization.

The paper's scheduler maximizes performance under a *power* cap; its
related work (Springer et al., PPoPP 2006 — paper reference [15])
solves the sibling problem: "given an energy budget, select ... an
appropriate number of nodes and a per-phase DVFS setting to minimize
application completion time."  Because our model predicts power *and*
time for every configuration, that problem is solvable directly on the
predicted frontiers — no extra profiling.

Formally: one application timestep invokes kernels ``k`` once each;
choosing configuration ``c`` for kernel ``k`` costs predicted time
``t_kc`` and energy ``e_kc = p_kc * t_kc``.  Minimize total time subject
to total energy <= budget.  Each kernel's (energy, time) options form a
Pareto set; the classic greedy walks the steepest time-per-joule
trade-offs first, which is optimal for the convex relaxation and the
standard heuristic for the discrete problem.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.core.frontier import pareto_staircase
from repro.core.predictor import KernelPrediction
from repro.hardware.config import Configuration

__all__ = ["EnergySchedule", "optimize_energy_budget"]


@dataclass(frozen=True)
class EnergySchedule:
    """Result of an energy-budget optimization for one timestep.

    Attributes
    ----------
    assignments:
        Chosen configuration per kernel uid.
    predicted_time_s:
        Total predicted timestep time.
    predicted_energy_j:
        Total predicted timestep energy.
    budget_j:
        The budget optimized against.
    """

    assignments: Mapping[str, Configuration]
    predicted_time_s: float
    predicted_energy_j: float
    budget_j: float


def _energy_time_options(
    prediction: KernelPrediction,
) -> list[tuple[float, float, Configuration]]:
    """A kernel's Pareto-optimal (energy, time, config) options, sorted
    by ascending energy with strictly decreasing time."""
    t = 1.0 / prediction.performance_array
    e = prediction.power_array * t
    configs = prediction.config_tuple
    # Negation is exact: the staircase of (energy, -time).
    return [
        (float(e[i]), float(t[i]), configs[i]) for i in pareto_staircase(e, -t).tolist()
    ]


def optimize_energy_budget(
    predictions: Mapping[str, KernelPrediction],
    budget_j: float,
) -> EnergySchedule:
    """Choose per-kernel configurations minimizing predicted time under
    a per-timestep energy budget.

    Greedy on marginal time-saved-per-joule over each kernel's
    energy-time Pareto set.  If even the minimum-energy assignment
    exceeds the budget, that assignment is returned, its predicted
    energy over ``budget_j`` (the work must still run).
    """
    if not predictions:
        raise ValueError("need at least one kernel prediction")
    if budget_j <= 0:
        raise ValueError("budget_j must be positive")

    options = {uid: _energy_time_options(p) for uid, p in predictions.items()}
    # Start every kernel at its minimum-energy option.
    cursor = {uid: 0 for uid in options}
    energy = sum(opts[0][0] for opts in options.values())
    time = sum(opts[0][1] for opts in options.values())

    remaining = budget_j - energy
    if remaining > 0:
        # Steps: moving kernel uid from option i to i+1 costs
        # delta-e and saves delta-t; take best savings-per-joule first.
        import heapq

        heap: list[tuple[float, str]] = []

        def push(uid: str) -> None:
            i = cursor[uid]
            opts = options[uid]
            if i + 1 < len(opts):
                de = opts[i + 1][0] - opts[i][0]
                dt = opts[i][1] - opts[i + 1][1]
                if de <= 0:  # strictly cheaper and faster: take freely
                    heapq.heappush(heap, (-float("inf"), uid))
                else:
                    heapq.heappush(heap, (-dt / de, uid))

        for uid in options:
            push(uid)
        while heap:
            _, uid = heapq.heappop(heap)
            i = cursor[uid]
            opts = options[uid]
            de = opts[i + 1][0] - opts[i][0]
            dt = opts[i][1] - opts[i + 1][1]
            if de > remaining:
                continue
            remaining -= de
            energy += de
            time -= dt
            cursor[uid] += 1
            push(uid)

    assignments = {
        uid: options[uid][cursor[uid]][2] for uid in options
    }
    return EnergySchedule(
        assignments=assignments,
        predicted_time_s=time,
        predicted_energy_j=energy,
        budget_j=budget_j,
    )
