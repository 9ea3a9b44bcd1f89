"""Tests for energy-budgeted scheduling (repro.runtime.energy)."""

import pytest

from repro.core import train_model
from repro.hardware import NoiseModel, TrinityAPU
from repro.profiling import ProfilingLibrary
from repro.runtime import optimize_energy_budget
from repro.workloads import build_suite
from repro.hardware.backend import TRINITY_DESCRIPTOR

CPU_SAMPLE, GPU_SAMPLE = TRINITY_DESCRIPTOR.sample_configs()


@pytest.fixture(scope="module")
def setup():
    apu = TrinityAPU(noise=NoiseModel.exact(), seed=0)
    library = ProfilingLibrary(apu, seed=0)
    suite = build_suite()
    model = train_model(library, [k for k in suite if k.benchmark != "CoMD"])
    kernels = suite.for_group("CoMD Small")
    predictions = {}
    for k in kernels:
        cm = apu.run(k, CPU_SAMPLE)
        gm = apu.run(k, GPU_SAMPLE)
        predictions[k.uid] = model.predict_kernel(cm, gm, kernel_uid=k.uid)
    return apu, kernels, predictions


def _floor_energy(predictions):
    total = 0.0
    for p in predictions.values():
        total += min(
            pw / pf for pw, pf in p.predictions.values()
        )  # min energy = min power*time = min power/perf
    return total


class TestOptimizeEnergyBudget:
    def test_generous_budget_approaches_min_time(self, setup):
        _, _, predictions = setup
        schedule = optimize_energy_budget(predictions, budget_j=1e6)
        # With unlimited energy every kernel takes (nearly) its
        # fastest option; time is the sum of per-kernel minima over the
        # kernel's energy-time Pareto set.
        min_time = sum(
            min(1.0 / pf for _, pf in p.predictions.values())
            for p in predictions.values()
        )
        assert schedule.predicted_time_s <= min_time * 1.3
        assert schedule.predicted_energy_j <= 1e6

    def test_budget_respected_when_feasible(self, setup):
        _, _, predictions = setup
        floor = _floor_energy(predictions)
        for budget in (floor * 1.1, floor * 1.5, floor * 3.0):
            schedule = optimize_energy_budget(predictions, budget)
            assert schedule.predicted_energy_j <= budget * (1 + 1e-9)

    def test_infeasible_budget_returns_floor_assignment(self, setup):
        _, _, predictions = setup
        floor = _floor_energy(predictions)
        schedule = optimize_energy_budget(predictions, budget_j=floor * 0.5)
        assert schedule.predicted_energy_j > schedule.budget_j
        assert schedule.predicted_energy_j == pytest.approx(floor, rel=0.01)

    def test_time_monotone_in_budget(self, setup):
        _, _, predictions = setup
        floor = _floor_energy(predictions)
        times = [
            optimize_energy_budget(predictions, floor * s).predicted_time_s
            for s in (1.0, 1.2, 1.5, 2.0, 3.0, 10.0)
        ]
        assert times == sorted(times, reverse=True)

    def test_assignments_cover_all_kernels(self, setup):
        _, kernels, predictions = setup
        schedule = optimize_energy_budget(predictions, budget_j=100.0)
        assert set(schedule.assignments) == {k.uid for k in kernels}

    def test_predicted_totals_consistent_with_assignments(self, setup):
        _, _, predictions = setup
        schedule = optimize_energy_budget(predictions, budget_j=60.0)
        t = e = 0.0
        for uid, cfg in schedule.assignments.items():
            pw, pf = predictions[uid].predictions[cfg]
            t += 1.0 / pf
            e += pw / pf
        assert schedule.predicted_time_s == pytest.approx(t)
        assert schedule.predicted_energy_j == pytest.approx(e)

    def test_validation(self, setup):
        _, _, predictions = setup
        with pytest.raises(ValueError):
            optimize_energy_budget({}, 10.0)
        with pytest.raises(ValueError):
            optimize_energy_budget(predictions, 0.0)

    def test_ground_truth_energy_tracks_prediction(self, setup):
        """The schedule's *true* energy stays close to its prediction
        (the point of using the model)."""
        apu, kernels, predictions = setup
        by_uid = {k.uid: k for k in kernels}
        floor = _floor_energy(predictions)
        schedule = optimize_energy_budget(predictions, budget_j=floor * 1.4)
        true_energy = 0.0
        for uid, cfg in schedule.assignments.items():
            k = by_uid[uid]
            true_energy += apu.true_total_power_w(k, cfg) * apu.true_time_s(
                k, cfg
            )
        assert true_energy == pytest.approx(
            schedule.predicted_energy_j, rel=0.25
        )
