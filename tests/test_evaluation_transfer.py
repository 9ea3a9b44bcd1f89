"""Cross-architecture transfer harness (repro.evaluation.transfer)."""

from __future__ import annotations

import math

import pytest

from repro.evaluation.transfer import (
    DEFAULT_KS,
    TransferReport,
    _lsq_gain,
    recalibration_configs,
    run_transfer,
)
from repro.hardware.backend import create_backend
from repro.telemetry import counter
from repro.workloads import build_suite


@pytest.fixture(scope="module")
def small_suite():
    suite = build_suite()
    return [suite.get(uid) for uid in (
        "LU/Small/LUDecomposition",
        "LU/Large/LUDecomposition",
        "CoMD/Small/LJForce",
        "CoMD/Large/EAMForce",
        "LULESH/Small/CalcFBHourglassForce",
        "SMC/Ref/UpdateRK3",
    )]


@pytest.fixture(scope="module")
def report(small_suite):
    return run_transfer("trinity", "biglittle", seed=0, suite=small_suite)


class TestRecalibrationConfigs:
    def test_zero_budget_picks_nothing(self):
        space = create_backend("biglittle").config_space
        assert recalibration_configs(space, 0) == ((), ())

    def test_picks_k_per_block_excluding_samples(self):
        space = create_backend("biglittle").config_space
        samples = set(space.descriptor.sample_configs())
        for k in (1, 3, 5):
            cpu_cfgs, gpu_cfgs = recalibration_configs(space, k)
            assert len(cpu_cfgs) == k and len(gpu_cfgs) == k
            assert not (set(cpu_cfgs) | set(gpu_cfgs)) & samples
            assert all(not c.is_gpu for c in cpu_cfgs)
            assert all(c.is_gpu for c in gpu_cfgs)

    def test_selection_is_deterministic(self):
        space = create_backend("mpsoc").config_space
        assert recalibration_configs(space, 3) == recalibration_configs(
            space, 3
        )

    def test_budget_clamps_to_block_size(self):
        space = create_backend("mpsoc").config_space
        cpu_cfgs, gpu_cfgs = recalibration_configs(space, 1000)
        assert len(cpu_cfgs) < 1000 and len(gpu_cfgs) < 1000
        assert len(set(cpu_cfgs)) == len(cpu_cfgs)

    def test_negative_budget_rejected(self):
        space = create_backend("mpsoc").config_space
        with pytest.raises(ValueError):
            recalibration_configs(space, -1)


class TestLsqGain:
    def test_exact_scale_recovered(self):
        assert _lsq_gain([1.0, 2.0, 3.0], [2.0, 4.0, 6.0]) == pytest.approx(2.0)

    def test_degenerate_predictions_fall_back_to_identity(self):
        assert _lsq_gain([0.0, 0.0], [5.0, 6.0]) == 1.0

    def test_negative_gain_falls_back_to_identity(self):
        assert _lsq_gain([1.0, 1.0], [-5.0, -6.0]) == 1.0


class TestRunTransfer:
    def test_report_shape(self, report):
        assert isinstance(report, TransferReport)
        assert report.ks == DEFAULT_KS
        assert tuple(p.k for p in report.transferred) == DEFAULT_KS
        assert report.native.k is None
        assert report.point(0).recalibration_runs == 0

    def test_recalibration_improves_power_accuracy(self, report):
        zero_shot = report.point(0)
        recalibrated = report.point(max(report.ks))
        assert recalibrated.power_mape < zero_shot.power_mape

    def test_native_model_beats_transfer(self, report):
        best = min(p.power_mape for p in report.transferred)
        assert report.native.power_mape < best
        assert report.native.pct_under_limit >= max(
            p.pct_under_limit for p in report.transferred
        )

    def test_metrics_are_finite_and_bounded(self, report):
        for p in (*report.transferred, report.native):
            assert math.isfinite(p.power_mape) and p.power_mape >= 0
            assert math.isfinite(p.perf_mape) and p.perf_mape >= 0
            assert -1.0 <= p.perf_rank_tau <= 1.0
            assert 0.0 <= p.pct_under_limit <= 100.0
            assert p.n_cases > 0

    def test_recalibration_runs_counted(self, small_suite):
        before = counter("transfer.recalibration_samples").value
        r = run_transfer(
            "trinity", "mpsoc", ks=(2,), seed=0, suite=small_suite
        )
        delta = counter("transfer.recalibration_samples").value - before
        # 2 per block x 2 blocks x kernels, all on the telemetry counter.
        assert delta == 4 * len(small_suite)
        assert r.point(2).recalibration_runs == delta

    def test_same_backend_rejected(self):
        with pytest.raises(ValueError):
            run_transfer("trinity", "trinity")

    def test_to_dict_round_trips(self, report):
        d = report.to_dict()
        assert d["train_backend"] == "trinity"
        assert d["eval_backend"] == "biglittle"
        assert len(d["transferred"]) == len(report.transferred)
        assert d["native"]["k"] is None

    def test_drivers_are_reported(self, report):
        for p in (*report.transferred, report.native):
            assert 0.0 <= p.fallback_pct <= 100.0
            assert 0.0 < p.top_config_share_pct <= 100.0
            assert p.top_config
        row = report.to_dict()["transferred"][0]
        point = report.transferred[0]
        assert row["fallback_pct"] == point.fallback_pct
        assert row["top_config"] == point.top_config
        assert row["top_config_share_pct"] == point.top_config_share_pct

    def test_one_configuration_dominates_biglittle_at_every_k(self):
        # The transplanted model picks the LITTLE cluster's 1.6 GHz x 4
        # configuration in more than nine cases of ten at every
        # recalibration budget.
        r = run_transfer("trinity", "biglittle", seed=0)
        descriptor = create_backend("biglittle").config_space.descriptor
        label = next(
            c.label() for c in descriptor.enumerate_configs()
            if not c.is_gpu and c.cpu_freq_ghz == 1.6 and c.n_threads == 4
        )
        for p in r.transferred:
            assert p.top_config == label, p.k
            assert p.top_config_share_pct > 90.0, p.k
        assert r.native.top_config != label

    def test_biglittle_compliance_is_the_cpu_sample_compliance(self):
        # Pins the trinity -> big.LITTLE anomaly: the transplanted model
        # predicts the CPU sample configuration as the lowest-power one
        # for every kernel, and zero-shot compliance equals the share of
        # oracle caps that the CPU sample's true power respects.  A fix
        # for the transplanted slope must change this test on purpose.
        import numpy as np

        from repro.constants import respects_cap
        from repro.core import AdaptiveModel
        from repro.evaluation.transfer import _transplant
        from repro.methods import Oracle
        from repro.profiling import CharacterizationStore

        r = run_transfer("trinity", "biglittle", ks=(0,), seed=0)
        kernels = list(build_suite())
        source = create_backend("trinity", seed=0)
        target = create_backend("biglittle", seed=0)
        store_a = CharacterizationStore.shared(kernels, seed=0, backend="trinity")
        store_b = CharacterizationStore.shared(
            kernels, seed=0, backend="biglittle"
        )
        model = _transplant(
            AdaptiveModel.train(
                store_a.characterize(kernels), config_space=source.config_space
            ),
            target.config_space,
        )
        cpu_sample, _ = target.descriptor.sample_configs()
        assert cpu_sample.label() == "little 1.60GHz x4"
        oracle = Oracle(target)
        under = cases = 0
        for kernel in kernels:
            chars = store_b.characterization(kernel)
            pred = model.predict_kernel(
                chars.cpu_sample, chars.gpu_sample, kernel_uid=kernel.uid
            )
            assert pred.config_at(int(np.argmin(pred.power_array))) == cpu_sample
            power = target.true_total_power_w(kernel, cpu_sample)
            for cap in oracle.caps_for(kernel):
                cases += 1
                under += respects_cap(power, cap)
        assert len(kernels) == 65
        assert (under, cases) == (388, 1357)
        assert r.transferred[0].n_cases == cases
        assert r.transferred[0].pct_under_limit == 100.0 * under / cases

    def test_mpsoc_transfer_anti_ranks_power_and_loses_compliance_with_k(self):
        # Pins the trinity -> MPSoC anomaly: the zero-shot transplanted
        # model ranks every kernel's configurations backwards in power
        # (Kendall tau < 0 on all 65 kernels, mean -0.283), and
        # recalibration makes compliance strictly worse as k grows.  A
        # fix for the transplanted slope must change this test on purpose.
        import numpy as np

        from repro.core import AdaptiveModel
        from repro.evaluation.transfer import _transplant
        from repro.profiling import CharacterizationStore
        from repro.stats.kendall import kendall_tau

        r = run_transfer("trinity", "mpsoc", ks=(0, 1, 3, 5), seed=0)
        kernels = list(build_suite())
        source = create_backend("trinity", seed=0)
        target = create_backend("mpsoc", seed=0)
        store_a = CharacterizationStore.shared(kernels, seed=0, backend="trinity")
        store_b = CharacterizationStore.shared(kernels, seed=0, backend="mpsoc")
        model = _transplant(
            AdaptiveModel.train(
                store_a.characterize(kernels), config_space=source.config_space
            ),
            target.config_space,
        )
        taus = []
        for kernel in kernels:
            chars = store_b.characterization(kernel)
            pred = model.predict_kernel(
                chars.cpu_sample, chars.gpu_sample, kernel_uid=kernel.uid
            )
            truth = [target.true_total_power_w(kernel, c) for c in pred.config_tuple]
            taus.append(kendall_tau(pred.power_array, truth))
        assert len(taus) == 65
        assert max(taus) < 0.0
        assert np.mean(taus) == pytest.approx(-0.283, abs=5e-4)
        under = [(p.k, round(p.pct_under_limit * p.n_cases / 100.0)) for p in r.transferred]
        assert under == [(0, 461), (1, 358), (3, 345), (5, 340)]
        assert {p.n_cases for p in r.transferred} == {789}
        pcts = [p.pct_under_limit for p in r.transferred]
        assert pcts == sorted(pcts, reverse=True) and len(set(pcts)) == 4
        assert pcts[0] == pytest.approx(58.428, abs=5e-4)
        assert pcts[-1] == pytest.approx(43.093, abs=5e-4)

    def test_deterministic_given_seed(self, small_suite):
        a = run_transfer("trinity", "mpsoc", ks=(0, 1), seed=3, suite=small_suite)
        b = run_transfer("trinity", "mpsoc", ks=(0, 1), seed=3, suite=small_suite)
        assert a.to_dict() == b.to_dict()


class TestScoreCapRule:
    """Transfer scoring judges compliance with ``respects_cap``."""

    @staticmethod
    def _score_pick(picked: str, powers: dict, cap: float):
        from types import SimpleNamespace

        import numpy as np

        from repro.evaluation.transfer import _Accumulator, _score

        perf = {"edge": 1.0, "over": 2.0}
        configs = tuple(powers)
        prediction = SimpleNamespace(
            config_tuple=configs,
            power_array=np.array([powers[c] for c in configs]),
            performance_array=np.array([perf[c] for c in configs]),
        )
        apu = SimpleNamespace(
            true_total_power_w=lambda kernel, c: powers[c],
            true_performance=lambda kernel, c: perf[c],
        )
        scheduler = SimpleNamespace(
            select_many=lambda pred, caps, risk_margin: [
                SimpleNamespace(config=picked, predicted_feasible=True)
                for _ in caps
            ]
        )
        oracle = SimpleNamespace(
            decide_many=lambda kernel, caps: [
                SimpleNamespace(config="edge") for _ in caps
            ]
        )
        acc = _Accumulator()
        _score(acc, prediction, None, apu, oracle, scheduler, [cap])
        return acc

    def test_power_exactly_at_the_tolerance_is_under_the_cap(self):
        from repro.constants import CAP_EPSILON, respects_cap

        cap = 37.5
        edge = cap * (1.0 + CAP_EPSILON)
        over = math.nextafter(edge, math.inf)
        assert respects_cap(edge, cap) and not respects_cap(over, cap)
        powers = {"edge": edge, "over": over}
        at_edge = self._score_pick("edge", powers, cap)
        assert (at_edge.cases, at_edge.under) == (1, 1)
        beyond = self._score_pick("over", powers, cap)
        assert (beyond.cases, beyond.under) == (1, 0)
