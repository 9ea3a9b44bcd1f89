"""Decision service and batched engine: correctness and equivalence.

Four layers:

* **config** — the batching knobs' defaults, the derived queue bound,
  and typed errors on bad values;
* **engine** — ``decide_batch`` is element-identical to per-request
  ``Scheduler.select`` for any mix of kernels and caps, preserves
  request order, and rejects malformed batches;
* **service** — warm-up publishes immutable snapshots, per-request
  failures (unknown kernel, invalid cap, strict full quarantine)
  degrade that request only, and the typed
  :class:`NoFeasibleConfigError` replaces the historical ``IndexError``;
* **golden equivalence** — the server's answers for a LOOCV fold's
  (kernel, oracle-cap) pairs are bit-identical to the cross-validated
  evaluation's ``Model`` records, because both run the same
  ``decide_batch`` kernel on the same noise streams.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np
import pytest

import repro.telemetry as telemetry
from repro.core import AdaptiveModel, NoFeasibleConfigError, Scheduler
from repro.evaluation import run_loocv
from repro.methods import Oracle
from repro.profiling import CharacterizationStore, ProfilingLibrary
from repro.hardware import TrinityAPU
from repro.server.config import (
    DEFAULT_MAX_BATCH,
    DEFAULT_MAX_DELAY_US,
    DEFAULT_QUEUE_FACTOR,
    ServerConfig,
)
from repro.server.engine import DecisionRequest, decide_batch
from repro.server.service import (
    ERROR_INVALID_CAP,
    ERROR_NO_FEASIBLE_CONFIG,
    ERROR_UNKNOWN_KERNEL,
    DecisionService,
    build_default_service,
)
from repro.workloads import build_suite

PLAN_DIR = Path(__file__).parent / "fault_plans"


def counter_value(name: str) -> int:
    return telemetry.counter(name).value


@pytest.fixture(scope="module")
def suite():
    return build_suite()


@pytest.fixture(scope="module")
def trained(suite):
    """Full-suite model from the process-wide shared store."""
    kernels = list(suite)
    store = CharacterizationStore.shared(suite, seed=0)
    return AdaptiveModel.train(
        store.characterize(kernels),
        dissimilarity=store.dissimilarity_submatrix(kernels),
    )


def small_service(trained, suite, *, n=6, scheduler=None):
    """A service over a small kernel subset (fast to warm)."""
    kernels = list(suite)[:n]
    library = ProfilingLibrary(TrinityAPU(seed=0), seed=0)
    return DecisionService(
        trained, library, kernels=kernels, scheduler=scheduler
    )


@pytest.fixture(scope="module")
def warm_service(trained, suite):
    service = small_service(trained, suite)
    assert service.warm() == {}
    return service


# ---------------------------------------------------------------------------
# Config
# ---------------------------------------------------------------------------


class TestServerConfig:
    def test_defaults(self):
        cfg = ServerConfig()
        assert cfg.max_batch == DEFAULT_MAX_BATCH
        assert cfg.max_delay_us == DEFAULT_MAX_DELAY_US
        assert cfg.max_queue == DEFAULT_MAX_BATCH * DEFAULT_QUEUE_FACTOR

    def test_queue_bound_follows_max_batch(self):
        assert ServerConfig(max_batch=64).max_queue == 64 * DEFAULT_QUEUE_FACTOR
        assert ServerConfig(max_batch=64, max_queue=5).max_queue == 5

    def test_out_of_range_values_raise(self):
        with pytest.raises(ValueError):
            ServerConfig(max_batch=0)
        for window in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                ServerConfig(max_delay_us=window)
        with pytest.raises(ValueError):
            ServerConfig(max_queue=0)

    def test_max_delay_s(self):
        assert ServerConfig(max_delay_us=250.0).max_delay_s == pytest.approx(
            250e-6
        )


# ---------------------------------------------------------------------------
# The batched engine
# ---------------------------------------------------------------------------


class TestDecideBatch:
    def test_matches_per_request_select(self, warm_service):
        snap = warm_service.snapshot
        scheduler = snap.scheduler
        caps = [8.0, 12.5, 20.0, 33.3, 45.0, 80.0]
        uids = [
            uid for uid in warm_service.kernel_uids for _ in caps
        ]
        cap_arr = np.array(caps * len(warm_service.kernel_uids))
        batch = decide_batch(scheduler, snap.predictions, uids, cap_arr)
        assert len(batch) == len(uids)
        configs = batch.configs()
        for i, (uid, cap) in enumerate(zip(uids, cap_arr)):
            expected = scheduler.select(snap.predictions[uid], cap)
            assert configs[i] == expected.config
            assert batch.predicted_power_w[i] == expected.predicted_power_w
            assert batch.predicted_performance[i] == expected.predicted_performance
            assert batch.feasible[i] == expected.predicted_feasible

    def test_interleaved_kernels_keep_request_order(self, warm_service):
        snap = warm_service.snapshot
        rng = np.random.default_rng(7)
        uids = [
            warm_service.kernel_uids[i]
            for i in rng.integers(0, len(warm_service.kernel_uids), size=64)
        ]
        caps = rng.uniform(9.0, 50.0, size=64)
        batch = decide_batch(snap.scheduler, snap.predictions, uids, caps)
        assert list(batch.kernel_uids) == uids
        configs = batch.configs()
        for i in (0, 17, 40, 63):
            expected = snap.scheduler.select(
                snap.predictions[uids[i]], caps[i]
            )
            assert configs[i] == expected.config
            assert batch.predicted_power_w[i] == expected.predicted_power_w
            assert batch.feasible[i] == expected.predicted_feasible

    def test_memoized_tables_change_nothing(self, warm_service):
        snap = warm_service.snapshot
        uids = warm_service.kernel_uids * 3
        caps = np.linspace(9.0, 44.0, len(uids))
        fresh = decide_batch(snap.scheduler, snap.predictions, uids, caps)
        memo = decide_batch(
            snap.scheduler, snap.predictions, uids, caps, tables=snap.tables
        )
        np.testing.assert_array_equal(fresh.config_index, memo.config_index)
        np.testing.assert_array_equal(fresh.feasible, memo.feasible)

    def test_unknown_uid_raises_keyerror(self, warm_service):
        snap = warm_service.snapshot
        with pytest.raises(KeyError, match="nope"):
            decide_batch(snap.scheduler, snap.predictions, ["nope"], [20.0])

    def test_malformed_batches_rejected(self, warm_service):
        snap = warm_service.snapshot
        uid = warm_service.kernel_uids[0]
        with pytest.raises(ValueError, match="parallel"):
            decide_batch(snap.scheduler, snap.predictions, [uid], [1.0, 2.0])
        with pytest.raises(ValueError, match="positive"):
            decide_batch(snap.scheduler, snap.predictions, [uid], [0.0])

    def test_empty_batch(self, warm_service):
        snap = warm_service.snapshot
        batch = decide_batch(snap.scheduler, snap.predictions, [], [])
        assert len(batch) == 0
        assert batch.configs() == []

    def test_bulk_counters_match_per_request_totals(self, warm_service):
        snap = warm_service.snapshot
        uid = warm_service.kernel_uids[0]
        caps = [5.0, 30.0, 30.0, 5.0]  # 5 W is below any config's power
        before_sel = counter_value("scheduler.selections")
        before_fb = counter_value("scheduler.infeasible_fallbacks")
        batch = decide_batch(
            snap.scheduler, snap.predictions, [uid] * len(caps), caps
        )
        assert counter_value("scheduler.selections") - before_sel == len(caps)
        fallbacks = counter_value("scheduler.infeasible_fallbacks") - before_fb
        assert fallbacks == int(np.count_nonzero(~batch.feasible))


# ---------------------------------------------------------------------------
# The decision service
# ---------------------------------------------------------------------------


class TestDecisionService:
    def test_warm_publishes_versioned_snapshot(self, trained, suite):
        service = small_service(trained, suite, n=3)
        v0 = service.snapshot.version
        assert service.snapshot.predictions == {}
        assert service.warm() == {}
        snap = service.snapshot
        assert snap.version == v0 + 1
        assert set(snap.predictions) == set(service.kernel_uids)
        assert set(snap.tables) == set(service.kernel_uids)
        # Idempotent: re-warming publishes nothing new.
        assert service.warm() == {}
        assert service.snapshot.version == snap.version

    def test_snapshot_mappings_are_read_only(self, warm_service):
        snap = warm_service.snapshot
        with pytest.raises(TypeError):
            snap.predictions["x"] = None
        with pytest.raises(TypeError):
            snap.tables["x"] = None

    def test_warm_unknown_kernel_reported(self, warm_service):
        assert warm_service.warm(["nope"]) == {"nope": ERROR_UNKNOWN_KERNEL}

    def test_decide_matches_scheduler_select(self, warm_service):
        snap = warm_service.snapshot
        uid = warm_service.kernel_uids[2]
        result = warm_service.decide(DecisionRequest(uid, 25.0))
        expected = snap.scheduler.select(snap.predictions[uid], 25.0)
        assert result.ok
        assert result.config == expected.config
        assert result.predicted_power_w == expected.predicted_power_w
        assert result.feasible == expected.predicted_feasible

    def test_batch_matches_unbatched_decide(self, warm_service):
        rng = np.random.default_rng(3)
        requests = [
            DecisionRequest(
                warm_service.kernel_uids[
                    rng.integers(len(warm_service.kernel_uids))
                ],
                float(rng.uniform(9.0, 45.0)),
            )
            for _ in range(40)
        ]
        batched = warm_service.decide_batch(requests)
        for request, result in zip(requests, batched):
            assert result == warm_service.decide(request)

    def test_mixed_errors_degrade_per_request(self, warm_service):
        good_uid = warm_service.kernel_uids[0]
        requests = [
            DecisionRequest(good_uid, 25.0),
            DecisionRequest("nope", 25.0),
            DecisionRequest(good_uid, 0.0),
            DecisionRequest(good_uid, math.nan),
            DecisionRequest(good_uid, math.inf),
            DecisionRequest(good_uid, 30.0),
        ]
        errors_before = counter_value("server.errors")
        results = warm_service.decide_batch(requests)
        assert [r.error for r in results] == [
            None,
            ERROR_UNKNOWN_KERNEL,
            ERROR_INVALID_CAP,
            ERROR_INVALID_CAP,
            ERROR_INVALID_CAP,
            None,
        ]
        assert results[0].ok and results[0].config is not None
        assert results[1].config is None
        assert math.isnan(results[1].predicted_power_w)
        assert counter_value("server.errors") - errors_before == 4

    def test_telemetry_moves_per_batch(self, warm_service):
        requests = [
            DecisionRequest(warm_service.kernel_uids[0], 25.0)
            for _ in range(5)
        ]
        req_before = counter_value("server.requests")
        batch_before = counter_value("server.batches")
        size_before = telemetry.histogram("server.batch_size").count
        warm_service.decide_batch(requests)
        assert counter_value("server.requests") - req_before == 5
        assert counter_value("server.batches") - batch_before == 1
        assert telemetry.histogram("server.batch_size").count == size_before + 1


# ---------------------------------------------------------------------------
# Strict quarantine: the typed no-feasible-config path
# ---------------------------------------------------------------------------


class TestNoFeasibleConfig:
    def quarantine_everything(self, scheduler, prediction):
        for config in prediction.config_tuple:
            scheduler.quarantine(config)

    def test_select_raises_typed_error_not_indexerror(self, warm_service):
        snap = warm_service.snapshot
        prediction = snap.predictions[warm_service.kernel_uids[0]]
        scheduler = Scheduler(strict_quarantine=True)
        self.quarantine_everything(scheduler, prediction)
        with pytest.raises(NoFeasibleConfigError):
            scheduler.select(prediction, 30.0)
        with pytest.raises(NoFeasibleConfigError):
            scheduler.select_many(prediction, [30.0, 40.0])
        assert issubclass(NoFeasibleConfigError, RuntimeError)
        assert not issubclass(NoFeasibleConfigError, IndexError)

    def test_default_scheduler_survives_full_quarantine(self, warm_service):
        snap = warm_service.snapshot
        prediction = snap.predictions[warm_service.kernel_uids[0]]
        scheduler = Scheduler()
        self.quarantine_everything(scheduler, prediction)
        decision = scheduler.select(prediction, 30.0)
        assert decision.config in prediction.config_tuple

    def test_service_maps_to_per_request_error(self, trained, suite):
        service = small_service(
            trained, suite, n=2, scheduler=Scheduler(strict_quarantine=True)
        )
        assert service.warm() == {}
        uid = service.kernel_uids[0]
        ok = service.decide(DecisionRequest(uid, 30.0))
        assert ok.ok
        prediction = service.snapshot.predictions[uid]
        version = service.snapshot.version
        for config in prediction.config_tuple:
            service.quarantine(config)
        snap = service.snapshot
        assert snap.version > version
        assert snap.tables == {}  # warmed but unservable
        result = service.decide(DecisionRequest(uid, 30.0))
        assert not result.ok
        assert result.error == ERROR_NO_FEASIBLE_CONFIG
        batch = service.decide_batch(
            [DecisionRequest(u, 30.0) for u in service.kernel_uids]
        )
        assert [r.error for r in batch] == [ERROR_NO_FEASIBLE_CONFIG] * 2
        # Re-admitting the configurations restores service.
        service.clear_quarantine()
        assert set(service.snapshot.tables) == set(service.kernel_uids)
        assert service.decide(DecisionRequest(uid, 30.0)).ok


# ---------------------------------------------------------------------------
# Fault-plan degradation: requests degrade, batches never fail
# ---------------------------------------------------------------------------


class TestFaultDegradation:
    def test_faulted_sampling_degrades_requests_not_batches(self):
        service = build_default_service(
            seed=0, fault_plan=PLAN_DIR / "sensor_dropout.json"
        )
        uids = service.kernel_uids[:8]
        retries_before = counter_value("faults.retries")
        corrupt_before = counter_value("faults.corrupt_samples")
        assert service.warm(uids) == {}
        moved = (
            counter_value("faults.retries") - retries_before,
            counter_value("faults.corrupt_samples") - corrupt_before,
        )
        assert any(delta > 0 for delta in moved)
        results = service.decide_batch(
            [DecisionRequest(uid, 25.0) for uid in uids]
        )
        assert all(r.ok for r in results)


# ---------------------------------------------------------------------------
# Golden equivalence with the cross-validated evaluation
# ---------------------------------------------------------------------------


class TestGoldenEquivalence:
    def test_server_decisions_match_loocv_model_records(self, suite):
        report = run_loocv(seed=0)
        benchmarks = list(suite.benchmarks())
        fold_i, benchmark = 0, benchmarks[0]
        test_kernels = suite.for_benchmark(benchmark)

        # The fold's online noise stream, re-derived exactly as
        # run_loocv spawns it (first of the fold's four spawned
        # streams); sample noise is counter-based per (kernel, config,
        # repetition), so a fresh library replays the fold's draws.
        online_ss = (
            np.random.SeedSequence(0).spawn(len(benchmarks))[fold_i].spawn(4)[0]
        )
        apu = TrinityAPU(seed=0)
        service = DecisionService(
            report.fold_models[benchmark],
            ProfilingLibrary(apu, seed=online_ss),
            kernels=test_kernels,
        )
        assert service.warm() == {}

        oracle = Oracle(apu)
        requests = []
        expected = []
        model_records = {
            (r.kernel_uid, r.power_cap_w): r
            for r in report.records
            if r.method == "Model" and r.benchmark == benchmark
        }
        for kernel in test_kernels:
            for cap in oracle.caps_for(kernel):
                requests.append(DecisionRequest(kernel.uid, cap))
                expected.append(model_records[(kernel.uid, cap)].config)
        assert requests  # the fold is non-trivial

        results = service.decide_batch(requests)
        assert all(r.ok for r in results)
        assert [r.config for r in results] == expected
