"""Monitor <-> decision server integration: exemplars and live SLOs.

The unit suite (``test_monitor.py``) drives the ring and SLO engine
with a fake clock; this file runs the *real* batching server under a
monitor and asserts the pieces meet: slow/shed exemplars are captured
with queued/decide phase traces, the latency SLO judges real windows,
and ``REPRO_TELEMETRY=0`` turns every new hook into a no-op.
"""

from __future__ import annotations

import pytest

import repro.telemetry as telemetry
from repro.core import AdaptiveModel
from repro.profiling import CharacterizationStore, ProfilingLibrary
from repro.hardware import TrinityAPU
from repro.server.batching import DecisionServer, ServerOverloadError
from repro.server.config import ServerConfig
from repro.server.engine import DecisionRequest
from repro.server.service import DecisionService
from repro.telemetry import set_enabled
from repro.telemetry.monitor import Monitor, parse_slo
from repro.telemetry.monitor.exemplars import deactivate
from repro.workloads import build_suite


@pytest.fixture(autouse=True)
def clean_telemetry():
    telemetry.reset()
    set_enabled(True)
    deactivate()
    yield
    telemetry.reset()
    set_enabled(True)
    deactivate()


@pytest.fixture(scope="module")
def service():
    suite = build_suite()
    kernels = list(suite)[:6]
    store = CharacterizationStore.shared(suite, seed=0)
    model = AdaptiveModel.train(
        store.characterize(list(suite)),
        dissimilarity=store.dissimilarity_submatrix(list(suite)),
    )
    svc = DecisionService(
        model, ProfilingLibrary(TrinityAPU(seed=0), seed=0), kernels=kernels
    )
    assert svc.warm() == {}
    return svc


def requests_for(service, n):
    uids = service.kernel_uids
    return [
        DecisionRequest(uids[i % len(uids)], 15.0 + (i % 10)) for i in range(n)
    ]


class TestServerExemplars:
    def test_slow_exemplar_has_queue_and_decide_phases(self, service):
        mon = Monitor()
        try:
            with DecisionServer(service) as server:
                futures = [
                    server.submit(r) for r in requests_for(service, 64)
                ]
                for f in futures:
                    assert f.result(5.0).ok
            slow = [e for e in mon.exemplars if e.kind == "slow"]
            assert slow, "expected at least one slow exemplar per batch"
            best = slow[0]
            assert best.latency_s > 0
            assert best.batch_size >= 1
            names = [name for name, _, _ in best.trace.phases]
            assert names == ["queued", "decide"]
            total_phases = sum(d for _, _, d in best.trace.phases)
            assert total_phases == pytest.approx(best.latency_s, rel=0.5)
        finally:
            mon.close()

    def test_shed_exemplar_captured_on_overload(self, service):
        import time

        class SlowService:
            """Holds each batch long enough to back up the queue."""

            def __init__(self, inner):
                self._inner = inner

            def decide_batch(self, requests):
                time.sleep(0.05)
                return self._inner.decide_batch(requests)

        mon = Monitor()
        config = ServerConfig(max_queue=1, max_delay_us=0.0)
        try:
            with DecisionServer(SlowService(service), config) as server:
                shed = 0
                futures = []
                for r in requests_for(service, 8):
                    try:
                        futures.append(server.submit(r))
                    except ServerOverloadError:
                        shed += 1
                for f in futures:
                    f.result(5.0)
            assert shed >= 1
            assert mon.exemplars.count("shed") >= 1
            ex = next(e for e in mon.exemplars if e.kind == "shed")
            assert ex.kernel_uid in service.kernel_uids
        finally:
            mon.close()

    def test_error_exemplar_for_unknown_kernel(self, service):
        mon = Monitor()
        try:
            with DecisionServer(service) as server:
                result = server.decide(
                    DecisionRequest("no/such/kernel", 20.0), timeout=5.0
                )
            assert not result.ok
            errors = [e for e in mon.exemplars if e.kind == "error"]
            assert len(errors) == 1
            assert errors[0].error == "unknown-kernel"
            assert errors[0].kernel_uid == "no/such/kernel"
        finally:
            mon.close()

    def test_no_monitor_means_no_capture(self, service):
        with DecisionServer(service) as server:
            for f in [server.submit(r) for r in requests_for(service, 8)]:
                f.result(5.0)
        # Nothing attached: the exemplar counters never move.
        snap = telemetry.get_registry().snapshot()["counters"]
        assert snap["monitor.exemplars.slow"] == 0

    def test_disabled_telemetry_noops_every_hook(self, service):
        mon = Monitor(slos=[parse_slo("server.shed rate == 0")])
        try:
            set_enabled(False)
            with DecisionServer(service) as server:
                for f in [
                    server.submit(r) for r in requests_for(service, 8)
                ]:
                    f.result(5.0)
            assert mon.tick() == []
            assert len(mon.store) == 0
            assert mon.exemplars.count() == 0
            assert mon.dump()["slo"]["alerts"][0]["state"] == "ok"
        finally:
            set_enabled(True)
            mon.close()


class TestServerSLOLive:
    def test_latency_slo_over_real_windows(self, service):
        """A generous p99 objective stays ok; an absurd one fires."""
        mon = Monitor(
            slos=[
                parse_slo(
                    "server.latency_s p99 < 10.0",
                    name="lat-generous",
                    short_window_s=0.5,
                    long_window_s=1.0,
                ),
                parse_slo(
                    "server.latency_s p99 < 1e-09",
                    name="lat-absurd",
                    short_window_s=0.5,
                    long_window_s=1.0,
                ),
            ]
        )
        try:
            mon.start(interval_s=0.02)
            with DecisionServer(service) as server:
                import time

                deadline = time.perf_counter() + 1.2
                while time.perf_counter() < deadline:
                    for f in [
                        server.submit(r)
                        for r in requests_for(service, 16)
                    ]:
                        f.result(5.0)
            mon.stop()
            by_name = {
                a.spec.name: a for a in mon.slo_engine.alerts
            }
            assert by_name["lat-generous"].fired == 0
            assert by_name["lat-absurd"].fired >= 1
        finally:
            mon.close()
