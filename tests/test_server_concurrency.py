"""Batching front ends under concurrency.

Covers the properties array math cannot: arrivals actually coalesce
into fewer grouped sweeps, the batching window is honored for lone
requests, completion order is fair (FIFO through a single dispatcher),
futures resolve exactly once even when racing ``cancel()``, overload
sheds instead of queueing unboundedly, ``stop()`` drains admitted
requests, and concurrent snapshot republishing (quarantine churn) never
tears a reader's view.
"""

from __future__ import annotations

import threading
import time

import pytest

import repro.telemetry as telemetry
from repro.core import AdaptiveModel
from repro.profiling import CharacterizationStore, ProfilingLibrary
from repro.hardware import TrinityAPU
from repro.server.batching import (
    DecisionServer,
    ServerClosedError,
    ServerOverloadError,
)
from repro.server.config import ServerConfig
from repro.server.engine import DecisionRequest, decide_batch
from repro.server.loadgen import request_pool
from repro.server.service import DecisionService
from repro.workloads import build_suite

from .engine_reference import assert_same_decisions, reference_decide_batch


def counter_value(name: str) -> int:
    return telemetry.counter(name).value


@pytest.fixture(scope="module")
def suite():
    return build_suite()


@pytest.fixture(scope="module")
def service(suite):
    """A warm service over a small kernel subset."""
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


@pytest.fixture(scope="module")
def pool(service):
    return request_pool(service.kernel_uids, n=256, seed=1)


class SlowService:
    """Delegate that sleeps per batch, so requests pile up behind it."""

    def __init__(self, service, delay_s=0.005):
        self._service = service
        self._delay_s = delay_s
        self.batches = 0

    def decide_batch(self, requests):
        self.batches += 1
        time.sleep(self._delay_s)
        return self._service.decide_batch(requests)


class TestCoalescing:
    def test_concurrent_arrivals_share_batches(self, service, pool):
        req_before = counter_value("server.requests")
        batch_before = counter_value("server.batches")
        config = ServerConfig(max_batch=256, max_delay_us=2000.0)
        with DecisionServer(service, config) as server:
            futures = [server.submit(r) for r in pool]
            results = [f.result(timeout=10.0) for f in futures]
        assert all(r.ok for r in results)
        requests = counter_value("server.requests") - req_before
        batches = counter_value("server.batches") - batch_before
        assert requests == len(pool)
        assert 0 < batches < requests  # many requests per sweep

    def test_zero_window_still_answers(self, service, pool):
        config = ServerConfig(max_batch=16, max_delay_us=0.0)
        with DecisionServer(service, config) as server:
            results = [server.decide(r, timeout=10.0) for r in pool[:32]]
        assert all(r.ok for r in results)

    def test_max_delay_honored_for_lone_request(self, service, pool):
        window_s = 0.05
        config = ServerConfig(max_batch=64, max_delay_us=window_s * 1e6)
        with DecisionServer(service, config) as server:
            start = time.perf_counter()
            result = server.decide(pool[0], timeout=10.0)
            elapsed = time.perf_counter() - start
        assert result.ok
        # A lone request waits out the window for co-batchees that never
        # come, but not dramatically longer (scheduler-jitter slack).
        assert elapsed >= 0.5 * window_s
        assert elapsed < 20 * window_s

    def test_results_demultiplex_to_their_requests(self, service, pool):
        config = ServerConfig(max_batch=64, max_delay_us=1000.0)
        with DecisionServer(service, config) as server:
            futures = [(r, server.submit(r)) for r in pool]
            for request, future in futures:
                result = future.result(timeout=10.0)
                assert result.kernel_uid == request.kernel_uid
                assert result.power_cap_w == request.power_cap_w


class TestOrderingFairness:
    def test_single_worker_completes_fifo(self, service, pool):
        completed = []
        config = ServerConfig(max_batch=8, max_delay_us=500.0, max_queue=10_000)
        with DecisionServer(service, config) as server:
            futures = []
            for i, request in enumerate(pool[:128]):
                future = server.submit(request)
                future.add_done_callback(
                    lambda _f, i=i: completed.append(i)
                )
                futures.append(future)
            for future in futures:
                future.result(timeout=10.0)
        # One dispatcher drains the deque in arrival order and resolves
        # each batch in order: overall completion is submission order.
        assert completed == sorted(completed)


class TestCancellation:
    def test_futures_resolve_exactly_once_under_cancel_hammer(
        self, service, pool
    ):
        slow = SlowService(service, delay_s=0.004)
        config = ServerConfig(max_batch=8, max_delay_us=0.0, max_queue=10_000)
        with DecisionServer(slow, config) as server:
            futures = [server.submit(r) for r in pool]
            cancelled = {
                i for i, f in enumerate(futures) if i % 2 and f.cancel()
            }
        for i, future in enumerate(futures):
            assert future.done()
            if i in cancelled:
                with pytest.raises(BaseException):
                    future.result()
                assert future.cancelled()
            else:
                assert future.result(timeout=1.0).ok
        assert cancelled  # the hammer actually hit queued requests


class TestOverload:
    def test_bounded_queue_sheds_with_counter(self, service, pool):
        slow = SlowService(service, delay_s=0.05)
        config = ServerConfig(max_batch=4, max_delay_us=0.0, max_queue=4)
        shed_before = counter_value("server.shed")
        with DecisionServer(slow, config) as server:
            admitted = []
            shed = 0
            for request in pool[:64]:
                try:
                    admitted.append(server.submit(request))
                except ServerOverloadError:
                    shed += 1
            assert shed > 0
            assert counter_value("server.shed") - shed_before == shed
            for future in admitted:
                assert future.result(timeout=10.0).ok


class TestLifecycle:
    def test_stop_drains_admitted_requests(self, service, pool):
        slow = SlowService(service, delay_s=0.01)
        config = ServerConfig(max_batch=4, max_delay_us=0.0, max_queue=1000)
        server = DecisionServer(slow, config)
        server.start()
        futures = [server.submit(r) for r in pool[:64]]
        server.stop()
        assert all(f.result(timeout=0.0).ok for f in futures)
        with pytest.raises(ServerClosedError):
            server.submit(pool[0])

    def test_submit_before_start_rejected(self, service, pool):
        server = DecisionServer(service)
        with pytest.raises(ServerClosedError):
            server.submit(pool[0])

    def test_double_start_rejected(self, service):
        with DecisionServer(service) as server:
            with pytest.raises(RuntimeError, match="already started"):
                server.start()

    def test_stop_is_idempotent(self, service):
        server = DecisionServer(service)
        server.start()
        server.stop()
        server.stop()

    def test_cancelled_request_never_reaches_the_service(self, service, pool):
        slow = SlowService(service, delay_s=0.1)
        config = ServerConfig(max_batch=1, max_delay_us=0.0)
        with DecisionServer(slow, config) as server:
            first = server.submit(pool[0])
            time.sleep(0.01)  # the dispatcher holds `first`
            second = server.submit(pool[1])  # queued behind it
            assert second.cancel()
            assert first.result(timeout=10.0).ok
        assert second.cancelled()
        assert slow.batches == 1

    def test_latency_histogram_observes_completions(self, service, pool):
        hist = telemetry.histogram("server.latency_s")
        before = hist.count
        with DecisionServer(service) as server:
            for request in pool[:10]:
                server.decide(request, timeout=10.0)
        assert hist.count - before == 10


class TestSnapshotSwapHammer:
    def test_quarantine_churn_never_tears_readers(self, service, pool):
        deadline = time.perf_counter() + 1.0
        errors: list[BaseException] = []
        versions: list[int] = []
        prediction = service.snapshot.predictions[service.kernel_uids[0]]
        # Quarantine the kernel's pick at a mid-range cap, so the
        # republished tables answer differently.
        some_config = service.snapshot.scheduler.select(
            prediction, 25.0
        ).config
        uids = [r.kernel_uid for r in pool[:32]]
        caps = [r.power_cap_w for r in pool[:32]]

        def publisher():
            while time.perf_counter() < deadline:
                service.quarantine(some_config)
                service.clear_quarantine()

        def reader():
            try:
                last_version = 0
                while time.perf_counter() < deadline:
                    snap = service.snapshot
                    # A grabbed snapshot is internally consistent:
                    # servable uids are a subset of warmed uids and the
                    # version only moves forward.
                    assert set(snap.tables) <= set(snap.predictions)
                    assert snap.version >= last_version
                    last_version = snap.version
                    # Its stacked index answers exactly as its own
                    # per-uid tables do: never stale against them.
                    assert_same_decisions(
                        decide_batch(
                            snap.scheduler, snap.predictions, uids, caps,
                            index=snap.index,
                        ),
                        reference_decide_batch(
                            snap.scheduler, snap.predictions, uids, caps,
                            tables=snap.tables,
                        ),
                    )
                    results = service.decide_batch(pool[:32])
                    assert all(r.ok for r in results)
                versions.append(last_version)
            except BaseException as exc:  # pragma: no cover - on failure
                errors.append(exc)

        threads = [threading.Thread(target=publisher)] + [
            threading.Thread(target=reader) for _ in range(3)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert all(v > 0 for v in versions)
        # Leave the module-scope service fully servable for later tests.
        service.clear_quarantine()
        assert set(service.snapshot.tables) == set(service.kernel_uids)
