"""Batching front end: coalesce concurrent arrivals into one sweep.

:class:`DecisionServer` is the one coalescing core over a
:class:`~repro.server.service.DecisionService`.  ``submit`` enqueues a
request under a condition variable and returns a
:class:`concurrent.futures.Future`; one dispatcher thread drains the
bounded queue, waits up to ``max_delay_us`` for co-batchees (skipped
the moment the batch is full — the window adapts to queue depth),
answers the whole batch with one grouped ``decide_batch`` sweep, and
demultiplexes results into the per-request futures.

Admission control is a bounded queue: arrivals beyond ``max_queue``
are shed immediately with :class:`ServerOverloadError` (counted under
``server.shed``) rather than queued into unbounded latency.  Each
completed request observes its queue-to-resolution latency into the
``server.latency_s`` histogram.

The first server started in a process freezes the heap built so far
(the trained model, warm predictions and sweep tables) out of the
cyclic collector, so full collections while serving do not rescan it.
"""

from __future__ import annotations

import functools
import gc
import threading
import time
from collections import deque
from concurrent.futures import Future

from repro.server.config import ServerConfig
from repro.server.engine import DecisionRequest
from repro.server.service import DecisionResult, DecisionService
from repro.telemetry import PhaseTrace, counter, gauge, histogram
from repro.telemetry.monitor.exemplars import (
    active_store,
    record_error,
    record_shed,
    record_slow,
)

__all__ = [
    "DecisionServer",
    "ServerClosedError",
    "ServerOverloadError",
]

_SHED = counter("server.shed")
_QUEUE_DEPTH = gauge("server.queue_depth")
_LATENCY = histogram("server.latency_s")


@functools.cache
def _freeze_heap() -> None:
    gc.collect()
    gc.freeze()


def _record_batch_exemplars(
    live: list, results: list[DecisionResult], t_decide: float, now: float
) -> None:
    """Offer this batch's notable requests to the active exemplar store.

    Called once per *batch* (never per request) and only when a monitor
    is attached — the slowest request gets a queued/decide phase trace,
    error results are offered as error exemplars.
    """
    slowest = None
    for (request, _, enqueued), result in zip(live, results):
        latency = now - enqueued
        if result.error is not None:
            record_error(
                request.kernel_uid,
                request.power_cap_w,
                result.error,
                latency_s=latency,
                batch_size=len(live),
            )
        if slowest is None or latency > slowest[0]:
            slowest = (latency, enqueued, request)
    if slowest is not None:
        latency, enqueued, request = slowest
        trace = PhaseTrace()
        trace.add("queued", 0.0, t_decide - enqueued)
        trace.add("decide", t_decide - enqueued, now - t_decide)
        record_slow(
            request.kernel_uid,
            request.power_cap_w,
            latency,
            batch_size=len(live),
            trace=trace,
        )


class ServerOverloadError(RuntimeError):
    """The admission queue was full and the request was shed."""


class ServerClosedError(RuntimeError):
    """The server is not accepting requests (not started, or stopped)."""


class DecisionServer:
    """Thread-based batching server for synchronous callers.

    Use as a context manager (``with DecisionServer(service) as s:``) or
    call :meth:`start`/:meth:`stop` explicitly.  ``stop`` drains: every
    request admitted before the call is still answered.
    """

    def __init__(
        self, service: DecisionService, config: ServerConfig | None = None
    ) -> None:
        self._service = service
        self.config = config if config is not None else ServerConfig()
        self._entries: deque[tuple[DecisionRequest, Future, float]] = deque()
        self._wake = threading.Condition()
        self._closed = True
        self._thread: threading.Thread | None = None

    def __enter__(self) -> "DecisionServer":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def start(self) -> None:
        """Spawn the dispatcher thread and begin accepting requests."""
        _freeze_heap()
        with self._wake:
            if self._thread is not None:
                raise RuntimeError("server already started")
            self._closed = False
            self._thread = threading.Thread(
                target=self._dispatch_loop, name="repro-server", daemon=True
            )
        self._thread.start()

    def stop(self) -> None:
        """Stop accepting requests, drain the queue, join the dispatcher."""
        with self._wake:
            self._closed = True
            self._wake.notify_all()
        thread = self._thread
        if thread is not None:
            thread.join()
            self._thread = None

    def submit(self, request: DecisionRequest) -> Future:
        """Enqueue a request; the Future resolves to a
        :class:`~repro.server.service.DecisionResult`.

        Raises :class:`ServerClosedError` when the server is not
        running and :class:`ServerOverloadError` when the bounded
        admission queue is full (the shed is counted, not queued).
        """
        with self._wake:
            if self._closed:
                raise ServerClosedError("decision server is not running")
            if len(self._entries) >= self.config.max_queue:
                _SHED.inc()
                record_shed(request.kernel_uid, request.power_cap_w)
                raise ServerOverloadError(
                    f"admission queue full ({self.config.max_queue} pending)"
                )
            future: Future = Future()
            self._entries.append((request, future, time.perf_counter()))
            _QUEUE_DEPTH.set(float(len(self._entries)))
            self._wake.notify()
            return future

    def decide(
        self, request: DecisionRequest, timeout: float | None = None
    ) -> DecisionResult:
        """Submit and block for the result (convenience wrapper)."""
        return self.submit(request).result(timeout)

    def _dispatch_loop(self) -> None:
        cfg = self.config
        delay_s = cfg.max_delay_s
        while True:
            batch: list[tuple[DecisionRequest, Future, float]] = []
            with self._wake:
                while not self._entries and not self._closed:
                    self._wake.wait()
                if not self._entries and self._closed:
                    return
                deadline = time.perf_counter() + delay_s
                while True:
                    while self._entries and len(batch) < cfg.max_batch:
                        batch.append(self._entries.popleft())
                    # Adaptive window: a full batch, a deep backlog, a
                    # closing server, or a zero window dispatches now;
                    # otherwise wait out the remaining delay for
                    # co-batchees.
                    if (
                        len(batch) >= cfg.max_batch
                        or self._entries
                        or self._closed
                        or delay_s <= 0.0
                    ):
                        break
                    remaining = deadline - time.perf_counter()
                    if remaining <= 0.0:
                        break
                    self._wake.wait(remaining)
                _QUEUE_DEPTH.set(float(len(self._entries)))
            self._answer(batch)

    def _answer(
        self, batch: list[tuple[DecisionRequest, Future, float]]
    ) -> None:
        # set_running_or_notify_cancel resolves the race with
        # Future.cancel(): each future is either cancelled here, or
        # transitions to RUNNING and is ours to resolve exactly once.
        live = [
            entry for entry in batch if entry[1].set_running_or_notify_cancel()
        ]
        if not live:
            return
        t_decide = time.perf_counter()
        try:
            results = self._service.decide_batch(
                [request for request, _, _ in live]
            )
        except BaseException as exc:  # pragma: no cover - defensive
            for _, future, _ in live:
                future.set_exception(exc)
            return
        now = time.perf_counter()
        for (_, future, enqueued), result in zip(live, results):
            _LATENCY.observe(now - enqueued)
            future.set_result(result)
        if active_store() is not None:
            _record_batch_exemplars(live, results, t_decide, now)
