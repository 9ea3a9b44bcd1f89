"""Open-loop Poisson load generation and the admission benchmark.

The generator is *open-loop*: arrival times are drawn up front from an
exponential inter-arrival distribution and requests are submitted on
that schedule regardless of completions, so queueing delay under
overload shows up as latency (measured from each request's *scheduled*
arrival) instead of silently throttling the offered rate — the
standard coordinated-omission-free methodology.

:func:`run_open_loop` drives one :class:`~repro.server.batching.
DecisionServer` at one offered rate; :func:`admission_benchmark` sweeps
several rates with a fresh server each and returns one
:class:`LoadReport` per rate (sustained decisions/s, shed count, and
p50/p99/p999 latency).  :func:`run_open_loop` backs ``repro serve``;
the benchmarks under ``benchmarks/`` call :func:`admission_benchmark`
and :func:`render_reports`.
"""

from __future__ import annotations

import time
from concurrent.futures import FIRST_EXCEPTION, wait
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.server.batching import DecisionServer, ServerOverloadError
from repro.server.config import ServerConfig
from repro.server.engine import DecisionRequest
from repro.server.service import DecisionService

__all__ = [
    "LoadReport",
    "admission_benchmark",
    "render_reports",
    "request_pool",
    "run_open_loop",
]

# Submission-schedule precision: sleep for the bulk of an inter-arrival
# gap (sleeping releases the GIL, letting the dispatcher run), busy-wait
# only the final slice, where time.sleep granularity is too coarse.  A
# long spin here would starve the dispatcher thread and inflate every
# latency percentile by the interpreter switch interval.
_SPIN_THRESHOLD_S = 0.00005


@dataclass(frozen=True)
class LoadReport:
    """One offered-load point of the admission benchmark."""

    offered_rps: float
    duration_s: float
    submitted: int
    completed: int
    shed: int
    errors: int
    sustained_rps: float
    p50_us: float
    p99_us: float
    p999_us: float

    def row(self) -> str:
        """One fixed-width table row (see :func:`render_reports`)."""
        return (
            f"{self.offered_rps:>12,.0f} {self.sustained_rps:>13,.0f} "
            f"{self.completed:>9,} {self.shed:>7,} {self.errors:>7,} "
            f"{self.p50_us:>9,.0f} {self.p99_us:>9,.0f} "
            f"{self.p999_us:>10,.0f}"
        )


def render_reports(reports: Sequence[LoadReport]) -> str:
    """The admission benchmark as a fixed-width text table."""
    header = (
        f"{'offered/s':>12} {'sustained/s':>13} {'completed':>9} "
        f"{'shed':>7} {'errors':>7} {'p50 us':>9} {'p99 us':>9} "
        f"{'p999 us':>10}"
    )
    return "\n".join([header] + [r.row() for r in reports])


def request_pool(
    kernel_uids: Sequence[str],
    *,
    n: int = 1024,
    cap_range: tuple[float, float] = (8.0, 45.0),
    seed: int = 0,
) -> list[DecisionRequest]:
    """A deterministic pool of requests to cycle through: uniformly
    random kernels from the catalogue under uniformly random caps."""
    if not kernel_uids:
        raise ValueError("request_pool needs at least one kernel uid")
    rng = np.random.default_rng(seed)
    uids = rng.choice(np.asarray(kernel_uids, dtype=object), size=n)
    caps = rng.uniform(cap_range[0], cap_range[1], size=n)
    return [
        DecisionRequest(str(uid), float(cap)) for uid, cap in zip(uids, caps)
    ]


def _percentile_us(latencies_s: np.ndarray, q: float) -> float:
    if latencies_s.size == 0:
        return float("nan")
    return float(np.percentile(latencies_s, q) * 1e6)


def run_open_loop(
    server: DecisionServer,
    requests: Sequence[DecisionRequest],
    offered_rps: float,
    duration_s: float,
    *,
    seed: int = 0,
    timeout_s: float = 30.0,
) -> LoadReport:
    """Drive a running server with Poisson arrivals at one offered rate.

    Submits ``offered_rps * duration_s`` requests (cycling through the
    pool in a seeded random order) on a pre-drawn exponential arrival
    schedule, then waits for every admitted request to complete.
    """
    if offered_rps <= 0:
        raise ValueError("offered_rps must be positive")
    rng = np.random.default_rng(seed)
    n = max(1, int(round(offered_rps * duration_s)))
    arrivals = np.cumsum(rng.exponential(1.0 / offered_rps, size=n))
    picks = rng.integers(0, len(requests), size=n)

    futures = []
    latencies: list[float] = []  # appended from the dispatcher thread
    shed = 0
    start = time.perf_counter()
    for i in range(n):
        target = start + arrivals[i]
        while True:
            now = time.perf_counter()
            if now >= target:
                break
            if target - now > _SPIN_THRESHOLD_S:
                time.sleep(target - now - _SPIN_THRESHOLD_S / 2)
        try:
            future = server.submit(requests[picks[i]])
        except ServerOverloadError:
            shed += 1
            continue
        # Latency counts from the *scheduled* arrival: generator lag
        # under overload charges the server, not the schedule.
        future.add_done_callback(
            lambda _f, t=target: latencies.append(time.perf_counter() - t)
        )
        futures.append(future)

    done, pending = wait(futures, timeout=timeout_s, return_when=FIRST_EXCEPTION)
    end = time.perf_counter()
    if pending:  # pragma: no cover - only on a hung server
        raise TimeoutError(f"{len(pending)} requests unresolved after drain")

    errors = sum(1 for future in futures if not future.result().ok)
    latency_arr = np.asarray(latencies, dtype=np.float64)
    return LoadReport(
        offered_rps=float(offered_rps),
        duration_s=float(duration_s),
        submitted=len(futures),
        completed=len(futures),
        shed=shed,
        errors=errors,
        sustained_rps=len(futures) / max(end - start, 1e-12),
        p50_us=_percentile_us(latency_arr, 50.0),
        p99_us=_percentile_us(latency_arr, 99.0),
        p999_us=_percentile_us(latency_arr, 99.9),
    )


def admission_benchmark(
    service: DecisionService,
    requests: Sequence[DecisionRequest],
    offered_rates: Sequence[float],
    duration_s: float,
    *,
    config: ServerConfig | None = None,
    seed: int = 0,
) -> list[LoadReport]:
    """Sweep offered loads, one fresh server per rate."""
    reports = []
    for i, rate in enumerate(offered_rates):
        with DecisionServer(service, config) as server:
            reports.append(
                run_open_loop(
                    server, requests, rate, duration_s, seed=seed + i
                )
            )
    return reports
