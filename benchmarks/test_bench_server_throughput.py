"""Decision-server throughput: the batching receipt.

Three measurements on a warm :class:`~repro.server.service.
DecisionService` (all 65 suite kernels warmed, cap-sweep tables
memoized):

* **batched engine** throughput — 4096-request mixed batches answered
  by the grouped sweep (:func:`repro.server.engine.decide_batch`),
  reported as decisions/s; this is the pytest-benchmark-timed path;
* **unbatched** throughput — the same requests answered one at a time
  through :meth:`DecisionService.decide` (the per-request
  ``Scheduler.select`` path a naive server would take);
* the **admission table** — the threaded batching front end driven by
  open-loop Poisson arrivals at several offered rates, with sustained
  rate and p50/p99/p999 latency per point.

Numbers land in ``BENCH_server.json`` at the repo root.  The
acceptance gates: batched >= 5x unbatched, batched >= 1M decisions/s,
and the front end actually coalesces (batches formed < requests
served).
"""

import json
import time
from pathlib import Path

from repro.server.engine import decide_batch
from repro.server.loadgen import (
    admission_benchmark,
    render_reports,
    request_pool,
)
from repro.server.service import build_default_service
from repro.telemetry import counter

from conftest import write_artifact

BENCH_PATH = Path(__file__).parent.parent / "BENCH_server.json"

BATCH_N = 4096
UNBATCHED_N = 2000
OFFERED_RATES = (2_000.0, 20_000.0, 60_000.0)
RATE_DURATION_S = 0.4


def test_server_throughput(benchmark):
    service = build_default_service(seed=0)
    failures = service.warm()
    assert not failures, f"warm-up failures: {failures}"

    pool = request_pool(service.kernel_uids, n=BATCH_N, seed=0)
    uids = [r.kernel_uid for r in pool]
    caps = [r.power_cap_w for r in pool]

    # -- batched engine: one grouped sweep over the whole pool ---------------
    snap = service.snapshot

    def run_batch():
        return decide_batch(
            snap.scheduler, snap.predictions, uids, caps, tables=snap.tables
        )

    batch = benchmark(run_batch)
    assert len(batch) == BATCH_N
    # Tight caps in the pool legitimately fall below some kernels'
    # cheapest configuration; those take the fallback path, the rest
    # must be feasible.
    assert batch.feasible.mean() > 0.9
    batched_s = benchmark.stats.stats.mean
    batched_rps = BATCH_N / batched_s

    # -- unbatched: the same decisions one request at a time -----------------
    start = time.perf_counter()
    for request in pool[:UNBATCHED_N]:
        result = service.decide(request)
        assert result.ok
    unbatched_s = time.perf_counter() - start
    unbatched_rps = UNBATCHED_N / unbatched_s

    # -- admission table: threaded front end under Poisson load --------------
    requests_before = counter("server.requests").value
    batches_before = counter("server.batches").value
    reports = admission_benchmark(
        service, pool, OFFERED_RATES, RATE_DURATION_S, seed=0
    )
    requests_served = counter("server.requests").value - requests_before
    batches_formed = counter("server.batches").value - batches_before

    payload = {
        "experiment": "decision server throughput",
        "engine": {
            "batch_requests": BATCH_N,
            "distinct_kernels": len(service.kernel_uids),
            "batched_mean_s": round(batched_s, 6),
            "batched_decisions_per_s": round(batched_rps),
            "unbatched_requests": UNBATCHED_N,
            "unbatched_s": round(unbatched_s, 6),
            "unbatched_decisions_per_s": round(unbatched_rps),
            "speedup": round(batched_rps / unbatched_rps, 1),
        },
        "serving": {
            "requests_served": requests_served,
            "batches_formed": batches_formed,
            "rates": [vars(r) for r in reports],
        },
    }
    BENCH_PATH.write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )

    text = "\n".join(
        [
            "Decision server throughput",
            f"  batched engine: {BATCH_N} requests in "
            f"{batched_s * 1e3:.2f} ms "
            f"({batched_rps / 1e6:.2f} M decisions/s)",
            f"  unbatched:      {UNBATCHED_N} requests in "
            f"{unbatched_s * 1e3:.2f} ms "
            f"({unbatched_rps / 1e3:.1f} k decisions/s, "
            f"{batched_rps / unbatched_rps:.0f}x slower than batched)",
            f"  front end:      {requests_served} requests coalesced "
            f"into {batches_formed} batches",
            "",
            render_reports(reports),
        ]
    )
    write_artifact("server_throughput.txt", text)
    print("\n" + text)

    # The server's acceptance gates.
    assert batched_rps >= 5 * unbatched_rps
    assert batched_rps >= 1e6
    assert 0 < batches_formed < requests_served
