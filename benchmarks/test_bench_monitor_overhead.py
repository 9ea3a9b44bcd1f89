"""Monitor overhead: the serving path with the monitor attached.

The continuous monitoring layer (``repro.telemetry.monitor``) adds
three costs to a live decision server: the sampling thread snapshots
the registry on an interval, the SLO engine evaluates burn rates over
the ring, and the batching front end captures slow/shed/error
exemplars per batch.  This benchmark prices all three at once by
driving the threaded server with open-loop Poisson arrivals twice —
bare, then under a :class:`~repro.telemetry.monitor.Monitor` with the
default server SLOs and a fast 50 ms sampling interval — and compares
sustained throughput.

The offered rate sits well below the server's saturation point, so
the bare run sustains ~the offered rate and any monitor-induced slowdown
shows up directly in the ratio.  The Prometheus text renderer is timed
separately on the monitored run's final snapshot (it runs on the scrape
path, never the serving path).

Numbers land in ``BENCH_monitor.json`` at the repo root.  The
acceptance gate: monitored sustained throughput >= 0.95x bare.
"""

import json
from pathlib import Path

from repro.server.loadgen import (
    admission_benchmark,
    render_reports,
    request_pool,
)
from repro.server.service import build_default_service
from repro.telemetry.monitor import (
    Monitor,
    default_server_slos,
    render_prometheus,
)

from conftest import write_artifact

BENCH_PATH = Path(__file__).parent.parent / "BENCH_monitor.json"

POOL_N = 4096
OFFERED_RPS = 10_000.0
DURATION_S = 0.4
ROUNDS = 2
SAMPLE_INTERVAL_S = 0.05
MIN_THROUGHPUT_RATIO = 0.95


def test_monitor_overhead(benchmark):
    service = build_default_service(seed=0)
    failures = service.warm()
    assert not failures, f"warm-up failures: {failures}"
    pool = request_pool(service.kernel_uids, n=POOL_N, seed=0)

    def run_once():
        (report,) = admission_benchmark(
            service, pool, (OFFERED_RPS,), DURATION_S, seed=0
        )
        return report

    # Interleave bare/monitored rounds and keep the best of each so a
    # transient stall on the shared CI box doesn't masquerade as monitor
    # overhead; the gate compares steady-state capability, not one draw.
    # A fresh Monitor per monitored round keeps the exemplar hooks
    # detached during the bare runs (attaching is Monitor.__init__'s job).
    bare_runs, monitored_runs = [], []
    samples = exemplars = 0
    snapshot = None
    for _ in range(ROUNDS):
        bare_runs.append(run_once())
        with Monitor(slos=default_server_slos()) as monitor:
            monitor.start(interval_s=SAMPLE_INTERVAL_S)
            monitored_runs.append(run_once())
            monitor.stop()
            monitor.tick()
            samples += len(monitor.store)
            exemplars += monitor.exemplars.count()
            snapshot = monitor.registry_snapshot()
    bare = max(bare_runs, key=lambda r: r.sustained_rps)
    monitored = max(monitored_runs, key=lambda r: r.sustained_rps)

    assert samples >= ROUNDS * 2, "sampling thread never ran"
    assert exemplars >= 1, "no exemplars captured under load"

    # -- scrape path: Prometheus text exposition off the final snapshot -----
    text = benchmark(render_prometheus, snapshot)
    assert "repro_server_requests_total" in text
    render_s = benchmark.stats.stats.mean
    series = sum(
        1 for line in text.splitlines() if line and not line.startswith("#")
    )

    ratio = monitored.sustained_rps / bare.sustained_rps
    payload = {
        "experiment": "monitor overhead on the serving path",
        "offered_rps": OFFERED_RPS,
        "duration_s": DURATION_S,
        "bare": {
            "sustained_rps": round(bare.sustained_rps),
            "completed": bare.completed,
            "shed": bare.shed,
            "p99_us": round(bare.p99_us, 1),
        },
        "monitored": {
            "sustained_rps": round(monitored.sustained_rps),
            "completed": monitored.completed,
            "shed": monitored.shed,
            "p99_us": round(monitored.p99_us, 1),
            "sample_interval_s": SAMPLE_INTERVAL_S,
            "ring_samples": samples,
            "exemplars_captured": exemplars,
        },
        "throughput_ratio": round(ratio, 4),
        "min_ratio": MIN_THROUGHPUT_RATIO,
        "prometheus_render": {
            "mean_s": round(render_s, 6),
            "series": series,
        },
    }
    BENCH_PATH.write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )

    report = "\n".join(
        [
            "Monitor overhead on the serving path",
            f"  offered {OFFERED_RPS:,.0f} req/s for {DURATION_S} s "
            f"(pool of {POOL_N} requests)",
            "",
            render_reports([bare, monitored]),
            "",
            f"  throughput ratio (monitored / bare): {ratio:.4f} "
            f"(gate >= {MIN_THROUGHPUT_RATIO})",
            f"  ring samples: {samples}, exemplars: {exemplars}",
            f"  prometheus render: {series} series in "
            f"{render_s * 1e6:.0f} us",
        ]
    )
    write_artifact("monitor_overhead.txt", report)
    print("\n" + report)

    # The monitoring layer's acceptance gate: within 5% of bare throughput.
    assert ratio >= MIN_THROUGHPUT_RATIO
