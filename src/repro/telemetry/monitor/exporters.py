"""Exporters: Prometheus text exposition, JSON-lines, and the HTTP thread.

Two wire formats over the same registry/ring state:

* :func:`render_prometheus` — the Prometheus text exposition format
  (version 0.0.4) rendered from one registry snapshot.  Metric names
  map ``server.latency_s`` → ``repro_server_latency_s`` (counters gain
  the conventional ``_total`` suffix); histograms expose cumulative
  ``_bucket{le="..."}`` series plus ``_sum`` / ``_count``.  The output
  is deterministic for a given snapshot — a golden fixture pins it.
* :func:`sample_to_jsonl` — one compact JSON object per monitor tick,
  appended to a stream for offline analysis (``--monitor-jsonl``).

:func:`serve_monitor_http` runs a stdlib :class:`ThreadingHTTPServer`
on a daemon thread with three endpoints: ``/metrics`` (Prometheus
scrape), ``/monitor.json`` (the full monitor dump: ring + alerts +
exemplars, what ``repro top`` polls), and ``/healthz``.  Their handler
lives in :mod:`~repro.telemetry.monitor.endpoint`, which it imports on
its first call, so importing this module loads no ``http.server``.
"""

from __future__ import annotations

import json
import threading
from typing import TYPE_CHECKING

from repro.telemetry.registry import BUCKET_BOUNDS, BUCKET_INDEX

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.telemetry.monitor.endpoint import MonitorServer
    from repro.telemetry.monitor.service import Monitor
    from repro.telemetry.monitor.timeseries import MetricSample

__all__ = [
    "prometheus_name",
    "render_prometheus",
    "sample_to_jsonl",
    "serve_monitor_http",
]

_PREFIX = "repro_"


def prometheus_name(name: str, *, suffix: str = "") -> str:
    """Sanitize a registry metric name into a Prometheus series name."""
    safe = "".join(
        ch if ch.isalnum() or ch == "_" else "_" for ch in name
    )
    return f"{_PREFIX}{safe}{suffix}"


def _fmt(value: float) -> str:
    """Prometheus sample value formatting (shortest faithful form)."""
    if value != value:  # NaN
        return "NaN"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def render_prometheus(snapshot: dict) -> str:
    """One registry snapshot in Prometheus text exposition format."""
    lines: list[str] = []
    for name, value in snapshot.get("counters", {}).items():
        series = prometheus_name(name, suffix="_total")
        lines.append(f"# TYPE {series} counter")
        lines.append(f"{series} {_fmt(value)}")
    for name, value in snapshot.get("gauges", {}).items():
        series = prometheus_name(name)
        lines.append(f"# TYPE {series} gauge")
        lines.append(f"{series} {_fmt(value)}")
    for name, summary in snapshot.get("histograms", {}).items():
        series = prometheus_name(name)
        lines.append(f"# TYPE {series} histogram")
        dense = [0] * (len(BUCKET_BOUNDS) + 1)
        for label, n in summary.get("buckets", {}).items():
            i = BUCKET_INDEX.get(label)
            if i is not None:
                dense[i] = int(n)
        cum = 0
        for i, bound in enumerate(BUCKET_BOUNDS):
            cum += dense[i]
            if dense[i] or i == len(BUCKET_BOUNDS) - 1:
                lines.append(
                    f'{series}_bucket{{le="{bound:.6g}"}} {cum}'
                )
        cum += dense[-1]
        lines.append(f'{series}_bucket{{le="+Inf"}} {cum}')
        lines.append(f"{series}_sum {_fmt(summary.get('sum', 0.0))}")
        lines.append(f"{series}_count {summary.get('count', 0)}")
    return "\n".join(lines) + "\n"


def sample_to_jsonl(sample: "MetricSample") -> str:
    """One ring sample as a compact JSON line (no trailing newline)."""
    return json.dumps(sample.to_dict(), separators=(",", ":"))


def serve_monitor_http(
    monitor: "Monitor", port: int, *, host: str = "127.0.0.1"
) -> "MonitorServer":
    """Start the monitor's HTTP endpoints on a daemon thread.

    ``port=0`` binds an ephemeral port; read the chosen one from the
    returned server's ``server_port``.  Call ``shutdown()`` +
    ``server_close()`` (or :meth:`Monitor.close`) to stop.
    """
    from repro.telemetry.monitor.endpoint import MonitorHandler, MonitorServer

    httpd = MonitorServer((host, port), MonitorHandler)
    httpd.monitor = monitor
    thread = threading.Thread(
        target=httpd.serve_forever,
        name="repro-monitor-http",
        daemon=True,
    )
    thread.start()
    return httpd
