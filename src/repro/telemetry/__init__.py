"""Observability for the offline -> online pipeline.

Cooperating pieces, all process-wide and all near-free when disabled
via :func:`set_enabled`:

* :mod:`repro.telemetry.registry` — named counters, gauges, and
  streaming histograms with lock-safe updates and deterministic
  snapshots (cache hit/miss accounting, per-method selection and
  cap-violation counts);
* :mod:`repro.telemetry.spans` — ``with trace_span("offline/cluster")``
  hierarchical timing of the full pipeline (characterization ->
  frontier -> dissimilarity -> clustering -> regression -> CART ->
  online sample/classify/predict/select);
* :mod:`repro.telemetry.logs` — structured logging (human or JSON
  lines on stderr) for fold progress, cluster assignments,
  cap-violation events, and scheduler decisions;
* :mod:`repro.telemetry.report` — the ``telemetry.json`` artifact tying
  spans and metrics together;
* :mod:`repro.telemetry.monitor` — the continuous layer: a ring buffer
  of registry snapshots, SLO burn-rate alerting, exemplar tracing,
  Prometheus/JSONL exporters, and the ``repro top`` ops view.  This
  package does not import it: import the monitor's names from
  :mod:`repro.telemetry.monitor`, so a process that never monitors
  never loads it.

See ``docs/OBSERVABILITY.md`` for the metric and span catalogue.
"""

from repro.telemetry.logs import configure_logging, get_logger, log_event
from repro.telemetry.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    counter,
    gauge,
    get_registry,
    histogram,
    is_enabled,
    set_enabled,
)
from repro.telemetry.report import (
    TELEMETRY_VERSION,
    diff_telemetry,
    load_telemetry,
    render_telemetry,
    render_telemetry_diff,
    telemetry_snapshot,
    write_telemetry,
)
from repro.telemetry.spans import (
    PhaseTrace,
    SpanNode,
    Tracer,
    get_tracer,
    trace_span,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "PhaseTrace",
    "SpanNode",
    "TELEMETRY_VERSION",
    "Tracer",
    "configure_logging",
    "counter",
    "diff_telemetry",
    "gauge",
    "get_logger",
    "get_registry",
    "get_tracer",
    "histogram",
    "is_enabled",
    "load_telemetry",
    "log_event",
    "render_telemetry",
    "render_telemetry_diff",
    "set_enabled",
    "telemetry_snapshot",
    "trace_span",
    "write_telemetry",
]


def reset() -> None:
    """Drop all collected metrics and spans (test isolation hook)."""
    get_registry().reset()
    get_tracer().reset()
