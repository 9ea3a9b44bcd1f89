"""``repro top``: a live ops view rendered from the monitor ring.

One frame is plain text — counters with windowed rates, gauges, the
server latency histogram's windowed percentiles, alert states, and the
latest exemplars — rendered entirely from a monitor *dump*, never from
live instruments.  That makes the same renderer work in both modes:

* **scrape mode** — poll a running ``repro serve --monitor-port``
  process's ``/monitor.json`` endpoint over HTTP and redraw;
* **simulation mode** — run a cluster epoch loop in-process with a
  per-epoch monitor tick and render the final state.

Rendering is pure string building over :class:`TimeSeriesStore.
from_dump` reconstruction, so tests can pin frames byte-for-byte.
"""

from __future__ import annotations

import json
from typing import Mapping

from repro.telemetry.monitor.timeseries import TimeSeriesStore

__all__ = ["fetch_monitor_dump", "render_top"]

#: Metrics whose windowed rate leads the counters panel when present.
_HEADLINE_COUNTERS = (
    "server.requests",
    "server.batches",
    "server.shed",
    "server.errors",
    "cluster.epochs",
)

_LATENCY_HISTOGRAM = "server.latency_s"


def fetch_monitor_dump(url: str, *, timeout_s: float = 5.0) -> dict:
    """GET a monitor dump from a running server's ``/monitor.json``.

    ``url`` may be a bare ``host:port``; the scheme and path are filled
    in.  Only http(s) targets are accepted.  ``urllib.request`` is
    imported here, so rendering a dump never loads the URL client.
    """
    import urllib.request

    if "://" not in url:
        url = f"http://{url}"
    if not url.startswith(("http://", "https://")):
        raise ValueError(f"unsupported monitor URL {url!r}")
    if not url.endswith("/monitor.json"):
        url = url.rstrip("/") + "/monitor.json"
    with urllib.request.urlopen(url, timeout=timeout_s) as resp:  # noqa: S310
        return json.loads(resp.read().decode("utf-8"))


def _fmt_rate(value: float | None) -> str:
    return "    --" if value is None else f"{value:10.1f}/s"


def _fmt_num(value: float) -> str:
    if value == int(value) and abs(value) < 1e12:
        return str(int(value))
    return f"{value:.4g}"


def render_top(dump: Mapping, *, window_s: float = 5.0) -> str:
    """One ops-view frame from a monitor dump (deterministic text)."""
    store = TimeSeriesStore.from_dump(dump.get("timeseries", {}))
    last = store.latest()
    lines: list[str] = []
    span = store.samples()
    header = (
        f"repro monitor — {len(span)} samples"
        f" — window {window_s:g}s"
    )
    if last is not None:
        header += f" — t={last.t:.2f}"
    lines.append(header)
    lines.append("=" * len(header))

    # -- counters: cumulative total + windowed rate --------------------------
    if last is not None and last.counters:
        lines.append("")
        lines.append("counters" + " " * 28 + "total        rate")
        headline = [n for n in _HEADLINE_COUNTERS if n in last.counters]
        rest = [n for n in sorted(last.counters) if n not in headline]
        for name in headline + rest:
            rate = store.counter_rate(name, window_s)
            lines.append(
                f"  {name:<32}{last.counters[name]:>9}  {_fmt_rate(rate)}"
            )

    # -- gauges --------------------------------------------------------------
    if last is not None and last.gauges:
        lines.append("")
        lines.append("gauges")
        for name in sorted(last.gauges):
            lines.append(
                f"  {name:<32}{_fmt_num(last.gauges[name]):>9}"
            )

    # -- latency percentiles over the window ---------------------------------
    if last is not None and last.histograms:
        lines.append("")
        lines.append("histograms (windowed)        count      p50      p90      p99")
        for name in sorted(last.histograms):
            delta = store.histogram_window(name, window_s)
            if delta is None or delta.count == 0:
                lines.append(f"  {name:<26}     --")
                continue
            ps = [
                store.percentile(name, q, window_s) for q in (50, 90, 99)
            ]
            cells = "  ".join(
                f"{p:7.4g}" if p is not None else "     --" for p in ps
            )
            lines.append(f"  {name:<26}{delta.count:>7}  {cells}")

    # -- alerts --------------------------------------------------------------
    alerts = dump.get("slo", {}).get("alerts", [])
    if alerts:
        lines.append("")
        lines.append("alerts")
        for alert in alerts:
            spec = alert.get("slo", {})
            state = alert.get("state", "?")
            marker = "!!" if state == "firing" else "ok"
            short = alert.get("short")
            shown = "--" if short is None else f"{short:.4g}"
            lines.append(
                f"  [{marker}] {spec.get('name', '?'):<28}"
                f" {spec.get('expr', '')}  (short={shown},"
                f" fired={alert.get('fired', 0)},"
                f" cleared={alert.get('cleared', 0)})"
            )

    # -- exemplars -----------------------------------------------------------
    ex = dump.get("exemplars", {})
    windows = list(ex.get("windows", ()))
    current = ex.get("current")
    if current and any(current.get(k) for k in ("slow", "shed", "error")):
        windows.append(current)
    recent: list[dict] = []
    for window in reversed(windows):
        for kind in ("error", "shed", "slow"):
            recent.extend(window.get(kind, ()))
        if len(recent) >= 5:
            break
    if recent:
        lines.append("")
        lines.append("exemplars (most recent window first)")
        for e in recent[:5]:
            desc = (
                f"  [{e.get('kind', '?'):>5}] {e.get('kernel_uid', '?')}"
                f" @ {e.get('power_cap_w', 0):g}W"
            )
            if e.get("latency_s"):
                desc += f"  {e['latency_s'] * 1e3:.3f}ms"
            if e.get("batch_size"):
                desc += f"  batch={e['batch_size']}"
            if e.get("error"):
                desc += f"  error={e['error']}"
            trace = e.get("trace")
            if trace and trace.get("phases"):
                phases = ", ".join(
                    f"{p['name']}={p['duration_s'] * 1e3:.3f}ms"
                    for p in trace["phases"]
                )
                desc += f"  [{phases}]"
            lines.append(desc)

    return "\n".join(lines) + "\n"
