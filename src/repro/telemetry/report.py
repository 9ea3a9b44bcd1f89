"""``telemetry.json``: snapshot, persistence, and pretty-printing.

One artifact ties the whole observability layer together::

    {
      "version": 1,
      "spans": [...],        # hierarchical timing tree (trace_span)
      "metrics": {
        "counters": {...},   # cache hits/misses, records, violations
        "gauges": {...},     # cache sizes
        "histograms": {...}  # phase duration distributions
      }
    }

:func:`write_telemetry` dumps the current process state (``repro eval
--telemetry-out t.json`` and the other commands' ``--telemetry-out``
call it after a successful run); ``repro telemetry t.json`` renders a
saved report through :func:`render_telemetry`.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.telemetry.registry import get_registry, is_enabled
from repro.telemetry.spans import get_tracer

__all__ = [
    "TELEMETRY_VERSION",
    "telemetry_snapshot",
    "write_telemetry",
    "load_telemetry",
    "render_telemetry",
    "diff_telemetry",
    "render_telemetry_diff",
]

TELEMETRY_VERSION: int = 1


def telemetry_snapshot() -> dict:
    """The process's current telemetry state as a plain dict."""
    return {
        "version": TELEMETRY_VERSION,
        "enabled": is_enabled(),
        "spans": get_tracer().snapshot(),
        "metrics": get_registry().snapshot(),
    }


def write_telemetry(path: str | Path) -> dict:
    """Write the current snapshot to ``path`` and return it."""
    snapshot = telemetry_snapshot()
    Path(path).write_text(
        json.dumps(snapshot, indent=2, sort_keys=False) + "\n",
        encoding="utf-8",
    )
    return snapshot


def load_telemetry(path: str | Path) -> dict:
    """Load a saved ``telemetry.json`` (validating its version)."""
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    version = data.get("version")
    if version != TELEMETRY_VERSION:
        raise ValueError(
            f"unsupported telemetry version {version!r} "
            f"(expected {TELEMETRY_VERSION})"
        )
    return data


def _render_span(node: dict, depth: int, rows: list[str]) -> None:
    pad = "  " * depth
    count = node.get("count", 0)
    total = node.get("total_s", 0.0)
    mean = total / count if count else 0.0
    rows.append(
        f"  {pad}{node['name']:<{max(2, 38 - 2 * depth)}} "
        f"{count:>6}x {total:>9.3f}s  (avg {mean * 1e3:8.2f} ms)"
    )
    for child in node.get("children", ()):
        _render_span(child, depth + 1, rows)


def render_telemetry(data: dict) -> str:
    """Human-readable rendering of a telemetry snapshot."""
    rows: list[str] = ["Telemetry report"]

    spans = data.get("spans", [])
    rows.append("")
    rows.append("Spans (calls, cumulative time):")
    if spans:
        for node in spans:
            _render_span(node, 0, rows)
    else:
        rows.append("  (no spans recorded)")

    metrics = data.get("metrics", {})
    counters = metrics.get("counters", {})
    rows.append("")
    rows.append("Counters:")
    if counters:
        width = max(len(name) for name in counters)
        for name in sorted(counters):
            rows.append(f"  {name:<{width}}  {counters[name]}")
    else:
        rows.append("  (none)")

    gauges = metrics.get("gauges", {})
    if gauges:
        rows.append("")
        rows.append("Gauges:")
        width = max(len(name) for name in gauges)
        for name in sorted(gauges):
            rows.append(f"  {name:<{width}}  {gauges[name]:g}")

    histograms = metrics.get("histograms", {})
    if histograms:
        rows.append("")
        rows.append("Histograms:")
        for name in sorted(histograms):
            h = histograms[name]
            line = (
                f"  {name}: n={h['count']} mean={h['mean']:.4g} "
                f"min={h['min']:.4g} max={h['max']:.4g} sum={h['sum']:.4g}"
            )
            # Interpolated percentiles (absent in pre-monitor reports
            # and for empty histograms).
            if "p50" in h:
                line += (
                    f" p50={h['p50']:.4g} p90={h['p90']:.4g} "
                    f"p99={h['p99']:.4g}"
                )
            rows.append(line)
    return "\n".join(rows)


def diff_telemetry(a: dict, b: dict) -> dict:
    """Structured comparison of two telemetry snapshots (A -> B).

    Counters and gauges report ``(a, b, delta)`` for every name present
    in either snapshot; histograms report count/mean and percentile
    shift.  Useful for before/after runs: ``repro telemetry --diff
    base.json contender.json``.
    """
    ma, mb = a.get("metrics", {}), b.get("metrics", {})
    out: dict = {"counters": {}, "gauges": {}, "histograms": {}}
    for kind in ("counters", "gauges"):
        xa, xb = ma.get(kind, {}), mb.get(kind, {})
        for name in sorted(set(xa) | set(xb)):
            va, vb = xa.get(name, 0), xb.get(name, 0)
            out[kind][name] = {"a": va, "b": vb, "delta": vb - va}
    ha, hb = ma.get("histograms", {}), mb.get("histograms", {})
    for name in sorted(set(ha) | set(hb)):
        sa, sb = ha.get(name, {}), hb.get(name, {})
        entry: dict = {
            "count": {
                "a": sa.get("count", 0),
                "b": sb.get("count", 0),
            },
            "mean": {
                "a": sa.get("mean", 0.0),
                "b": sb.get("mean", 0.0),
            },
        }
        for q in ("p50", "p90", "p99"):
            if q in sa or q in sb:
                entry[q] = {"a": sa.get(q), "b": sb.get(q)}
        out["histograms"][name] = entry
    return out


def _fmt_shift(va, vb) -> str:
    if va is None or vb is None:
        return f"{va if va is not None else '--'} -> " \
               f"{vb if vb is not None else '--'}"
    shift = ""
    if va:
        shift = f"  ({(vb - va) / va * 100.0:+.1f}%)"
    return f"{va:.4g} -> {vb:.4g}{shift}"


def render_telemetry_diff(diff: dict, *, all_rows: bool = False) -> str:
    """Human-readable rendering of :func:`diff_telemetry` output.

    By default only changed rows are shown; ``all_rows`` includes the
    unchanged ones too.
    """
    rows: list[str] = ["Telemetry diff (A -> B)"]

    counters = diff.get("counters", {})
    shown = {
        n: d for n, d in counters.items() if all_rows or d["delta"]
    }
    rows.append("")
    rows.append(f"Counters ({len(shown)} changed of {len(counters)}):")
    if shown:
        width = max(len(n) for n in shown)
        for name, d in shown.items():
            rows.append(
                f"  {name:<{width}}  {d['a']} -> {d['b']}"
                f"  ({d['delta']:+})"
            )
    else:
        rows.append("  (no change)")

    gauges = diff.get("gauges", {})
    shown = {n: d for n, d in gauges.items() if all_rows or d["delta"]}
    if shown:
        rows.append("")
        rows.append("Gauges:")
        width = max(len(n) for n in shown)
        for name, d in shown.items():
            rows.append(
                f"  {name:<{width}}  {d['a']:g} -> {d['b']:g}"
                f"  ({d['delta']:+g})"
            )

    histograms = diff.get("histograms", {})
    shown = {
        n: d
        for n, d in histograms.items()
        if all_rows or d["count"]["a"] != d["count"]["b"]
    }
    if shown:
        rows.append("")
        rows.append("Histograms:")
        for name, d in shown.items():
            rows.append(
                f"  {name}: n {d['count']['a']} -> {d['count']['b']}, "
                f"mean {_fmt_shift(d['mean']['a'], d['mean']['b'])}"
            )
            for q in ("p50", "p90", "p99"):
                if q in d:
                    rows.append(
                        f"    {q}: {_fmt_shift(d[q]['a'], d[q]['b'])}"
                    )
    return "\n".join(rows)
