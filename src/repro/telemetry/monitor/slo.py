"""Declarative SLOs with multi-window burn-rate alerting.

An :class:`SLOSpec` is one service-level objective stated over the
metric registry — ``"server.latency_s p99 < 0.005"``,
``"harness.cap_violations.Model rate == 0"``,
``"faults.failed_invocations rate < 2"`` — evaluated against the
monitor's ring buffer (:class:`~repro.telemetry.monitor.timeseries.
TimeSeriesStore`), never against raw instruments, so an SLO judges a
*window* of behaviour rather than process-lifetime totals.

Alerting follows the multi-window burn-rate pattern: a spec **fires**
only when both its short and long windows violate the objective (the
short window gives fast detection, the long window suppresses
one-sample blips), and **clears** as soon as the short window complies
again (fast recovery, no long tail of stale alerts).  Windows with too
few samples abstain — an alert never changes state on missing data.

Every evaluation bumps ``slo.evaluations``; each transition bumps
``alerts.fired.<name>`` / ``alerts.cleared.<name>`` and the engine
keeps ``alerts.active`` (gauge) plus a bounded transition history so a
dump shows *when* each alert fired and cleared on the ring's clock.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from repro.telemetry.monitor.timeseries import TimeSeriesStore
from repro.telemetry.registry import counter, gauge
from repro.telemetry.spans import trace_span

__all__ = [
    "Alert",
    "SLOEngine",
    "SLOSpec",
    "default_cluster_slos",
    "default_fault_slos",
    "default_server_slos",
    "load_slo_specs",
    "parse_slo",
]

#: Signals an SLO may watch.
_SIGNALS = ("rate", "value", "mean", "p50", "p90", "p99")
_OPS = ("<", "<=", ">", ">=", "==")

_EVALUATIONS = counter("slo.evaluations")
_ACTIVE = gauge("alerts.active")

STATE_OK = "ok"
STATE_FIRING = "firing"


@dataclass(frozen=True)
class SLOSpec:
    """One objective: ``<metric> <signal> <op> <threshold>``.

    ``signal`` selects the ring-buffer view: ``rate`` (counter
    increase/s), ``value`` (gauge at the newest sample), ``mean`` /
    ``p50`` / ``p90`` / ``p99`` (histogram window statistics).  The
    objective *complies* when ``signal(window) op threshold`` holds.
    """

    name: str
    metric: str
    signal: str
    op: str
    threshold: float
    short_window_s: float = 5.0
    long_window_s: float = 60.0

    def __post_init__(self) -> None:
        if self.signal not in _SIGNALS:
            raise ValueError(
                f"unknown SLO signal {self.signal!r} (expected {_SIGNALS})"
            )
        if self.op not in _OPS:
            raise ValueError(f"unknown SLO op {self.op!r} (expected {_OPS})")
        if not (0 < self.short_window_s <= self.long_window_s):
            raise ValueError(
                "windows must satisfy 0 < short_window_s <= long_window_s"
            )

    @property
    def expr(self) -> str:
        """The spec as its parseable one-line form."""
        return f"{self.metric} {self.signal} {self.op} {self.threshold:g}"

    def measure(
        self, store: TimeSeriesStore, window_s: float
    ) -> float | None:
        """The watched signal over one window (``None`` = abstain)."""
        if self.signal == "rate":
            return store.counter_rate(self.metric, window_s)
        if self.signal == "value":
            return store.gauge_value(self.metric)
        if self.signal == "mean":
            delta = store.histogram_window(self.metric, window_s)
            return delta.mean if delta and delta.count else None
        return store.percentile(
            self.metric, float(self.signal[1:]), window_s
        )

    def complies(self, value: float) -> bool:
        """Whether a measured value meets the objective."""
        if self.op == "<":
            return value < self.threshold
        if self.op == "<=":
            return value <= self.threshold
        if self.op == ">":
            return value > self.threshold
        if self.op == ">=":
            return value >= self.threshold
        return value == self.threshold

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "expr": self.expr,
            "short_window_s": self.short_window_s,
            "long_window_s": self.long_window_s,
        }


def parse_slo(
    expr: str,
    *,
    name: str | None = None,
    short_window_s: float = 5.0,
    long_window_s: float = 60.0,
) -> SLOSpec:
    """Parse ``"metric [signal] op threshold"`` into an :class:`SLOSpec`.

    The signal defaults to ``value`` (a gauge objective) when omitted::

        parse_slo("server.latency_s p99 < 0.005")
        parse_slo("server.shed rate == 0")
        parse_slo("server.queue_depth < 512")
    """
    parts = expr.split()
    if len(parts) == 3:
        metric, signal, op, threshold = parts[0], "value", parts[1], parts[2]
    elif len(parts) == 4:
        metric, signal, op, threshold = parts
    else:
        raise ValueError(
            f"bad SLO expression {expr!r} "
            "(expected 'metric [signal] op threshold')"
        )
    try:
        value = float(threshold)
    except ValueError:
        raise ValueError(
            f"bad SLO threshold {threshold!r} in {expr!r}"
        ) from None
    return SLOSpec(
        name=name if name is not None else metric.replace(".", "-"),
        metric=metric,
        signal=signal,
        op=op,
        threshold=value,
        short_window_s=short_window_s,
        long_window_s=long_window_s,
    )


def load_slo_specs(path: str | Path) -> list[SLOSpec]:
    """Load SLO specs from a JSON file: a list of objects with ``expr``
    and optional ``name`` / ``short_window_s`` / ``long_window_s``."""
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(data, list):
        raise ValueError(f"{path}: SLO file must hold a JSON list")
    specs = []
    for item in data:
        specs.append(
            parse_slo(
                item["expr"],
                name=item.get("name"),
                short_window_s=float(item.get("short_window_s", 5.0)),
                long_window_s=float(item.get("long_window_s", 60.0)),
            )
        )
    return specs


class Alert:
    """Mutable alert state for one spec."""

    __slots__ = (
        "spec", "state", "since_t", "fired", "cleared", "short", "long"
    )

    def __init__(self, spec: SLOSpec) -> None:
        self.spec = spec
        self.state = STATE_OK
        self.since_t: float | None = None
        self.fired = 0
        self.cleared = 0
        self.short: float | None = None
        self.long: float | None = None

    def to_dict(self) -> dict:
        return {
            "slo": self.spec.to_dict(),
            "state": self.state,
            "since_t": self.since_t,
            "fired": self.fired,
            "cleared": self.cleared,
            "short": self.short,
            "long": self.long,
        }


class SLOEngine:
    """Evaluates SLO specs over a ring buffer and tracks alert state."""

    #: Bounded transition history length.
    MAX_HISTORY = 256

    def __init__(
        self, specs: Iterable[SLOSpec], store: TimeSeriesStore
    ) -> None:
        self._store = store
        self._alerts = [Alert(spec) for spec in specs]
        names = [a.spec.name for a in self._alerts]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate SLO names: {sorted(names)}")
        self._fired_counters = {
            a.spec.name: counter(f"alerts.fired.{a.spec.name}")
            for a in self._alerts
        }
        self._cleared_counters = {
            a.spec.name: counter(f"alerts.cleared.{a.spec.name}")
            for a in self._alerts
        }
        self.history: list[dict] = []

    @property
    def alerts(self) -> Sequence[Alert]:
        return tuple(self._alerts)

    @property
    def active(self) -> int:
        """How many alerts are currently firing."""
        return sum(1 for a in self._alerts if a.state == STATE_FIRING)

    def evaluate(self, now: float | None = None) -> list[dict]:
        """One evaluation pass; returns the transitions it caused.

        Fire: short **and** long windows violate.  Clear: short window
        complies.  Either window abstaining (too few samples) leaves
        the alert's state untouched.
        """
        transitions: list[dict] = []
        with trace_span("monitor/slo"):
            _EVALUATIONS.inc()
            last = self._store.latest()
            t = last.t if now is None and last is not None else now
            for alert in self._alerts:
                spec = alert.spec
                short = spec.measure(self._store, spec.short_window_s)
                long = spec.measure(self._store, spec.long_window_s)
                alert.short, alert.long = short, long
                if alert.state == STATE_OK:
                    if (
                        short is not None
                        and long is not None
                        and not spec.complies(short)
                        and not spec.complies(long)
                    ):
                        alert.state = STATE_FIRING
                        alert.since_t = t
                        alert.fired += 1
                        self._fired_counters[spec.name].inc()
                        transitions.append(
                            self._event(spec, "fired", t, short, long)
                        )
                else:
                    if short is not None and spec.complies(short):
                        alert.state = STATE_OK
                        alert.since_t = t
                        alert.cleared += 1
                        self._cleared_counters[spec.name].inc()
                        transitions.append(
                            self._event(spec, "cleared", t, short, long)
                        )
            _ACTIVE.set(float(self.active))
            if transitions:
                self.history.extend(transitions)
                del self.history[: -self.MAX_HISTORY]
        return transitions

    @staticmethod
    def _event(
        spec: SLOSpec,
        event: str,
        t: float | None,
        short: float | None,
        long: float | None,
    ) -> dict:
        return {
            "slo": spec.name,
            "event": event,
            "t": t,
            "short": short,
            "long": long,
        }

    def dump(self) -> dict:
        """Deterministic dict view: per-alert state + transition log."""
        return {
            "alerts": [a.to_dict() for a in self._alerts],
            "history": list(self.history),
        }


def default_fault_slos(
    *, short_window_s: float = 1.0, long_window_s: float = 5.0
) -> list[SLOSpec]:
    """Zero-tolerance burn-rate specs over every graceful-degradation
    counter (:data:`repro.faults.DEGRADATION_COUNTER_NAMES`)."""
    from repro.faults import DEGRADATION_COUNTER_NAMES

    return [
        parse_slo(
            f"{name} rate == 0",
            name=name.replace(".", "-"),
            short_window_s=short_window_s,
            long_window_s=long_window_s,
        )
        for name in DEGRADATION_COUNTER_NAMES
    ]


def default_server_slos(
    *,
    latency_p99_s: float = 0.005,
    short_window_s: float = 1.0,
    long_window_s: float = 5.0,
) -> list[SLOSpec]:
    """The decision server's default objectives: p99 latency under
    5 ms, no sheds, no per-request errors, no degradation episodes."""
    specs = [
        parse_slo(
            f"server.latency_s p99 < {latency_p99_s}",
            name="server-latency-p99",
            short_window_s=short_window_s,
            long_window_s=long_window_s,
        ),
        parse_slo(
            "server.shed rate == 0",
            name="server-shed",
            short_window_s=short_window_s,
            long_window_s=long_window_s,
        ),
        parse_slo(
            "server.errors rate == 0",
            name="server-errors",
            short_window_s=short_window_s,
            long_window_s=long_window_s,
        ),
    ]
    specs.extend(
        default_fault_slos(
            short_window_s=short_window_s, long_window_s=long_window_s
        )
    )
    return specs


def default_cluster_slos(
    *, short_window_s: float = 2.0, long_window_s: float = 10.0
) -> list[SLOSpec]:
    """The fleet manager's default objective: epochs stay within
    budget."""
    return [
        parse_slo(
            "cluster.epoch.over_budget_w <= 0",
            name="cluster-over-budget",
            short_window_s=short_window_s,
            long_window_s=long_window_s,
        ),
    ]
