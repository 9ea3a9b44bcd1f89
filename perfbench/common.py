"""Shared run context: timing, failure accounting, and the metric sets."""

from __future__ import annotations

import statistics
import time
import traceback

from calib import Clock, Series

#: End-to-end metrics every workload reports (see README.md for what
#: each one means on each workload).
END_TO_END: tuple[tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("op_ms", "ms"),
    ("rate_per_s", "1/s"),
    ("ok_pct", "%"),
)

_COUNTERS = (
    "cache.profile.hits",
    "cache.profile.misses",
    "cache.truth_table.hits",
    "cache.truth_table.misses",
    "cache.measurement_template.hits",
    "cache.measurement_template.misses",
    "cache.oracle_frontier.hits",
    "cache.oracle_frontier.misses",
    "cache.search_space.hits",
    "cache.search_space.misses",
    "store.characterization.hits",
    "store.characterization.misses",
    "scheduler.selections",
    "scheduler.infeasible_fallbacks",
    "train.pam.builds",
    "train.pam.swaps",
    "train.gram.hits",
    "train.gram.misses",
    "train.gram.downdates",
    "train.cart.nodes",
    "server.batches",
    "server.requests",
)

_SERVE_SPLIT = ("late", "queue", "engine", "service", "demux", "covered")

#: Per-layer metrics of the traced run, in report order.  Self times
#: are shares of the traced wall time, so they compare across machines
#: of different speed; counts are totals over the traced intervals.
PER_LAYER: tuple[tuple[str, str], ...] = (
    ("hardware.run.calls", "count"),
    ("hardware.run.self_pct", "%"),
    ("hardware.limiter.calls", "count"),
    ("hardware.limiter.self_pct", "%"),
    ("hardware.limiter.runs_per_call", "runs/call"),
    ("profiling.profile.calls", "count"),
    ("profiling.profile.self_pct", "%"),
    ("profiling.sampler.self_pct", "%"),
    ("profiling.store.self_pct", "%"),
    ("profiling.store.hit_pct", "%"),
    ("profiling.dissimilarity.self_pct", "%"),
    ("core.train.self_pct", "%"),
    ("core.cluster.self_pct", "%"),
    ("core.regression.self_pct", "%"),
    ("core.classifier.self_pct", "%"),
    ("core.predict.calls", "count"),
    ("core.predict.self_pct", "%"),
    ("core.sweep_table.calls", "count"),
    ("core.sweep_table.self_pct", "%"),
    ("core.fallback_pct", "%"),
    ("methods.model.self_pct", "%"),
    ("methods.model_fl.self_pct", "%"),
    ("methods.cpu_fl.self_pct", "%"),
    ("methods.gpu_fl.self_pct", "%"),
    ("methods.oracle.self_pct", "%"),
    ("evaluation.evaluate_suite.self_pct", "%"),
    ("evaluation.records", "count"),
    ("evaluation.loocv.self_pct", "%"),
    ("server.engine.calls", "count"),
    ("server.engine.self_pct", "%"),
    ("server.service.calls", "count"),
    ("server.service.self_pct", "%"),
    ("server.warm.self_pct", "%"),
    ("server.batch_size.mean.lo", "requests"),
    ("server.batch_size.mean.hi", "requests"),
    ("server.shed", "count"),
    ("server.errors", "count"),
    *((f"serve.{rate}.{part}_pct", "%") for rate in ("lo", "hi") for part in _SERVE_SPLIT),
    ("serve.hi.p99_late_pct", "%"),
    ("search.evaluations", "count"),
    ("search.evaluate.self_pct", "%"),
    ("search.archive.self_pct", "%"),
    ("search.nsga2.self_pct", "%"),
    ("search.archive_size", "count"),
    ("cluster.pool_build.self_pct", "%"),
    ("cluster.view.calls", "count"),
    ("cluster.view.self_pct", "%"),
    ("cluster.allocate.calls", "count"),
    ("cluster.allocate.self_pct", "%"),
    ("cluster.tree.self_pct", "%"),
    ("trace.reps", "count"),
    ("trace.setup_pct", "%"),
    ("telemetry.trace_overhead_pct", "%"),
    ("unattributed_pct", "%"),
    *((f"counter.{name}", "count") for name in _COUNTERS),
)


def tail(values) -> tuple[str, float]:
    """The highest of p99/p90/p75/p50 with at least ten samples beyond
    it, as ``(label, value)``."""
    ordered = sorted(values)
    n = len(ordered)
    for pct in (99, 90, 75, 50):
        k = int(round(pct / 100.0 * (n - 1)))
        if n - 1 - k >= 10:
            return f"p{pct}", ordered[k]
    return "p50", statistics.median(ordered)


def percentile(values, pct: float) -> float:
    ordered = sorted(values)
    return ordered[int(round(pct / 100.0 * (len(ordered) - 1)))]


def program_counters() -> dict[str, float]:
    from repro.telemetry import telemetry_snapshot

    metrics = telemetry_snapshot()["metrics"]
    out = dict(metrics["counters"])
    for name, hist in metrics["histograms"].items():
        out[f"{name}.count"] = hist["count"]
        out[f"{name}.sum"] = hist["sum"]
    return out


class Context:
    """State of one benchmark run."""

    def __init__(self, *, seed: int, seconds: float, tracer=None) -> None:
        self.seed = seed
        self.seconds = seconds
        self.tracer = tracer
        self.clock = Clock()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.notes: list[str] = []
        #: Human-readable report rows: (name, value, unit, n, raw or None).
        self.rows: list[tuple[str, float, str, int, float | None]] = []
        self.e2e: dict[str, float] = {}
        self.layer_values: dict[str, float] = {}
        self.traced_wall = 0.0
        self.setup_wall = 0.0
        self.traced_reps = 0
        self.counter_delta: dict[str, float] = {}

    # -- failure accounting ------------------------------------------------

    def tally(self, attempted: int, failed: int, what: str) -> None:
        """Count operations; ``what`` describes the failures, if any."""
        self.attempted += attempted
        self.failed += failed
        if failed and len(self.problems) < 20:
            self.problems.append(what)

    def check(self, ok: bool, what: str) -> bool:
        """Count one operation, failed unless ``ok``."""
        self.tally(1, 0 if ok else 1, what)
        return ok

    def fail(self, what: str) -> None:
        self.check(False, what)

    def note(self, what: str) -> None:
        """A line for the report that is not a failure."""
        self.notes.append(what)

    # -- timing --------------------------------------------------------------

    @property
    def tracing(self) -> bool:
        return self.tracer is not None

    def traced(self, fn, *, setup: bool = False):
        """Run ``fn`` with the layer wrappers installed, accumulating its
        wall time and the program's counter deltas."""
        before = program_counters()
        self.tracer.install()
        t0 = time.perf_counter()
        try:
            return fn()
        finally:
            wall = time.perf_counter() - t0
            self.tracer.uninstall()
            self.traced_wall += wall
            if setup:
                self.setup_wall += wall
            else:
                self.traced_reps += 1
            after = program_counters()
            for k, v in after.items():
                self.counter_delta[k] = self.counter_delta.get(k, 0) + v - before.get(k, 0)

    def timed(self, fn, series: Series, *, traced: bool = False):
        """One calibrated repetition (traced when asked and tracing)."""
        if traced and self.tracing:
            return self.clock.measure(lambda: self.traced(fn), series)
        return self.clock.measure(fn, series)

    def guarded(self, fn, what: str):
        """Call ``fn``; an exception counts one failed operation."""
        try:
            return fn()
        except Exception as exc:  # noqa: BLE001 - every failure is counted
            self.fail(f"{what}: {exc!r}")
            traceback.print_exc()
            return None

    def deadline(self, share: float = 1.0) -> float:
        return time.perf_counter() + self.seconds * share

    # -- reporting -----------------------------------------------------------

    def row(self, name: str, value: float, unit: str, n: int, raw: float | None = None) -> None:
        self.rows.append((name, value, unit, n, raw))

    def layer_metrics(self) -> dict[str, float]:
        self_s, calls, calls_in = self.tracer.totals()
        wall = self.traced_wall or float("nan")

        def pct(layer: str) -> float:
            return 100.0 * self_s.get(layer, 0.0) / wall

        def top_calls(layer: str) -> int:
            return sum(v for (name, parent), v in calls_in.items() if name == layer and parent != layer)

        d = self.counter_delta
        out: dict[str, float] = {}
        for name, _unit in PER_LAYER:
            base, _, field = name.rpartition(".")
            if field == "self_pct":
                out[name] = pct(base)
            elif field == "calls":
                out[name] = float(top_calls(base))
            elif name.startswith("counter."):
                out[name] = float(d.get(name[len("counter."):], 0))
            else:
                out[name] = 0.0
        limiter_calls = top_calls("hardware.limiter")
        runs_in_limiter = calls_in.get(("hardware.run", "hardware.limiter"), 0)
        out["hardware.limiter.runs_per_call"] = runs_in_limiter / limiter_calls if limiter_calls else 0.0
        hits = d.get("store.characterization.hits", 0)
        misses = d.get("store.characterization.misses", 0)
        out["profiling.store.hit_pct"] = 100.0 * hits / (hits + misses) if hits + misses else 0.0
        sel = d.get("scheduler.selections", 0)
        out["core.fallback_pct"] = 100.0 * d.get("scheduler.infeasible_fallbacks", 0) / sel if sel else 0.0
        out["server.shed"] = float(d.get("server.shed", 0))
        out["server.errors"] = float(d.get("server.errors", 0))
        out["trace.reps"] = float(self.traced_reps)
        out["trace.setup_pct"] = 100.0 * self.setup_wall / wall
        out["unattributed_pct"] = 100.0 * (self.traced_wall - sum(self_s.values())) / wall
        out.update(self.layer_values)
        unknown = set(out) - {name for name, _ in PER_LAYER}
        if unknown:
            raise RuntimeError(f"unlisted per-layer metrics: {sorted(unknown)}")
        return out
