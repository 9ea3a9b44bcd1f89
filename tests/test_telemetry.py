"""Telemetry subsystem: registry, spans, logging, and pipeline wiring."""

import json
import logging
import pathlib
import threading

import pytest

REPO_SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

from repro import telemetry
from repro.telemetry import (
    MetricsRegistry,
    configure_logging,
    counter,
    gauge,
    get_logger,
    get_registry,
    get_tracer,
    histogram,
    is_enabled,
    load_telemetry,
    log_event,
    render_telemetry,
    set_enabled,
    telemetry_snapshot,
    trace_span,
    write_telemetry,
)
from repro.workloads.suite import Suite, build_suite


@pytest.fixture(autouse=True)
def clean_telemetry():
    """Each test starts and ends with empty, enabled telemetry."""
    telemetry.reset()
    set_enabled(True)
    yield
    telemetry.reset()
    set_enabled(True)


def small_suite(n_benchmarks: int = 3) -> Suite:
    full = build_suite()
    keep = sorted({k.benchmark for k in full})[:n_benchmarks]
    return Suite(kernels=tuple(k for k in full if k.benchmark in keep))


# -- registry -------------------------------------------------------------------


class TestRegistry:
    def test_counter_get_or_create_returns_same_object(self):
        assert counter("t.a") is counter("t.a")
        assert counter("t.a") is not counter("t.b")

    @pytest.mark.parametrize(
        "value,expected", [("0", False), ("false", False), ("off", False),
                           ("1", True), ("", True)]
    )
    def test_env_var_gates_initial_state(self, value, expected):
        import os
        import subprocess
        import sys

        env = dict(os.environ, REPRO_TELEMETRY=value)
        env["PYTHONPATH"] = str(REPO_SRC)
        out = subprocess.run(
            [sys.executable, "-c",
             "from repro.telemetry import is_enabled; print(is_enabled())"],
            env=env, capture_output=True, text=True, check=True,
        )
        assert out.stdout.strip() == str(expected)

    def test_counter_thread_safety_exact_total(self):
        c = counter("t.threads")
        n_threads, n_incs = 8, 5000

        def worker():
            for _ in range(n_incs):
                c.inc()

        threads = [threading.Thread(target=worker) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value == n_threads * n_incs

    def test_gauge_records_latest_value(self):
        g = gauge("t.gauge")
        g.set(3)
        g.set(7.5)
        assert g.value == 7.5

    def test_reset_hammer_no_lost_or_torn_observations(self):
        """Registry reset racing concurrent histogram updates: every
        observation lands in exactly one epoch (a drained reset summary
        or the final state), and no snapshot is ever torn."""
        h = histogram("t.hammer")
        c = counter("t.hammer.c")
        n_threads, n_obs = 4, 2000
        stop = threading.Event()
        drained_hist = 0
        drained_cnt = 0

        def writer():
            for _ in range(n_obs):
                h.observe(0.001)
                c.inc()

        def resetter():
            nonlocal drained_hist, drained_cnt
            while not stop.is_set():
                out = get_registry().reset()
                drained_hist += out["histograms"]["t.hammer"]["count"]
                drained_cnt += out["counters"]["t.hammer.c"]

        threads = [
            threading.Thread(target=writer) for _ in range(n_threads)
        ]
        hammer = threading.Thread(target=resetter)
        hammer.start()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        stop.set()
        hammer.join()
        final = get_registry().snapshot()
        total_h = drained_hist + final["histograms"]["t.hammer"]["count"]
        total_c = drained_cnt + final["counters"]["t.hammer.c"]
        assert total_h == n_threads * n_obs
        assert total_c == n_threads * n_obs

    def test_histogram_reset_swaps_state_atomically(self):
        """reset() returns the drained summary; the instrument object
        survives and starts from zero."""
        h = histogram("t.swap")
        for _ in range(5):
            h.observe(0.01)
        drained = h.reset()
        assert drained["count"] == 5
        assert h.count == 0
        h.observe(0.02)
        assert h.summary()["count"] == 1

    def test_snapshot_never_torn_by_concurrent_reset(self):
        """A snapshot taken during reset hammering reflects a single
        consistent epoch: histogram count and bucket sum always agree."""
        h = histogram("t.torn")
        stop = threading.Event()

        def writer():
            while not stop.is_set():
                h.observe(0.001)

        def resetter():
            while not stop.is_set():
                get_registry().reset()

        workers = [
            threading.Thread(target=writer),
            threading.Thread(target=resetter),
        ]
        for t in workers:
            t.start()
        try:
            for _ in range(300):
                s = get_registry().snapshot()["histograms"]["t.torn"]
                assert sum(s.get("buckets", {}).values()) == s["count"]
        finally:
            stop.set()
            for t in workers:
                t.join()

    def test_histogram_summary(self):
        h = histogram("t.hist")
        for v in (0.001, 0.01, 0.1, 1.0):
            h.observe(v)
        s = h.summary()
        assert s["count"] == 4
        assert s["min"] == pytest.approx(0.001)
        assert s["max"] == pytest.approx(1.0)
        assert s["sum"] == pytest.approx(1.111)
        assert sum(s["buckets"].values()) == 4

    def test_histogram_timer(self):
        h = histogram("t.timer")
        with h.time():
            pass
        assert h.count == 1
        assert h.summary()["max"] < 1.0

    def test_disabled_updates_are_noops(self):
        c, g, h = counter("t.off.c"), gauge("t.off.g"), histogram("t.off.h")
        set_enabled(False)
        assert not is_enabled()
        c.inc()
        g.set(9)
        h.observe(1.0)
        set_enabled(True)
        assert c.value == 0
        assert g.value == 0.0
        assert h.count == 0

    def test_snapshot_determinism(self):
        r = MetricsRegistry()
        # Create in non-sorted order; snapshots must serialize equally.
        r.counter("z.last").inc(2)
        r.counter("a.first").inc(1)
        r.gauge("m.middle").set(5)
        s1, s2 = r.snapshot(), r.snapshot()
        assert json.dumps(s1) == json.dumps(s2)
        assert list(s1["counters"]) == ["a.first", "z.last"]

    def test_reset_zeroes_instruments_in_place(self):
        c = counter("t.reset")
        c.inc(5)
        get_registry().reset()
        # The instrument stays registered (module-level references must
        # keep reporting into snapshots) but its value is zeroed.
        assert get_registry().snapshot()["counters"]["t.reset"] == 0
        c.inc()
        assert get_registry().snapshot()["counters"]["t.reset"] == 1


# -- spans ----------------------------------------------------------------------


class TestSpans:
    def test_nesting_builds_tree(self):
        with trace_span("outer"):
            with trace_span("inner"):
                pass
            with trace_span("inner"):
                pass
        snap = get_tracer().snapshot()
        assert len(snap) == 1
        outer = snap[0]
        assert outer["name"] == "outer"
        assert outer["count"] == 1
        (inner,) = outer["children"]
        assert inner["name"] == "inner"
        assert inner["count"] == 2
        assert inner["total_s"] <= outer["total_s"]

    def test_sibling_spans_aggregate_not_append(self):
        for _ in range(5):
            with trace_span("repeat"):
                pass
        snap = get_tracer().snapshot()
        assert len(snap) == 1
        assert snap[0]["count"] == 5

    def test_disabled_records_nothing(self):
        set_enabled(False)
        with trace_span("ghost"):
            pass
        set_enabled(True)
        assert get_tracer().snapshot() == []

    def test_fallback_parents_other_threads(self):
        tracer = get_tracer()
        with trace_span("driver") as root:
            tracer.set_fallback(root)
            try:

                def work():
                    with trace_span("worker"):
                        pass

                threads = [threading.Thread(target=work) for _ in range(3)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join()
            finally:
                tracer.set_fallback(None)
        (driver,) = get_tracer().snapshot()
        (worker,) = driver["children"]
        assert worker["name"] == "worker"
        assert worker["count"] == 3

    def test_children_sorted_in_snapshot(self):
        with trace_span("p"):
            with trace_span("zeta"):
                pass
            with trace_span("alpha"):
                pass
        (p,) = get_tracer().snapshot()
        assert [c["name"] for c in p["children"]] == ["alpha", "zeta"]


# -- structured logging ---------------------------------------------------------


class TestLogging:
    def test_log_event_human_format(self, capsys):
        import io

        buf = io.StringIO()
        configure_logging(level="info", stream=buf)
        log = get_logger("repro.test")
        log_event(log, logging.INFO, "my-event", answer=42, label="x")
        assert "my-event answer=42 label=x" in buf.getvalue()

    def test_log_event_json_format(self):
        import io

        buf = io.StringIO()
        configure_logging(level="info", json_mode=True, stream=buf)
        log_event(get_logger("repro.test"), logging.INFO, "jev", k=1)
        record = json.loads(buf.getvalue().strip())
        assert record["event"] == "jev"
        assert record["k"] == 1
        assert record["level"] == "info"

    def test_quiet_suppresses_info(self):
        import io

        buf = io.StringIO()
        configure_logging(level="debug", quiet=True, stream=buf)
        log_event(get_logger("repro.test"), logging.INFO, "hidden")
        log_event(get_logger("repro.test"), logging.ERROR, "visible")
        out = buf.getvalue()
        assert "hidden" not in out
        assert "visible" in out

    def test_get_logger_roots_at_repro(self):
        assert get_logger("x.y").name == "repro.x.y"
        assert get_logger("repro.evaluation.loocv").name == "repro.evaluation.loocv"


# -- pipeline wiring ------------------------------------------------------------


class TestPipelineTelemetry:
    def test_loocv_span_tree_and_cache_counters(self, tmp_path):
        from repro.evaluation.loocv import run_loocv

        out = tmp_path / "telemetry.json"
        run_loocv(small_suite(), seed=20101, n_clusters=2)
        write_telemetry(out)
        data = load_telemetry(out)

        spans = {n["name"]: n for n in data["spans"]}
        assert "loocv" in spans
        children = {c["name"]: c for c in spans["loocv"]["children"]}
        assert "offline/characterize" in children
        assert "fold" in children
        fold_children = {c["name"] for c in children["fold"]["children"]}
        assert {
            "offline/dissimilarity",
            "offline/train",
            "online/evaluate",
        } <= fold_children
        train = next(
            c
            for c in children["fold"]["children"]
            if c["name"] == "offline/train"
        )
        # No offline/frontier child: folds train on a precomputed
        # dissimilarity slice, so frontier derivation happens under the
        # store's offline/dissimilarity span instead.
        assert {c["name"] for c in train["children"]} == {
            "offline/cluster",
            "offline/regression",
            "offline/cart",
        }
        evaluate = next(
            c
            for c in children["fold"]["children"]
            if c["name"] == "online/evaluate"
        )
        eval_children = {c["name"] for c in evaluate["children"]}
        assert {"online/sample", "online/predict", "online/select"} <= eval_children

        counters = data["metrics"]["counters"]
        for family in (
            "cache.truth_table",
            "cache.measurement_template",
            "cache.profile",
            "cache.oracle_frontier",
        ):
            assert f"{family}.hits" in counters
            assert f"{family}.misses" in counters
            assert counters[f"{family}.hits"] + counters[f"{family}.misses"] > 0
        assert counters["scheduler.selections"] > 0
        assert any(k.startswith("harness.records.") for k in counters)
        assert data["metrics"]["histograms"]["loocv.fold_s"]["count"] > 0

    def test_cache_counters_warm_vs_cold(self):
        from repro.evaluation.loocv import run_loocv

        suite = small_suite()
        registry = get_registry()
        run_loocv(suite, seed=20202, n_clusters=2)
        cold = registry.snapshot()["counters"]
        # A fresh seed's first run must take profile-cache misses.
        assert cold["cache.profile.misses"] > 0

        run_loocv(suite, seed=20202, n_clusters=2)
        warm = registry.snapshot()["counters"]
        # Second identical run: characterization comes from the shared
        # store (hits only), no new profile-cache misses.
        assert warm["cache.profile.misses"] == cold["cache.profile.misses"]
        assert (
            warm["store.characterization.hits"]
            > cold["store.characterization.hits"]
        )

    def test_records_bit_identical_with_telemetry_on_off(self):
        from repro.evaluation.loocv import run_loocv

        suite = small_suite()
        on = run_loocv(suite, seed=0, n_clusters=2)
        telemetry.reset()
        set_enabled(False)
        off = run_loocv(suite, seed=0, n_clusters=2)
        set_enabled(True)
        assert on.records == off.records
        # Disabled run collected nothing.
        assert get_tracer().snapshot() == []

    def test_harness_cap_violation_counters_match_records(self):
        from repro.evaluation.loocv import run_loocv

        report = run_loocv(small_suite(), seed=30303, n_clusters=2)
        counters = get_registry().snapshot()["counters"]
        by_method: dict[str, int] = {}
        totals: dict[str, int] = {}
        for r in report.records:
            totals[r.method] = totals.get(r.method, 0) + 1
            if not r.under_limit:
                by_method[r.method] = by_method.get(r.method, 0) + 1
        for method, total in totals.items():
            assert counters[f"harness.records.{method}"] == total
            assert (
                counters.get(f"harness.cap_violations.{method}", 0)
                == by_method.get(method, 0)
            )


# -- report artifact ------------------------------------------------------------


class TestReport:
    def test_snapshot_round_trip(self, tmp_path):
        counter("t.rt").inc(3)
        with trace_span("t.span"):
            pass
        path = tmp_path / "t.json"
        written = write_telemetry(path)
        loaded = load_telemetry(path)
        assert loaded == json.loads(json.dumps(written))
        assert loaded["metrics"]["counters"]["t.rt"] == 3

    def test_load_rejects_bad_version(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"version": 999}))
        with pytest.raises(ValueError, match="version"):
            load_telemetry(path)

    def test_render_smoke(self):
        counter("t.render").inc()
        gauge("t.render.size").set(4)
        histogram("t.render.h").observe(0.5)
        with trace_span("t.render.span"):
            pass
        text = render_telemetry(telemetry_snapshot())
        assert "t.render" in text
        assert "t.render.span" in text
        assert "Counters:" in text

    def test_render_empty(self):
        text = render_telemetry(telemetry_snapshot())
        assert "(no spans recorded)" in text

    def test_render_includes_percentiles(self):
        h = histogram("t.pct")
        for v in (0.001, 0.002, 0.004, 0.2):
            h.observe(v)
        text = render_telemetry(telemetry_snapshot())
        assert "p50=" in text and "p99=" in text


class TestDiff:
    def snapshot_pair(self):
        from repro.telemetry import diff_telemetry

        counter("t.d.reqs").inc(10)
        histogram("t.d.lat").observe(0.001)
        a = json.loads(json.dumps(telemetry_snapshot()))
        counter("t.d.reqs").inc(5)
        counter("t.d.new").inc(2)
        gauge("t.d.depth").set(3.0)
        for _ in range(10):
            histogram("t.d.lat").observe(0.1)
        b = json.loads(json.dumps(telemetry_snapshot()))
        return diff_telemetry(a, b)

    def test_counter_deltas_and_new_names(self):
        d = self.snapshot_pair()
        assert d["counters"]["t.d.reqs"] == {
            "a": 10, "b": 15, "delta": 5,
        }
        # Present only in B: treated as starting from zero.
        assert d["counters"]["t.d.new"]["delta"] == 2
        assert d["gauges"]["t.d.depth"]["delta"] == 3.0

    def test_histogram_shift(self):
        d = self.snapshot_pair()
        lat = d["histograms"]["t.d.lat"]
        assert lat["count"] == {"a": 1, "b": 11}
        assert lat["mean"]["b"] > lat["mean"]["a"]
        assert lat["p99"]["b"] > lat["p99"]["a"]

    def test_render_diff(self):
        from repro.telemetry import render_telemetry_diff

        text = render_telemetry_diff(self.snapshot_pair())
        assert "t.d.reqs" in text
        assert "10 -> 15" in text
        assert "(+5)" in text
        assert "t.d.lat" in text
        # Unchanged rows are hidden by default.
        assert "slo.evaluations" not in text
