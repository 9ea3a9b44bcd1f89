"""Continuous monitoring layer: ring buffer, SLOs, exporters, top view."""

import json
import pathlib
import threading
import urllib.error
import urllib.request

import pytest

from repro import telemetry
from repro.telemetry import counter, gauge, histogram, set_enabled
from repro.telemetry.monitor import (
    Monitor,
    SLOEngine,
    SLOSpec,
    TimeSeriesStore,
    default_cluster_slos,
    default_fault_slos,
    default_server_slos,
    fetch_monitor_dump,
    load_slo_specs,
    parse_slo,
    render_prometheus,
    render_top,
    sample_to_jsonl,
)
from repro.telemetry.monitor.exemplars import (
    ExemplarStore,
    RequestExemplar,
    activate,
    active_store,
    deactivate,
    record_error,
    record_shed,
    record_slow,
)
from repro.telemetry.registry import (
    BUCKET_BOUNDS,
    MetricsRegistry,
    estimate_percentiles,
)

GOLDEN = pathlib.Path(__file__).parent / "golden"


@pytest.fixture(autouse=True)
def clean_telemetry():
    """Each test starts and ends with empty, enabled telemetry and no
    attached exemplar store."""
    telemetry.reset()
    set_enabled(True)
    deactivate()
    yield
    telemetry.reset()
    set_enabled(True)
    deactivate()


class FakeClock:
    """A manually advanced monotonic clock."""

    def __init__(self, t: float = 0.0) -> None:
        self.t = t

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> float:
        self.t += dt
        return self.t


def make_store(**kwargs) -> tuple[TimeSeriesStore, FakeClock]:
    clock = FakeClock()
    store = TimeSeriesStore(clock=clock, **kwargs)
    return store, clock


# -- time series ring -----------------------------------------------------------


class TestTimeSeriesStore:
    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            TimeSeriesStore(capacity=1)

    def test_wraparound_keeps_newest(self):
        store, clock = make_store(capacity=5)
        for _ in range(12):
            clock.advance(1.0)
            store.sample()
        assert len(store) == 5
        samples = store.samples()
        assert [s.t for s in samples] == [8.0, 9.0, 10.0, 11.0, 12.0]
        # Monotone global indices survive the wrap.
        assert [s.index for s in samples] == [7, 8, 9, 10, 11]

    def test_window_judged_on_ring_clock(self):
        store, clock = make_store()
        for _ in range(10):
            clock.advance(1.0)
            store.sample()
        assert len(store.samples(3.0)) == 4  # t in [7, 10]
        assert len(store.samples()) == 10

    def test_counter_increase_and_rate(self):
        c = counter("mon.t.reqs")
        store, clock = make_store()
        for i in range(5):
            c.inc(10)
            clock.advance(2.0)
            store.sample()
        # 4 pair deltas of 10 over an 8 s span.
        assert store.counter_increase("mon.t.reqs") == 40
        assert store.counter_rate("mon.t.reqs") == pytest.approx(5.0)

    def test_counter_increase_across_reset(self):
        """A registry reset mid-window must not produce a negative
        increase: the post-reset cumulative value is the pair's delta
        (Prometheus ``increase`` semantics)."""
        c = counter("mon.t.reset")
        store, clock = make_store()
        c.inc(100)
        clock.advance(1.0)
        store.sample()
        telemetry.get_registry().reset()
        c = counter("mon.t.reset")
        c.inc(7)
        clock.advance(1.0)
        store.sample()
        assert store.counter_increase("mon.t.reset") == 7
        assert store.counter_rate("mon.t.reset") == pytest.approx(7.0)

    def test_too_few_samples_abstain(self):
        store, clock = make_store()
        assert store.counter_increase("x") is None
        assert store.counter_rate("x") is None
        assert store.gauge_value("x") is None
        assert store.histogram_window("x") is None
        assert store.percentile("x", 99) is None
        clock.advance(1.0)
        store.sample()
        assert store.counter_increase("x") is None

    def test_gauge_value_is_latest(self):
        g = gauge("mon.t.depth")
        store, clock = make_store()
        g.set(3.0)
        clock.advance(1.0)
        store.sample()
        g.set(9.0)
        clock.advance(1.0)
        store.sample()
        assert store.gauge_value("mon.t.depth") == 9.0

    def test_histogram_window_delta_and_percentile(self):
        h = histogram("mon.t.lat")
        store, clock = make_store()
        clock.advance(1.0)
        store.sample()
        for v in (0.001, 0.001, 0.001, 0.1):
            h.observe(v)
        clock.advance(1.0)
        store.sample()
        delta = store.histogram_window("mon.t.lat")
        assert delta.count == 4
        assert delta.sum == pytest.approx(0.103)
        assert sum(delta.buckets) == 4
        p50 = store.percentile("mon.t.lat", 50)
        p99 = store.percentile("mon.t.lat", 99)
        # p50 sits in 0.001's bucket, p99 in 0.1's.
        assert 0.0003 < p50 < 0.0032
        assert 0.03 < p99 <= 0.32

    def test_histogram_window_across_reset(self):
        """Reset detection keys off the cumulative count decreasing
        (like Prometheus, a reset that climbs past the old count within
        one interval is indistinguishable from normal growth)."""
        h = histogram("mon.t.hr")
        store, clock = make_store()
        for _ in range(3):
            h.observe(1.0)
        clock.advance(1.0)
        store.sample()
        telemetry.get_registry().reset()
        h = histogram("mon.t.hr")
        h.observe(2.0)
        h.observe(2.0)
        clock.advance(1.0)
        store.sample()
        delta = store.histogram_window("mon.t.hr")
        assert delta.count == 2
        assert delta.sum == pytest.approx(4.0)

    def test_disabled_sampling_is_noop(self):
        store, clock = make_store()
        set_enabled(False)
        clock.advance(1.0)
        assert store.sample() is None
        assert len(store) == 0

    def test_dump_round_trip(self):
        c = counter("mon.t.rt")
        store, clock = make_store(capacity=8)
        for _ in range(3):
            c.inc(5)
            clock.advance(1.0)
            store.sample()
        dump = store.dump()
        clone = TimeSeriesStore.from_dump(json.loads(json.dumps(dump)))
        assert len(clone) == 3
        assert clone.counter_increase("mon.t.rt") == 10
        assert clone.latest().t == store.latest().t


# -- percentile estimation ------------------------------------------------------


class TestPercentiles:
    def test_summary_percentiles_ordered_and_clamped(self):
        h = histogram("mon.p.h")
        for i in range(1, 101):
            h.observe(i / 1000.0)  # 1..100 ms
        s = h.summary()
        assert s["p50"] <= s["p90"] <= s["p99"]
        # Clamped to the observed range, never past max.
        assert s["min"] <= s["p50"]
        assert s["p99"] <= s["max"]

    def test_empty_summary_has_no_percentiles(self):
        h = histogram("mon.p.empty")
        s = h.summary()
        assert "p50" not in s and "p99" not in s

    def test_estimate_handles_overflow_bucket(self):
        buckets = [0] * (len(BUCKET_BOUNDS) + 1)
        buckets[-1] = 10  # everything above the largest bound
        (p99,) = estimate_percentiles(buckets, (99,))
        assert p99 >= BUCKET_BOUNDS[-1]

    def test_estimate_empty_is_nan(self):
        (p,) = estimate_percentiles([0] * (len(BUCKET_BOUNDS) + 1), (50,))
        assert p != p


# -- SLO engine -----------------------------------------------------------------


def engine_with(store, *specs):
    return SLOEngine(specs, store)


class TestSLO:
    def test_parse_explicit_and_default_signal(self):
        s = parse_slo("server.latency_s p99 < 0.005")
        assert (s.metric, s.signal, s.op, s.threshold) == (
            "server.latency_s", "p99", "<", 0.005,
        )
        s = parse_slo("server.queue_depth < 512")
        assert s.signal == "value"
        assert s.expr == "server.queue_depth value < 512"

    @pytest.mark.parametrize(
        "expr", ["too few", "a b c d e", "m p99 < nope", "m p77 < 1"]
    )
    def test_parse_rejects_malformed(self, expr):
        with pytest.raises(ValueError):
            parse_slo(expr)

    def test_spec_validates_windows_and_duplicates(self):
        with pytest.raises(ValueError):
            SLOSpec(
                name="bad", metric="m", signal="rate", op="<",
                threshold=1.0, short_window_s=10.0, long_window_s=5.0,
            )
        store, _ = make_store()
        spec = parse_slo("m rate == 0", name="dup")
        with pytest.raises(ValueError):
            SLOEngine([spec, spec], store)

    def test_load_specs_from_file(self, tmp_path):
        path = tmp_path / "slo.json"
        path.write_text(json.dumps([
            {"expr": "server.shed rate == 0", "short_window_s": 2,
             "long_window_s": 8},
            {"expr": "server.latency_s p99 < 0.01", "name": "lat"},
        ]))
        specs = load_slo_specs(path)
        assert [s.name for s in specs] == ["server-shed", "lat"]
        assert specs[0].long_window_s == 8.0
        with pytest.raises(ValueError):
            bad = tmp_path / "bad.json"
            bad.write_text("{}")
            load_slo_specs(bad)

    def test_empty_window_abstains(self):
        """No samples at all: evaluation neither fires nor clears."""
        store, _ = make_store()
        engine = engine_with(store, parse_slo("c rate == 0"))
        assert engine.evaluate() == []
        assert engine.alerts[0].state == "ok"

    def test_partial_window_abstains(self):
        """One sample (rate undefined) leaves alert state untouched."""
        c = counter("mon.s.c")
        store, clock = make_store()
        c.inc(100)
        clock.advance(1.0)
        store.sample()
        engine = engine_with(
            store, parse_slo("mon.s.c rate == 0", short_window_s=1,
                             long_window_s=2)
        )
        assert engine.evaluate() == []
        assert engine.alerts[0].state == "ok"

    def test_fire_needs_both_windows_then_clears_on_short(self):
        c = counter("mon.s.burn")
        store, clock = make_store()
        spec = parse_slo(
            "mon.s.burn rate == 0", short_window_s=2, long_window_s=6
        )
        engine = engine_with(store, spec)
        # Build a clean baseline longer than the long window.
        for _ in range(8):
            clock.advance(1.0)
            store.sample()
            engine.evaluate()
        assert engine.alerts[0].state == "ok"
        # Start burning: both windows must violate before it fires.
        events = []
        for _ in range(8):
            c.inc(5)
            clock.advance(1.0)
            store.sample()
            events += engine.evaluate()
        assert engine.alerts[0].state == "firing"
        assert [e["event"] for e in events] == ["fired"]
        assert engine.active == 1
        # Stop burning: clears as soon as the short window is clean.
        for _ in range(4):
            clock.advance(1.0)
            store.sample()
            events += engine.evaluate()
        assert engine.alerts[0].state == "ok"
        assert [e["event"] for e in events] == ["fired", "cleared"]
        assert engine.active == 0
        # Transition counters mirror the history.
        snap = telemetry.get_registry().snapshot()["counters"]
        assert snap["alerts.fired.mon-s-burn"] == 1
        assert snap["alerts.cleared.mon-s-burn"] == 1

    def test_value_signal_gauge_slo(self):
        g = gauge("mon.s.over")
        store, clock = make_store()
        engine = engine_with(
            store, parse_slo("mon.s.over <= 0", short_window_s=1,
                             long_window_s=1)
        )
        g.set(0.0)
        clock.advance(1.0)
        store.sample()
        engine.evaluate()
        assert engine.alerts[0].state == "ok"
        g.set(4.5)
        clock.advance(1.0)
        store.sample()
        engine.evaluate()
        assert engine.alerts[0].state == "firing"
        g.set(0.0)
        clock.advance(1.0)
        store.sample()
        engine.evaluate()
        assert engine.alerts[0].state == "ok"

    def test_default_slo_sets(self):
        assert {s.metric for s in default_fault_slos()} == {
            "faults.retries", "faults.sample_fallbacks",
            "faults.failed_invocations", "faults.corrupt_samples",
            "faults.stuck_executions", "faults.quarantined_configs",
        }
        names = [s.name for s in default_server_slos()]
        assert "server-latency-p99" in names
        assert "server-shed" in names
        assert len(names) == len(set(names))
        assert [s.name for s in default_cluster_slos()] == [
            "cluster-over-budget",
        ]


# -- exemplars ------------------------------------------------------------------


class TestExemplars:
    def test_slow_topk_displaces_fastest(self):
        store = ExemplarStore(k_per_kind=2)
        activate(store)
        for ms in (1.0, 5.0, 3.0, 0.5):
            record_slow("k", 20.0, ms / 1e3)
        kept = sorted(
            e.latency_s for e in store if e.kind == "slow"
        )
        assert kept == [0.003, 0.005]
        assert store.count("slow") == 2

    def test_shed_and_error_first_k(self):
        store = ExemplarStore(k_per_kind=2)
        activate(store)
        for _ in range(5):
            record_shed("k", 20.0)
        record_error("k", 20.0, "unknown_kernel")
        assert store.count("shed") == 2
        assert store.count("error") == 1
        snap = store.snapshot()
        assert snap["current"]["dropped"] == 3

    def test_rotate_bounds_history_and_skips_empty(self):
        store = ExemplarStore(k_per_kind=1, max_windows=2)
        activate(store)
        for t in range(5):
            record_shed("k", 20.0)
            store.rotate(float(t))
            store.rotate(float(t))  # empty double-rotate is a no-op
        snap = store.snapshot()
        assert len(snap["windows"]) == 2
        assert [w["t"] for w in snap["windows"]] == [3.0, 4.0]

    def test_hooks_noop_without_store_or_disabled(self):
        record_slow("k", 20.0, 1.0)  # no store attached: no crash
        store = ExemplarStore()
        activate(store)
        set_enabled(False)
        assert active_store() is None
        record_slow("k", 20.0, 1.0)
        set_enabled(True)
        assert store.count() == 0

    def test_trace_rides_along_in_dicts(self):
        from repro.telemetry import PhaseTrace

        trace = PhaseTrace(max_phases=2)
        trace.add("queued", 0.0, 0.5)
        trace.add("decide", 0.5, 0.2)
        trace.add("extra", 0.7, 0.1)  # past the bound
        ex = RequestExemplar(
            "slow", kernel_uid="k", power_cap_w=20.0, latency_s=0.7,
            trace=trace,
        )
        d = ex.to_dict()
        assert [p["name"] for p in d["trace"]["phases"]] == [
            "queued", "decide",
        ]
        assert d["trace"]["truncated"] == 1


# -- exporters ------------------------------------------------------------------


class TestExporters:
    def make_snapshot(self):
        r = MetricsRegistry()
        r.counter("server.requests").inc(1234)
        r.counter("faults.retries")
        r.gauge("server.queue_depth").set(17.0)
        h = r.histogram("server.latency_s")
        for v in (0.0005, 0.0005, 0.002, 0.03):
            h.observe(v)
        return r.snapshot()

    def test_prometheus_matches_golden_fixture(self):
        text = render_prometheus(self.make_snapshot())
        golden = (GOLDEN / "prometheus_fixture.txt").read_text()
        assert text == golden

    def test_prometheus_consistency_with_snapshot(self):
        snap = self.make_snapshot()
        text = render_prometheus(snap)
        lines = dict(
            line.rsplit(" ", 1)
            for line in text.splitlines()
            if line and not line.startswith("#")
        )
        assert lines["repro_server_requests_total"] == "1234"
        assert lines["repro_server_queue_depth"] == "17"
        assert lines["repro_server_latency_s_count"] == "4"
        assert float(lines["repro_server_latency_s_sum"]) == (
            pytest.approx(0.033)
        )
        # The +Inf cumulative bucket always equals the count.
        assert lines['repro_server_latency_s_bucket{le="+Inf"}'] == "4"

    def test_jsonl_line_round_trips(self):
        c = counter("mon.e.c")
        c.inc(3)
        store, clock = make_store()
        clock.advance(1.0)
        sample = store.sample()
        line = sample_to_jsonl(sample)
        assert "\n" not in line
        parsed = json.loads(line)
        assert parsed["t"] == 1.0
        assert parsed["counters"]["mon.e.c"] == 3


# -- the Monitor service --------------------------------------------------------


class TestMonitor:
    def test_tick_samples_evaluates_rotates(self, tmp_path):
        c = counter("mon.m.c")
        clock = FakeClock()
        jsonl = tmp_path / "samples.jsonl"
        mon = Monitor(
            slos=[parse_slo("mon.m.c rate == 0", short_window_s=1,
                            long_window_s=2)],
            clock=clock,
            jsonl=jsonl,
        )
        try:
            transitions = []
            for _ in range(4):
                c.inc(5)
                clock.advance(1.0)
                transitions += mon.tick()
            assert len(mon.store) == 4
            assert [e["event"] for e in transitions] == ["fired"]
            dump = mon.dump()
            assert dump["slo"]["alerts"][0]["state"] == "firing"
            lines = jsonl.read_text().strip().splitlines()
            assert len(lines) == 4
        finally:
            mon.close()

    def test_disabled_tick_is_noop(self):
        mon = Monitor(slos=[parse_slo("x rate == 0")])
        try:
            set_enabled(False)
            assert mon.tick() == []
            assert len(mon.store) == 0
            assert mon.latest() is None
        finally:
            set_enabled(True)
            mon.close()

    def test_monitor_attaches_and_detaches_exemplars(self):
        mon = Monitor()
        assert active_store() is mon.exemplars
        mon.close()
        assert active_store() is None

    def test_write_dump_and_render_top(self, tmp_path):
        c = counter("server.requests")
        g = gauge("server.queue_depth")
        h = histogram("server.latency_s")
        clock = FakeClock()
        mon = Monitor(clock=clock)
        try:
            record_slow("LU/Small/LUDecomposition", 20.0, 0.004,
                        batch_size=3)
            for i in range(3):
                c.inc(100)
                g.set(float(i))
                h.observe(0.001)
                clock.advance(1.0)
                mon.tick()
            path = mon.write_dump(tmp_path / "mon.json")
            dump = json.loads(path.read_text())
            text = render_top(dump, window_s=2.0)
            assert "server.requests" in text
            assert "100.0/s" in text
            assert "LU/Small/LUDecomposition" in text
        finally:
            mon.close()

    def test_http_endpoints(self):
        c = counter("mon.h.c")
        c.inc(9)
        clock = FakeClock()
        mon = Monitor(slos=[parse_slo("mon.h.c rate == 0")], clock=clock)
        try:
            port = mon.serve(0)
            clock.advance(1.0)
            mon.tick()
            base = f"http://127.0.0.1:{port}"
            with urllib.request.urlopen(f"{base}/healthz") as r:
                assert r.read() == b"ok\n"
            with urllib.request.urlopen(f"{base}/metrics") as r:
                body = r.read().decode()
            assert "repro_mon_h_c_total 9" in body
            # The scraped series must match the live registry snapshot.
            snap = mon.registry_snapshot()
            assert f"repro_slo_evaluations_total "\
                   f"{snap['counters']['slo.evaluations']}" in body
            dump = fetch_monitor_dump(f"127.0.0.1:{port}")
            assert len(dump["timeseries"]["samples"]) == 1
            with pytest.raises(urllib.error.HTTPError) as exc:
                urllib.request.urlopen(f"{base}/nope")
            assert exc.value.code == 404
        finally:
            mon.close()

    def test_start_stop_background_thread(self):
        mon = Monitor()
        mon.start(interval_s=0.01)
        with pytest.raises(RuntimeError):
            mon.start(interval_s=0.01)
        deadline = threading.Event()
        deadline.wait(0.15)
        mon.close()
        assert len(mon.store) >= 2


# -- cluster epoch integration --------------------------------------------------


class TestClusterMonitor:
    def test_epoch_gauges_and_over_budget_cycle(self):
        """A managed run with a budget squeeze drives the over-budget
        SLO through fire and clear on the epoch clock."""
        manager = _tiny_manager()
        floors = sum(
            f.points[0].expected_power_w
            for f in manager.frontiers().values()
        )
        budgets = [floors * m for m in (1.5, 1.5, 0.5, 0.5, 1.5, 1.5)]
        mon = Monitor(slos=default_cluster_slos(
            short_window_s=1.0, long_window_s=2.0
        ))
        try:
            report = manager.run(
                budgets, n_epochs=6, timesteps_per_epoch=1, monitor=mon
            )
            snap = telemetry.get_registry().snapshot()
            assert snap["counters"]["cluster.epochs"] == 6
            assert snap["gauges"]["cluster.epoch.nodes"] == 2.0
            events = [
                (e["slo"], e["event"])
                for e in mon.slo_engine.history
            ]
            assert ("cluster-over-budget", "fired") in events
            assert ("cluster-over-budget", "cleared") in events
            assert 0.0 < report.budget_compliance() < 1.0
        finally:
            mon.close()


def _tiny_manager():
    from repro.cluster import ClusterNode, ClusterPowerManager
    from repro.core import train_model
    from repro.hardware import TrinityAPU
    from repro.profiling import ProfilingLibrary
    from repro.runtime import Application
    from repro.workloads import build_suite

    suite = build_suite()
    keep = sorted({k.benchmark for k in suite})[:3]
    kernels = [k for k in suite if k.benchmark in keep]
    apu = TrinityAPU(seed=0)
    model = train_model(
        ProfilingLibrary(apu, seed=0), kernels, n_clusters=3
    )
    groups = sorted({k.group for k in kernels})
    return ClusterPowerManager(
        [
            ClusterNode(
                f"n{i}",
                Application.from_suite(suite, g),
                model,
                seed=i + 1,
            )
            for i, g in enumerate(groups[:2])
        ],
        policy="greedy",
    )
