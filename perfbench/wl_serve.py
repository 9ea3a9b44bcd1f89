"""``serve``: the decision server, closed and open loop.

Set-up builds and warms ``build_default_service(seed)``.  The timed part
first runs closed loops of ``DecisionService.decide_batch`` calls of
4096 requests and of 4 requests (the batch size the server forms under
load), then drives a ``DecisionServer`` (one dispatcher)
with this benchmark's own open-loop Poisson generator at 1000/s (``lo``)
and 3000/s (``hi``).  Served latency is measured from each request's
*scheduled* send time, so generator stalls count against the server
like any other delay, and it stays raw wall time: queueing delay does
not scale with CPU speed.  Training happens only in set-up.
"""

from __future__ import annotations

import functools
import hashlib
import time
from concurrent.futures import wait

import numpy as np

import expected
from calib import Series
from common import percentile, program_counters, tail

BATCH = 4096
CALLS_PER_REP = 4
#: Closed-loop calls at the batch size the server forms under load.
SMALL_BATCH = 4
SMALL_CALLS = 512
POOL = 8192
RATES = (("lo", 1000.0), ("hi", 3000.0))
#: Share of ``--seconds`` for the closed loop and for each open-loop rate.
SHARES = {"closed_big": 0.2, "closed_small": 0.3, "lo": 0.2, "hi": 0.3}
SLO_MS = 5.0
CHECKED_PER_PHASE = 256
DRAIN_TIMEOUT_S = 30.0


def setup(seed: int) -> dict:
    from repro.hardware.backend import create_backend
    from repro.methods.oracle import Oracle
    from repro.server.engine import DecisionRequest
    from repro.server.service import build_default_service
    from repro.workloads import build_suite

    service = build_default_service(seed=seed)
    service.warm()
    # Requests carry the paper's evaluation caps (Section V-B): a
    # uniformly drawn kernel under one of the power levels of its
    # oracle frontier, drawn uniformly.
    oracle = Oracle(create_backend("trinity", seed=seed))
    caps = {k.uid: oracle.caps_for(k) for k in build_suite()}
    rng = np.random.default_rng(seed)
    uids = service.kernel_uids
    pool = []
    for k in rng.integers(0, len(uids), POOL):
        uid = uids[int(k)]
        pool.append((uid, caps[uid][int(rng.integers(0, len(caps[uid])))]))
    batch = [DecisionRequest(uid, cap) for uid, cap in pool[:BATCH]]
    first = service.decide_batch(batch)  # also warms the engine path
    return {"service": service, "pool": pool, "batch": batch, "digest": results_digest(first)}


def reference(seed: int) -> dict:
    """This seed's committed outputs (see ``expected.py``)."""
    return {"digest": setup(seed)["digest"]}


def results_digest(results) -> str:
    """Digest of the answers to the set-up batch, compared with the
    committed value for the seed (see ``expected.py``)."""
    h = hashlib.sha256()
    for r in results:
        h.update(repr((r.kernel_uid, r.power_cap_w, r.config, r.predicted_power_w,
                       r.predicted_performance, r.feasible, r.error)).encode())
    return h.hexdigest()


def _mismatches(service, requests, results, rng) -> int:
    """Served results that differ from ``Scheduler.select`` on the same
    snapshot, over a seeded sample."""
    snap = service.snapshot
    bad = 0
    for i in rng.choice(len(requests), min(CHECKED_PER_PHASE, len(requests)), replace=False):
        req, res = requests[int(i)], results[int(i)]
        if res is None or not res.ok:
            continue  # counted as a failure already
        want = snap.scheduler.select(snap.predictions[req.kernel_uid], req.power_cap_w)
        if (
            res.config != want.config
            or res.predicted_power_w != want.predicted_power_w
            or res.predicted_performance != want.predicted_performance
        ):
            bad += 1
    return bad


class _BatchRecorder:
    """Instance-level hook on ``service.decide_batch`` for the traced
    run: when each batch entered and left the service, how long its
    engine sweep and the service's own part (validation and result
    building, the wrapped method's self time) took, and which batch
    each request rode in."""

    def __init__(self, service, tracer) -> None:
        self.service = service
        self.tracer = tracer
        self.batches: list[tuple[float, float, float, float]] = []
        self.batch_of: dict[int, int] = {}

    def __call__(self, requests):
        t_in = time.perf_counter()
        out = type(self.service).decide_batch(self.service, requests)
        t_out = time.perf_counter()
        b = len(self.batches)
        self.batches.append((
            t_in, t_out, self.tracer.last_s("server.engine"), self.tracer.last_self_s("server.service"),
        ))
        for r in requests:
            self.batch_of[id(r)] = b
        return out


def _open_loop(service, pool, rate: float, seconds: float, rng, recorder=None) -> dict:
    from repro.server.batching import DecisionServer, ServerOverloadError
    from repro.server.engine import DecisionRequest

    n = max(1, int(rate * seconds))
    offsets = np.cumsum(rng.exponential(1.0 / rate, n))
    picks = rng.integers(0, len(pool), n)
    submit = np.full(n, np.nan)
    done = np.full(n, np.nan)
    results = [None] * n
    requests = [DecisionRequest(*pool[int(k)]) for k in picks]
    futures = []
    shed = 0
    perf = time.perf_counter
    sleep = time.sleep

    def on_done(i, future):
        done[i] = perf()
        try:
            results[i] = future.result()
        except Exception:  # noqa: BLE001 - counted as a failed request
            pass

    if recorder is not None:
        service.decide_batch = recorder
    server = DecisionServer(service)
    server.start()
    try:
        start = perf() + 0.005
        for i in range(n):
            delay = start + offsets[i] - perf()
            if delay > 0:
                sleep(delay)
            submit[i] = perf()
            try:
                future = server.submit(requests[i])
            except ServerOverloadError:
                shed += 1
                continue
            future.add_done_callback(functools.partial(on_done, i))
            futures.append(future)
        wait(futures, timeout=DRAIN_TIMEOUT_S)
    finally:
        server.stop()
        if recorder is not None:
            del service.decide_batch
    sched = start + offsets
    return {
        "n": n, "shed": shed, "sched": sched, "submit": submit, "done": done,
        "results": results, "requests": requests,
    }


def _split(run: dict, recorder: _BatchRecorder) -> dict[str, float]:
    """Per-request timeline around the p50 (and p99) latency: generator
    lateness, queue wait (including the coalescing window), engine
    sweep, service validation and result building, demux plus callback.
    Each part is measured on its own, so ``covered`` falls short of 100 %
    by whatever none of them timed (the hook and the wrappers)."""
    lat = run["done"] - run["sched"]
    rows = []
    for i, req in enumerate(run["requests"]):
        b = recorder.batch_of.get(id(req))
        if b is None or not np.isfinite(lat[i]):
            continue
        t_in, t_out, engine, service = recorder.batches[b]
        rows.append((
            lat[i],
            run["submit"][i] - run["sched"][i],
            t_in - run["submit"][i],
            engine,
            service,
            run["done"][i] - t_out,
        ))
    arr = np.array(rows)
    p50 = float(np.median(arr[:, 0]))
    lo_b, hi_b = np.percentile(arr[:, 0], [45, 55])
    near = arr[(arr[:, 0] >= lo_b) & (arr[:, 0] <= hi_b)]
    parts = 100.0 * near[:, 1:].mean(axis=0) / p50
    out = dict(zip(("late", "queue", "engine", "service", "demux"), parts.tolist()))
    out["covered"] = float(parts.sum())
    p99 = np.percentile(arr[:, 0], 99)
    worst = arr[arr[:, 0] >= p99]
    out["p99_late"] = float(100.0 * worst[:, 1].mean() / worst[:, 0].mean())
    return out


def _closed_loop(ctx, service, batches, share: float, rng) -> tuple[Series, Series]:
    """Call ``decide_batch`` on each of ``batches`` per repetition,
    back to back, checking every answer and a seeded sample of them.
    Returns the untraced and the traced repetitions."""
    plain, traced = Series(), Series()

    def rep():
        return [service.decide_batch(b) for b in batches]

    end = ctx.deadline(share)
    i = 0
    while time.perf_counter() < end or plain.n < 3:
        use_trace = ctx.tracing and i % 2 == 1
        i += 1
        answers = ctx.guarded(lambda: ctx.timed(rep, traced if use_trace else plain, traced=use_trace), "decide_batch")
        if answers is None:
            continue
        n_bad = sum(1 for results in answers for r in results if not r.ok)
        ctx.tally(sum(map(len, answers)), n_bad, f"decide_batch returned {n_bad} error results")
        requests = [r for b in batches for r in b]
        bad = _mismatches(service, requests, [r for results in answers for r in results], rng)
        ctx.check(bad == 0, f"{bad} closed-loop results differ from Scheduler.select")
    return plain, traced


def run(state: dict, ctx) -> None:
    from repro.server.engine import DecisionRequest

    service, pool, batch = state["service"], state["pool"], state["batch"]
    rng = np.random.default_rng([ctx.seed, 1])
    ref = expected.lookup("serve", ctx.seed)
    if ref is None:
        ctx.note(f"no committed answers digest for seed {ctx.seed}")
    else:
        ctx.check(state["digest"] == ref["digest"], "answers to the set-up batch differ from the committed ones")

    big, big_traced = _closed_loop(ctx, service, [batch] * CALLS_PER_REP, SHARES["closed_big"], rng)
    decide_per_s = CALLS_PER_REP * BATCH / big.median()
    ctx.row("decide_batch_per_s", decide_per_s, "1/s", big.n, CALLS_PER_REP * BATCH / big.raw_median())
    ctx.e2e["rate_per_s"] = decide_per_s

    picks = rng.integers(0, len(pool), (SMALL_CALLS, SMALL_BATCH))
    small_batches = [[DecisionRequest(*pool[int(k)]) for k in row] for row in picks]
    small, small_traced = _closed_loop(ctx, service, small_batches, SHARES["closed_small"], rng)
    ctx.row("decide_small_batch_ms", 1e3 * small.median() / SMALL_CALLS, "ms", small.n, 1e3 * small.raw_median() / SMALL_CALLS)
    ctx.e2e["op_ms"] = 1e3 * small.median() / SMALL_CALLS
    if ctx.tracing:
        ratio = 0.5 * (big_traced.median() / big.median() + small_traced.median() / small.median())
        ctx.layer_values["telemetry.trace_overhead_pct"] = 100.0 * (ratio - 1.0)

    for name, rate in RATES:
        recorder = _BatchRecorder(service, ctx.tracer) if ctx.tracing else None
        before = program_counters()
        phase = lambda: _open_loop(service, pool, rate, ctx.seconds * SHARES[name], rng, recorder)  # noqa: E731
        out = ctx.traced(phase) if ctx.tracing else phase()
        after = program_counters()
        ctx.clock.mark()

        lat_ms = 1e3 * (out["done"] - out["sched"])
        late_ms = 1e3 * (out["submit"] - out["sched"])
        answered = [i for i, r in enumerate(out["results"]) if r is not None and r.ok]
        failed = out["n"] - len(answered)
        ctx.tally(out["n"], failed, f"{failed} requests at {name} were shed, failed or timed out")
        bad = _mismatches(service, out["requests"], out["results"], rng)
        ctx.check(bad == 0, f"{bad} served results at {name} differ from Scheduler.select")
        ok_lat = lat_ms[answered]
        p50 = float(np.median(ok_lat))
        ctx.row(f"serve_{name}_p50_ms", p50, "ms", len(ok_lat))
        label, p_tail = tail(ok_lat)
        ctx.row(f"serve_{name}_{label}_ms", p_tail, "ms", len(ok_lat))
        ctx.row(f"loadgen_{name}_late_p50_ms", float(np.nanmedian(late_ms)), "ms", out["n"])
        ctx.row(f"loadgen_{name}_late_p99_ms", percentile(late_ms[np.isfinite(late_ms)], 99), "ms", out["n"])
        if name == "hi":
            within = int(np.sum(ok_lat <= SLO_MS))
            ctx.row("serve_hi_slo_pct", 100.0 * within / out["n"], "%", out["n"])
        batches = after["server.batch_size.count"] - before["server.batch_size.count"]
        size_sum = after["server.batch_size.sum"] - before["server.batch_size.sum"]
        ctx.row(f"batch_size_mean_{name}", size_sum / batches if batches else 0.0, "requests", int(batches))
        if ctx.tracing:
            ctx.layer_values[f"server.batch_size.mean.{name}"] = size_sum / batches if batches else 0.0
            split = _split(out, recorder)
            for part in ("late", "queue", "engine", "service", "demux", "covered"):
                ctx.layer_values[f"serve.{name}.{part}_pct"] = split[part]
            if name == "hi":
                ctx.layer_values["serve.hi.p99_late_pct"] = split["p99_late"]
